"""Symbolic model of finite-dimensional C*-algebras and their unital embeddings.

A finite-dimensional C*-algebra is, up to isomorphism, a direct sum of full
matrix blocks; we record only the tuple of block sizes.  A unital embedding
between two such algebras is captured by its integer matrix of partial
multiplicities, and an algebra sitting inside an ambient M_N additionally
carries the row of multiplicities of that representation.  Everything in this
module is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, ShapeMismatchError


def _int_tuple(values) -> tuple[int, ...]:
    """The values as ints; raises ValueError for a value that is not an integer."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        raise ValueError(f"expected integers, got {values}")
    return ints


def _matmul(a, b):
    """Product of two integer matrices given as tuples of row tuples."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


@dataclass(frozen=True)
class BlockStructure:
    """Ordered list of matrix block sizes describing a direct sum of full matrix algebras.

    Equality is order-sensitive because multiplicity matrices are indexed by
    block position; use :meth:`isomorphic` for comparison up to reordering.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = _int_tuple(self.blocks)
        if not blocks:
            raise ValueError("a block structure needs at least one block")
        if any(b < 1 for b in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def algebra_dim(self) -> int:
        """Complex linear dimension, sum of squared block sizes.

        This is also the real dimension of the unitary group U(A).
        """
        return sum(b * b for b in self.blocks)

    def center_dim(self) -> int:
        return len(self.blocks)

    def model_dim(self) -> int:
        """Size of the block-diagonal matrix model, sum of block sizes."""
        return sum(self.blocks)

    def isomorphic(self, other: "BlockStructure") -> bool:
        return sorted(self.blocks) == sorted(other.blocks)

    def is_abelian(self) -> bool:
        return all(b == 1 for b in self.blocks)

    def is_simple(self) -> bool:
        return len(self.blocks) == 1

    def is_trivial(self) -> bool:
        return self.blocks == (1,)

    def __str__(self) -> str:
        return "+".join(f"M{b}" for b in self.blocks)


@dataclass(frozen=True)
class MultiplicityMatrix:
    """Integer matrix of partial multiplicities of a unital embedding source -> target.

    Rows are indexed by target blocks, columns by source blocks.  The embedding
    it encodes is unital when entries @ source.blocks == target.blocks and
    injective when every column has a nonzero entry.
    """

    source: BlockStructure
    target: BlockStructure
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(_int_tuple(row) for row in self.entries)
        if len(entries) != self.target.num_blocks:
            raise ShapeMismatchError(
                f"expected {self.target.num_blocks} rows, got {len(entries)}"
            )
        for row in entries:
            if len(row) != self.source.num_blocks:
                raise ShapeMismatchError(
                    f"expected {self.source.num_blocks} columns, got {len(row)}"
                )
            if any(e < 0 for e in row):
                raise ValueError(f"multiplicities must be nonnegative, got {row}")
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.target.num_blocks, self.source.num_blocks)

    def unital(self) -> bool:
        return all(
            sum(e * d for e, d in zip(row, self.source.blocks)) == size
            for row, size in zip(self.entries, self.target.blocks)
        )

    def injective(self) -> bool:
        return all(any(row[j] for row in self.entries) for j in range(self.source.num_blocks))

    def apply_to_row(self, row: tuple[int, ...]) -> tuple[int, ...]:
        """Left-multiply a row vector indexed by target blocks; yields a source-indexed row."""
        if len(row) != self.target.num_blocks:
            raise ShapeMismatchError("row length does not match target block count")
        return tuple(
            sum(r * self.entries[i][j] for i, r in enumerate(row))
            for j in range(self.source.num_blocks)
        )

    @staticmethod
    def identity(structure: BlockStructure) -> "MultiplicityMatrix":
        n = structure.num_blocks
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return MultiplicityMatrix(structure, structure, rows)


def _fast_matrix(
    source: BlockStructure, target: BlockStructure, entries: tuple[tuple[int, ...], ...]
) -> MultiplicityMatrix:
    """Construct a MultiplicityMatrix skipping validation.

    Only for the class enumerator (``enumerate_unital_embeddings``), whose
    rows are correct by construction; the per-candidate validation cost
    dominates large sweeps otherwise.
    """
    m = object.__new__(MultiplicityMatrix)
    m.__dict__.update(source=source, target=target, entries=entries)
    return m


def compose_multiplicities(
    outer: MultiplicityMatrix, inner: MultiplicityMatrix
) -> MultiplicityMatrix:
    """Multiplicity matrix of the composite embedding inner.source -> outer.target."""
    if inner.target.blocks != outer.source.blocks:
        raise ShapeMismatchError(
            f"inner target {inner.target.blocks} does not match outer source {outer.source.blocks}"
        )
    return MultiplicityMatrix(inner.source, outer.target, _matmul(outer.entries, inner.entries))


def relative_commutant(emb: MultiplicityMatrix) -> BlockStructure:
    """Block structure of the commutant of the embedded image inside the target algebra.

    One block of size mu[i, j] per nonzero entry, in row-major order.
    """
    if not emb.unital():
        raise DomainError("relative commutant is defined for unital embeddings only")
    blocks = tuple(e for row in emb.entries for e in row if e > 0)
    return BlockStructure(blocks)


@dataclass(frozen=True)
class EmbeddedAlgebra:
    """A block structure together with its multiplicity row inside an ambient M_N."""

    ambient_dim: int
    structure: BlockStructure
    mult: tuple[int, ...]

    def __post_init__(self):
        mult = _int_tuple(self.mult)
        object.__setattr__(self, "mult", mult)
        if len(mult) != self.structure.num_blocks:
            raise ShapeMismatchError("multiplicity row length does not match block count")
        if any(m < 1 for m in mult):
            raise ValueError(f"ambient multiplicities must be >= 1, got {mult}")
        total = sum(m * n for m, n in zip(mult, self.structure.blocks))
        if total != self.ambient_dim:
            raise ValueError(
                f"multiplicities {mult} against blocks {self.structure.blocks} "
                f"fill dimension {total}, not {self.ambient_dim}"
            )

    def is_full(self) -> bool:
        return self.structure.blocks == (self.ambient_dim,)

    def __str__(self) -> str:
        pieces = "+".join(f"{m}.M{n}" for m, n in zip(self.mult, self.structure.blocks))
        return f"{pieces} in M{self.ambient_dim}"


@lru_cache(maxsize=None)
def _bounded_rows(
    weights: tuple[int, ...], total: int, bounds: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Nonnegative integer rows v with v . weights == total and v <= bounds entrywise.

    Lexicographically ascending.  An entry past its bound is never tried, so
    neither is any row that holds one; with every bound at ``total`` these
    are all the rows of weighted sum ``total``.
    """
    head = weights[0]
    if len(weights) == 1:
        v, rest = divmod(total, head)
        return ((v,),) if not rest and v <= bounds[0] else ()
    tail_weights, tail_bounds = weights[1:], bounds[1:]
    return tuple(
        (v,) + tail
        for v in range(min(total // head, bounds[0]) + 1)
        for tail in _bounded_rows(tail_weights, total - v * head, tail_bounds)
    )


def enumerate_unital_embeddings(
    source: BlockStructure, target: BlockStructure
) -> list[MultiplicityMatrix]:
    """The canonical unital injective multiplicity matrices source -> target.

    Canonical means that the columns are lexicographically nondecreasing
    across every adjacent pair of equal-size source blocks: one member per
    orbit under relabeling equal adjacent blocks, and for a descending source
    exactly the matrices that ``canonical_embedding_key`` leaves fixed.

    Rows are independent (row i must weight-sum to the i-th target block size),
    so candidates are enumerated per row and combined depth-first with a
    column-coverage prune: a partial choice dies as soon as the remaining rows
    cannot touch every still-empty column.  The output order is lexicographic
    on the row-major flattened entries, which keeps golden tests stable.
    The canonical pruning is done row by row: a pair stays tied while its
    two columns agree so far, a row with ``row[j] > row[j+1]`` on a tied pair
    is skipped, and the pair drops out once ``row[j] < row[j+1]``.
    """
    blocks = source.blocks
    per_row = [_bounded_rows(blocks, size, (size,) * len(blocks)) for size in target.blocks]
    if any(not rows for rows in per_row):
        return []
    cols = source.num_blocks
    full_mask = (1 << cols) - 1
    masks = [
        tuple(sum(1 << j for j, v in enumerate(row) if v) for row in rows)
        for rows in per_row
    ]
    # how many fresh columns a single row of each target block can cover, at most
    maxcov = [max(m.bit_count() for m in row_masks) for row_masks in masks]
    suffix = [0] * (len(per_row) + 1)
    for i in range(len(per_row) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + maxcov[i]
    # adjacent equal-size source columns; a pair stays tied while its entries agree
    ties = tuple(j for j in range(cols - 1) if blocks[j] == blocks[j + 1])

    out: list[MultiplicityMatrix] = []
    chosen: list[tuple[int, ...]] = []

    def rec(i: int, covered: int, tied: tuple[int, ...]) -> None:
        if (full_mask & ~covered).bit_count() > suffix[i]:
            return
        if i == len(per_row):
            out.append(_fast_matrix(source, target, tuple(chosen)))
            return
        for row, mask in zip(per_row[i], masks[i]):
            if any(row[j] > row[j + 1] for j in tied):
                continue
            chosen.append(row)
            rec(i + 1, covered | mask, tuple(j for j in tied if row[j] == row[j + 1]))
            chosen.pop()

    rec(0, 0, ties)
    return out


def canonical_embedding_key(
    structure: BlockStructure, entries: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical form of a class representative (structure, embedding into the parent).

    Blocks are sorted descending; among equal-size blocks the corresponding
    columns are sorted ascending lexicographically, which minimises the
    row-major flattening over all admissible relabelings.
    """
    cols = list(range(len(structure.blocks)))
    cols.sort(key=lambda j: (-structure.blocks[j], tuple(row[j] for row in entries)))
    sorted_blocks = tuple(structure.blocks[j] for j in cols)
    sorted_entries = tuple(tuple(row[j] for j in cols) for row in entries)
    return sorted_blocks, sorted_entries


@dataclass(frozen=True)
class SubalgebraClass:
    """A unitary-equivalence class of unital subalgebras of an embedded algebra.

    Conjugation by unitaries of the parent cannot mix the parent's blocks, so a
    class is determined by the subalgebra's block structure together with its
    multiplicity matrix into the parent, up to relabeling equal-size blocks.
    """

    parent: EmbeddedAlgebra
    structure: BlockStructure
    embedding: MultiplicityMatrix

    def __post_init__(self):
        if self.embedding.source.blocks != self.structure.blocks:
            raise ShapeMismatchError("embedding source does not match class structure")
        if self.embedding.target.blocks != self.parent.structure.blocks:
            raise ShapeMismatchError("embedding target does not match parent structure")
        if not self.embedding.unital():
            raise DomainError("class embedding must be unital")
        if not self.embedding.injective():
            raise DomainError("class embedding must be injective")
        if any(m < 1 for m in self.ambient_mult()):
            raise DomainError("induced ambient multiplicities must all be >= 1")

    def ambient_mult(self) -> tuple[int, ...]:
        """Multiplicity row of the class representative inside the ambient M_N."""
        return self.embedding.apply_to_row(self.parent.mult)

    def is_abelian(self) -> bool:
        return self.structure.is_abelian()

    def is_trivial(self) -> bool:
        return self.structure.is_trivial()

    def key(self):
        return canonical_embedding_key(self.structure, self.embedding.entries)

    def to_json_dict(self) -> dict:
        return {
            "structure": list(self.structure.blocks),
            "embedding": {
                "shape": list(self.embedding.shape),
                "entries": [e for row in self.embedding.entries for e in row],
            },
        }

    def __str__(self) -> str:
        return f"[{self.structure}] in {self.parent}"


def _descending_structures(max_total: int, max_block: int):
    """Nonincreasing block tuples with sum <= max_total and entries <= max_block."""

    def rec(remaining: int, cap: int):
        for first in range(min(cap, remaining), 0, -1):
            yield (first,)
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(max_total, max_block)


@lru_cache(maxsize=None)
def _cached_classes(parent: EmbeddedAlgebra) -> tuple[SubalgebraClass, ...]:
    """The classes of ``parent``, built without ``SubalgebraClass`` validation.

    The enumerator's embeddings are unital, injective and canonical by
    construction, and a parent's multiplicities are all positive, so every
    induced ambient multiplicity is too: the checks of ``__post_init__``
    hold and are not run again, as ``_fast_matrix`` skips them for the
    matrices.
    """
    total = parent.structure.model_dim()
    max_block = max(parent.structure.blocks)
    classes = []
    for blocks in _descending_structures(total, max_block):
        structure = BlockStructure(blocks)
        for emb in enumerate_unital_embeddings(structure, parent.structure):
            cls = object.__new__(SubalgebraClass)
            cls.__dict__.update(parent=parent, structure=structure, embedding=emb)
            classes.append(cls)
    return tuple(classes)


def enumerate_subalgebra_classes(parent: EmbeddedAlgebra) -> list[SubalgebraClass]:
    """One canonical representative per unitary-equivalence class of unital subalgebras.

    Candidate structures range over descending block tuples; for each, only
    the canonical embeddings into the parent are generated (those fixed by
    ``canonical_embedding_key``), so no duplicate is ever built.  Classes come
    out in the order of their canonical forms: structures first, then the
    row-major flattening of the embedding.  The trivial class and the full
    class always appear.  Results are cached per parent (all values involved
    are immutable).
    """
    return list(_cached_classes(parent))


@lru_cache(maxsize=1)
def _suffix_table(structure: BlockStructure, other: EmbeddedAlgebra) -> dict:
    """The memo of row-suffixes of the embeddings of ``structure`` into ``other``.

    Row i of an embedding, weighted by ``other.mult[i]``, spends from one
    budget per column.  The suffixes of a state (row index i, remaining
    budgets) are the rows i, i + 1, ... that spend the budgets exactly, and
    they do not depend on the rows above i: one table serves every ambient
    row that ``structure`` is asked with against ``other``.  The cache holds
    one table, so the classes of one structure, which the enumerator lists
    together, share it against one algebra.

    The table is a plain dict (row index >= 1, remaining budgets) -> suffixes
    that ``_suffixes`` fills, with no closure or other reference back to it:
    ``cache_clear`` or a call with another key frees it at once.
    """
    return {}


def _suffixes(
    structure: BlockStructure, other: EmbeddedAlgebra, memo: dict, i: int, remaining: tuple
) -> tuple:
    """The suffixes of the state (i, ``remaining``), lexicographic, filling ``memo``.

    The states below row i are built once into ``memo``; the state itself is
    not kept, as each ambient row asks for the top state once.
    """
    sizes, w = other.structure.blocks, other.mult[i]
    if i == len(sizes) - 1:
        # the budgets already weight-sum to w * sizes[i], so the last
        # row is forced: remaining / w, when that divides evenly
        row = tuple(r // w for r in remaining)
        return ((row,),) if all(r == w * v for r, v in zip(remaining, row)) else ()
    out = []
    for row in _bounded_rows(structure.blocks, sizes[i], tuple(r // w for r in remaining)):
        nxt = tuple(r - w * v for r, v in zip(remaining, row))
        found = memo.get((i + 1, nxt))
        if found is None:
            found = memo[i + 1, nxt] = _suffixes(structure, other, memo, i + 1, nxt)
        out.extend((row,) + tail for tail in found)
    return tuple(out)


def compatible_embeddings(
    structure: BlockStructure, ambient_mult: tuple[int, ...], other: EmbeddedAlgebra
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Unital injective embeddings of ``structure`` into ``other`` whose induced
    ambient multiplicities equal ``ambient_mult``, each as its tuple of rows.

    Row i holds the multiplicities of the blocks of ``structure`` in block i
    of ``other``: the ``entries`` of a ``MultiplicityMatrix``, which is not
    built.  A class depends on its parent here only through its structure
    and ambient multiplicities, so those are the arguments.  Row i, weighted
    by ``other.mult[i]``, spends from one budget per column, and every
    budget must reach zero; injectivity is automatic because every budget
    is positive.  Rows are chosen top to bottom, and the row-suffixes that
    complete a (row index, remaining budgets) state come from one table per
    (structure, ``other``) (``_suffix_table``), shared by every ambient row
    and every prefix that reaches the state.  The output order is
    lexicographic on the row-major flattened entries.  An empty tuple means
    no unitary carries the structure into ``other``.
    """
    ambient_mult = _int_tuple(ambient_mult)
    if len(ambient_mult) != structure.num_blocks:
        raise ShapeMismatchError("multiplicity row length does not match block count")
    if any(m < 1 for m in ambient_mult):
        raise ValueError(f"ambient multiplicities must be >= 1, got {ambient_mult}")
    if sum(m * n for m, n in zip(ambient_mult, structure.blocks)) != other.ambient_dim:
        raise DomainError("ambient dimensions differ")
    return _suffixes(structure, other, _suffix_table(structure, other), 0, ambient_mult)


def enumerate_embedded_algebras(ambient_dim: int) -> list[EmbeddedAlgebra]:
    """All embedded algebras in M_N, one canonical representative per isomorphism type.

    Canonical means blocks sorted descending and, among equal-size blocks,
    multiplicities nonincreasing.
    """

    def rec(remaining: int, max_pair: tuple[int, int]):
        if remaining == 0:
            yield ()
            return
        for n in range(min(max_pair[0], remaining), 0, -1):
            top = remaining // n if n < max_pair[0] else min(max_pair[1], remaining // n)
            for m in range(top, 0, -1):
                for rest in rec(remaining - n * m, (n, m)):
                    yield ((n, m),) + rest

    out = []
    for pairs in rec(ambient_dim, (ambient_dim, ambient_dim)):
        blocks = tuple(n for n, _ in pairs)
        mult = tuple(m for _, m in pairs)
        out.append(EmbeddedAlgebra(ambient_dim, BlockStructure(blocks), mult))
    return out
