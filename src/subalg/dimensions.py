"""Dimension bookkeeping for subalgebra classes and the trivial-intersection audit.

Everything here is exact integer arithmetic derived from multiplicity data:
the dimension of the stabilizer of a subalgebra class, the dimension of the
class itself, the dimensions of the orbit pieces of unitaries carrying the
class into a second algebra, and the quantity d(B) whose comparison against
N^2 underpins the genericity of trivial intersections.  The two closed-form
optimization bounds used by the non-simple case analysis live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    MultiplicityMatrix,
    SubalgebraClass,
    canonical_embedding_key,
    compatible_embeddings,
    compose_multiplicities,
    enumerate_subalgebra_classes,
    relative_commutant,
)
from .errors import DomainError


@dataclass(frozen=True)
class DimReport:
    """Dimension summary for one subalgebra class measured against a second algebra."""

    stab_dim: int
    class_dim: int
    orbit_dims: tuple[int, ...]
    d_value: int | None
    ambient_sq: int

    def to_json_dict(self) -> dict:
        return {
            "stab_dim": self.stab_dim,
            "class_dim": self.class_dim,
            "orbit_dims": list(self.orbit_dims),
            "d": self.d_value,
            "ambient_sq": self.ambient_sq,
        }


def _check_parent(b1: EmbeddedAlgebra, cls: SubalgebraClass) -> None:
    if cls.parent != b1:
        raise DomainError("class does not belong to the given parent algebra")


def stab_dim(b1: EmbeddedAlgebra, cls: SubalgebraClass) -> int:
    """Dimension of the stabilizer of the class under conjugation by unitaries of the parent.

    Equals dim U(B) + dim U(B1 meet B') - dim U(C(B)), where the middle term is
    the relative commutant read off the multiplicity matrix.
    """
    _check_parent(b1, cls)
    return _stab_dim(cls, relative_commutant(cls.embedding))


def class_dim(b1: EmbeddedAlgebra, cls: SubalgebraClass) -> int:
    """Manifold dimension of the unitary-conjugation class of the subalgebra."""
    _check_parent(b1, cls)
    return _class_dim(b1, cls, relative_commutant(cls.embedding))


def _stab_dim(cls: SubalgebraClass, rel: BlockStructure) -> int:
    return cls.structure.algebra_dim() + rel.algebra_dim() - cls.structure.center_dim()


def _class_dim(b1: EmbeddedAlgebra, cls: SubalgebraClass, rel: BlockStructure) -> int:
    return b1.structure.algebra_dim() - _stab_dim(cls, rel)


def orbit_dims(
    b1: EmbeddedAlgebra, cls: SubalgebraClass, b2: EmbeddedAlgebra
) -> list[int]:
    """Dimensions of the orbit pieces of unitaries carrying the class into b2.

    One entry per compatible embedding mu(b2, B), in the order of
    ``compatible_embeddings``: sum of squared ambient multiplicities of B,
    plus dim U(b2), minus the sum of the squared entries of mu.  Empty when no
    unitary can carry B into b2.  The list depends on the class only through
    its structure and ambient multiplicities, so it is read from a table
    built once per (structure, ambient multiplicities, b2) and shared by every
    parent with a class of that shape; each call returns a fresh list.
    """
    _check_parent(b1, cls)
    return list(_orbit_dims(cls.structure, cls.ambient_mult(), b2))


class _RowSquares(dict):
    """Sum of squared entries of each row looked up, computed on first lookup."""

    def __missing__(self, row: tuple[int, ...]) -> int:
        value = self[row] = sum(v * v for v in row)
        return value


@lru_cache(maxsize=None)
def _orbit_dims(
    structure: BlockStructure, ambient_mult: tuple[int, ...], b2: EmbeddedAlgebra
) -> tuple[int, ...]:
    base = sum(m * m for m in ambient_mult) + b2.structure.algebra_dim()
    # the embeddings share a few distinct rows, so each row is squared once
    row_sq = _RowSquares().__getitem__
    return tuple(
        base - sum(map(row_sq, emb.entries))
        for emb in compatible_embeddings(structure, ambient_mult, b2)
    )


def d_value(
    b1: EmbeddedAlgebra, cls: SubalgebraClass, b2: EmbeddedAlgebra
) -> int | None:
    """class_dim plus the largest orbit dimension; None when no orbit exists."""
    dims = orbit_dims(b1, cls, b2)
    if not dims:
        return None
    return class_dim(b1, cls) + max(dims)


def dim_report(
    b1: EmbeddedAlgebra, cls: SubalgebraClass, b2: EmbeddedAlgebra
) -> DimReport:
    dims = tuple(orbit_dims(b1, cls, b2))
    rel = relative_commutant(cls.embedding)
    cdim = _class_dim(b1, cls, rel)
    d = cdim + max(dims) if dims else None
    n = b1.ambient_dim
    return DimReport(_stab_dim(cls, rel), cdim, dims, d, n * n)


def lagrange_min(r: list[float]) -> tuple[float, tuple[float, ...]]:
    """Minimum of sum(x_j^2 / r_j) over real tuples summing to 1, with its minimizer.

    The minimum is 1 / sum(r), attained at x_j = r_j / sum(r).
    """
    weights = [float(v) for v in r]
    if not weights:
        raise ValueError("need at least one weight")
    if any(v <= 0 for v in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    total = sum(weights)
    return 1.0 / total, tuple(v / total for v in weights)


def box_max(k: int) -> float:
    """Maximum of 2xy - (1 + 1/k^2) y^2 - x^2/2 over 0 <= x <= 1, 0 <= y <= 1/2."""
    k = int(k)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return 0.25 - 0.25 / (k * k)


def classify_pair(b1: EmbeddedAlgebra, b2: EmbeddedAlgebra) -> int | None:
    """Which of the four hypothesis cases for generic trivial intersection covers the pair.

    Returns None when the pair is not covered.  Both algebras must be proper
    subalgebras of the common ambient M_N; the cases are checked in order and
    the pair is taken as ordered (callers may swap and re-run).
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise DomainError("ambient dimensions differ")
    if b1.is_full() or b2.is_full():
        return None
    n = b1.ambient_dim
    l1, l2 = b1.structure.center_dim(), b2.structure.center_dim()

    def equal_blocks_filling(b: EmbeddedAlgebra) -> bool:
        blocks = set(b.structure.blocks)
        if len(blocks) != 1:
            return False
        return blocks.pop() * b.structure.center_dim() == n

    if l1 == 1 and l2 == 1:
        return 1
    if l1 >= 2 and l2 == 1 and equal_blocks_filling(b1):
        return 2
    if l1 == 2 and l2 == 2 and equal_blocks_filling(b1):
        big, small = sorted(b2.structure.blocks, reverse=True)
        if 2 * big == n and small < big and big % small == 0:
            return 3
    if l1 >= 2 and l2 >= 3 and equal_blocks_filling(b1) and equal_blocks_filling(b2):
        return 4
    return None


@dataclass(frozen=True)
class ClassVerdict:
    cls: SubalgebraClass
    report: DimReport
    verdict: str  # "ok" | "violated" | "no-embedding"

    def to_json_dict(self) -> dict:
        return {
            **self.cls.to_json_dict(),
            "abelian": self.cls.is_abelian(),
            "verdict": self.verdict,
            **self.report.to_json_dict(),
        }


@dataclass(frozen=True)
class SimpleClassComparison:
    """One d(B) <= d(C) check for a simple class B against an abelian C^2 inside it."""

    simple_blocks: tuple[int, ...]
    split: tuple[int, int]
    d_simple: int
    d_c2: int | None
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "simple": list(self.simple_blocks),
            "split": list(self.split),
            "d_simple": self.d_simple,
            "d_c2": self.d_c2,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class HypothesisAudit:
    case: int | None
    ambient_sq: int
    rows: tuple[ClassVerdict, ...]
    comparisons: tuple[SimpleClassComparison, ...] = field(default_factory=tuple)

    @property
    def covered(self) -> bool:
        return self.case is not None

    @property
    def all_pass(self) -> bool:
        return (
            self.covered
            and all(r.verdict != "violated" for r in self.rows)
            and all(c.ok for c in self.comparisons)
        )

    def to_json_dict(self) -> dict:
        return {
            "status": f"covered case {self.case}" if self.covered else "not covered",
            "case": self.case,
            "ambient_sq": self.ambient_sq,
            "all_pass": self.all_pass,
            "classes": [r.to_json_dict() for r in self.rows],
            "simple_class_comparisons": [c.to_json_dict() for c in self.comparisons],
        }


def audit_density_hypotheses(
    b1: EmbeddedAlgebra, b2: EmbeddedAlgebra
) -> HypothesisAudit:
    """Audit the strict inequality d(B) < N^2 over the subalgebra classes of b1.

    Classifies the ordered pair into one of the four covered hypothesis cases
    (or reports it uncovered), then checks every abelian class other than the
    scalars whose orbit set is nonempty, and for simple nonabelian classes
    checks the reduction d(B) <= d(C) against every abelian C^2 inside B
    whenever dim U(b1) + dim U(b2) <= N^2.
    """
    case = classify_pair(b1, b2)
    n_sq = b1.ambient_dim * b1.ambient_dim
    if case is None:
        return HypothesisAudit(None, n_sq, ())

    classes = enumerate_subalgebra_classes(b1)

    rows = []
    for cls in classes:
        if not cls.is_abelian() or cls.is_trivial():
            continue
        report = dim_report(b1, cls, b2)
        if report.d_value is None:
            verdict = "no-embedding"
        elif report.d_value < n_sq:
            verdict = "ok"
        else:
            verdict = "violated"
        rows.append(ClassVerdict(cls, report, verdict))

    comparisons = []
    if b1.structure.algebra_dim() + b2.structure.algebra_dim() <= n_sq:
        # every C^2 class is abelian and nontrivial, so its d is already in a row
        d_by_key = {row.cls.key(): row.report.d_value for row in rows}
        c2 = BlockStructure((1, 1))
        for cls in classes:
            if not cls.structure.is_simple() or cls.is_abelian():
                continue
            d_b = d_value(b1, cls, b2)
            if d_b is None:
                continue
            k = cls.structure.blocks[0]
            seen_keys = set()
            for x in range(1, k):
                split = MultiplicityMatrix(c2, cls.structure, ((x, k - x),))
                composed = compose_multiplicities(cls.embedding, split)
                key = canonical_embedding_key(c2, composed.entries)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                d_c = d_by_key[key]
                ok = d_c is not None and d_b <= d_c
                comparisons.append(
                    SimpleClassComparison(cls.structure.blocks, (x, k - x), d_b, d_c, ok)
                )

    return HypothesisAudit(case, n_sq, tuple(rows), tuple(comparisons))
