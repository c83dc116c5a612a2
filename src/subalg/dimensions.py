"""Dimension bookkeeping for subalgebra classes and the trivial-intersection audit.

Everything here is exact integer arithmetic derived from multiplicity data:
the dimension of the stabilizer of a subalgebra class, the dimension of the
class itself, the dimensions of the orbit pieces of unitaries carrying the
class into a second algebra, and the quantity d(B) whose comparison against
N^2 underpins the genericity of trivial intersections.  The two closed-form
optimization bounds used by the non-simple case analysis live here too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    SubalgebraClass,
    compatible_embeddings,
    enumerate_subalgebra_classes,
)
from .errors import DomainError


@dataclass(frozen=True)
class DimReport:
    """Dimension summary for one subalgebra class measured against a second algebra.

    ``orbit_dims_histogram`` holds one (orbit dimension, count) pair per
    distinct dimension, ascending, where the count is the number of
    compatible embeddings with that dimension; it is empty when no unitary
    carries the class into the second algebra.  ``d_value`` is the class
    dimension plus the largest orbit dimension.  In JSON the histogram is an
    object ``{"<dim>": count}``, as ``density``'s ``dims_histogram``.
    """

    stab_dim: int
    class_dim: int
    orbit_dims_histogram: tuple[tuple[int, int], ...]
    d_value: int | None
    ambient_sq: int

    def to_json_dict(self) -> dict:
        return {
            "stab_dim": self.stab_dim,
            "class_dim": self.class_dim,
            "orbit_dims_histogram": {str(dim): count for dim, count in self.orbit_dims_histogram},
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
    return _stab_dim(cls.structure, cls.embedding.entries)


def class_dim(b1: EmbeddedAlgebra, cls: SubalgebraClass) -> int:
    """Manifold dimension of the unitary-conjugation class of the subalgebra."""
    _check_parent(b1, cls)
    return b1.structure.algebra_dim() - _stab_dim(cls.structure, cls.embedding.entries)


def _stab_dim(structure: BlockStructure, entries: tuple[tuple[int, ...], ...]) -> int:
    """The stabilizer dimension from the multiplicity rows of a unital embedding.

    The relative commutant has one block of size mu per nonzero entry mu
    (``relative_commutant``), so its dimension is the sum of squared entries.
    """
    rel_dim = sum(e * e for row in entries for e in row)
    return structure.algebra_dim() + rel_dim - structure.center_dim()


def orbit_dims(
    b1: EmbeddedAlgebra, cls: SubalgebraClass, b2: EmbeddedAlgebra
) -> list[int]:
    """Dimensions of the orbit pieces of unitaries carrying the class into b2.

    One entry per compatible embedding mu(b2, B), in the order of
    ``compatible_embeddings``: sum of squared ambient multiplicities of B,
    plus dim U(b2), minus the sum of the squared entries of mu.  Empty when no
    unitary can carry B into b2.  Each call returns a fresh list from the
    stream that the reports fold into their histograms (``_orbit_dims``);
    the reports keep no per-embedding list.
    """
    _check_parent(b1, cls)
    return list(_orbit_dim_stream(cls.structure, cls.ambient_mult(), b2))


class _RowSquares(dict):
    """Sum of squared entries of each row looked up, computed on first lookup."""

    def __missing__(self, row: tuple[int, ...]) -> int:
        value = self[row] = sum(v * v for v in row)
        return value


def _orbit_dim_stream(
    structure: BlockStructure, ambient_mult: tuple[int, ...], b2: EmbeddedAlgebra
):
    """The orbit dimension of each compatible embedding, read off its rows, as an iterator."""
    base = sum(m * m for m in ambient_mult) + b2.structure.algebra_dim()
    # the embeddings share a few distinct rows, so each row is squared once
    row_sq = _RowSquares().__getitem__
    return (
        base - sum(map(row_sq, rows)) for rows in compatible_embeddings(structure, ambient_mult, b2)
    )


@lru_cache(maxsize=None)
def _orbit_dims(
    structure: BlockStructure, ambient_mult: tuple[int, ...], b2: EmbeddedAlgebra
) -> tuple[tuple[int, int], ...]:
    """The orbit dimensions as (dimension, count) pairs, ascending (``DimReport``).

    Each embedding's dimension is counted as the stream passes, so no
    per-embedding list is kept.  The histogram depends on a class only
    through its structure and ambient multiplicities, so it is tabled once
    per (structure, ambient multiplicities, b2) and shared by every parent
    with a class of that shape.
    """
    return tuple(sorted(Counter(_orbit_dim_stream(structure, ambient_mult, b2)).items()))


def _d(cdim: int, histogram) -> int | None:
    """d(B): the class dimension plus the largest orbit dimension; None when no orbit exists."""
    return cdim + histogram[-1][0] if histogram else None


def d_value(
    b1: EmbeddedAlgebra, cls: SubalgebraClass, b2: EmbeddedAlgebra
) -> int | None:
    """class_dim plus the largest orbit dimension; None when no orbit exists."""
    cdim = class_dim(b1, cls)
    return _d(cdim, _orbit_dims(cls.structure, cls.ambient_mult(), b2))


def dim_report(
    b1: EmbeddedAlgebra, cls: SubalgebraClass, b2: EmbeddedAlgebra
) -> DimReport:
    _check_parent(b1, cls)
    histogram = _orbit_dims(cls.structure, cls.ambient_mult(), b2)
    stab = _stab_dim(cls.structure, cls.embedding.entries)
    cdim = b1.structure.algebra_dim() - stab
    n = b1.ambient_dim
    return DimReport(stab, cdim, histogram, _d(cdim, histogram), n * n)


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


class _AbelianEntry(NamedTuple):
    """A nontrivial abelian class of a parent and its values that do not depend on b2."""

    cls: SubalgebraClass
    ambient_mult: tuple[int, ...]
    stab_dim: int
    class_dim: int
    key: tuple


class _SimpleEntry(NamedTuple):
    """A simple nonabelian class of a parent, with its C^2 splits ((x, k - x), C^2 key)."""

    cls: SubalgebraClass
    ambient_mult: tuple[int, ...]
    class_dim: int
    splits: tuple[tuple[tuple[int, int], tuple], ...]


@lru_cache(maxsize=None)
def _class_table(
    b1: EmbeddedAlgebra,
) -> tuple[tuple[_AbelianEntry, ...], tuple[_SimpleEntry, ...]]:
    """Per-class data of b1 that every audit against a second algebra reads.

    The abelian entries are the nontrivial abelian classes and the simple
    entries the simple nonabelian ones, each in class order.  A simple class
    M_k keeps one split x + (k - x) per distinct canonical key of the C^2 it
    contains, the first x in ascending order.

    Every value is read straight from the multiplicity rows mu of a class.
    Its ambient multiplicities are b1's row times mu, and its stabilizer and
    class dimensions come from the squared entries of mu (``_stab_dim``).
    An enumerated class is canonical, so its key is (structure, mu).  The
    C^2 split x + (k - x) of a simple class with column c embeds into b1
    with the rows (x c_i, (k - x) c_i), canonical when x <= k - x; distinct
    x <= k / 2 give distinct keys, and x and k - x give the same one, so the
    splits are x = 1, ..., k // 2.
    """
    abelian, simple = [], []
    u1 = b1.structure.algebra_dim()
    for cls in enumerate_subalgebra_classes(b1):
        structure, entries = cls.structure, cls.embedding.entries
        if structure.is_trivial() or not (structure.is_abelian() or structure.is_simple()):
            continue
        ambient = tuple(sum(m * v for m, v in zip(b1.mult, col)) for col in zip(*entries))
        stab = _stab_dim(structure, entries)
        if structure.is_abelian():
            key = (structure.blocks, entries)
            abelian.append(_AbelianEntry(cls, ambient, stab, u1 - stab, key))
        else:
            k = structure.blocks[0]
            column = [row[0] for row in entries]
            splits = tuple(
                ((x, k - x), ((1, 1), tuple((x * c, (k - x) * c) for c in column)))
                for x in range(1, k // 2 + 1)
            )
            simple.append(_SimpleEntry(cls, ambient, u1 - stab, splits))
    return tuple(abelian), tuple(simple)


@lru_cache(maxsize=None)
def _uncovered_audit(n_sq: int) -> HypothesisAudit:
    """The audit of every pair that no hypothesis case covers in M_N, N^2 = n_sq."""
    return HypothesisAudit(None, n_sq, ())


def audit_density_hypotheses(
    b1: EmbeddedAlgebra, b2: EmbeddedAlgebra
) -> HypothesisAudit:
    """Audit the strict inequality d(B) < N^2 over the subalgebra classes of b1.

    Classifies the ordered pair into one of the four covered hypothesis cases
    (or reports it uncovered), then checks every abelian class other than the
    scalars whose orbit set is nonempty, and for simple nonabelian classes
    checks the reduction d(B) <= d(C) against every abelian C^2 inside B
    whenever dim U(b1) + dim U(b2) <= N^2.  What does not depend on b2 is
    read from a table built once per b1.
    """
    case = classify_pair(b1, b2)
    n_sq = b1.ambient_dim * b1.ambient_dim
    if case is None:
        return _uncovered_audit(n_sq)

    abelian, simple = _class_table(b1)

    rows = []
    d_by_key = {}
    for entry in abelian:
        histogram = _orbit_dims(entry.cls.structure, entry.ambient_mult, b2)
        d = _d(entry.class_dim, histogram)
        if d is None:
            verdict = "no-embedding"
        elif d < n_sq:
            verdict = "ok"
        else:
            verdict = "violated"
        report = DimReport(entry.stab_dim, entry.class_dim, histogram, d, n_sq)
        rows.append(ClassVerdict(entry.cls, report, verdict))
        d_by_key[entry.key] = d

    comparisons = []
    if b1.structure.algebra_dim() + b2.structure.algebra_dim() <= n_sq:
        # every C^2 class is abelian and nontrivial, so its d is already in a row
        for entry in simple:
            d_b = _d(entry.class_dim, _orbit_dims(entry.cls.structure, entry.ambient_mult, b2))
            if d_b is None:
                continue
            for split, key in entry.splits:
                d_c = d_by_key[key]
                ok = d_c is not None and d_b <= d_c
                comparisons.append(
                    SimpleClassComparison(entry.cls.structure.blocks, split, d_b, d_c, ok)
                )

    return HypothesisAudit(case, n_sq, tuple(rows), tuple(comparisons))
