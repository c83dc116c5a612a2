"""Finite-dimensional representations of a unital free product of two block algebras.

A representation pair carries a block model for each factor, multiplicity rows
placing both factors on a common space, and a perturbing unitary applied to
the second factor.  On top of that sit: word evaluation with an explicit
Lipschitz bound in the perturbing unitary, the rank-of-central-projections
(RCP) balance that makes irreducible perturbations generic, irreducibility via
the joint commutant, Monte-Carlo probing of how densely perturbations are
irreducible (DPI), and a staged builder that direct-sums representations while
keeping every stage irreducible within a shrinking perturbation budget.

Irreducibility is decided for a stack of unitaries at once: one call forms
the inverses, the conjugated units and the gathered commutant systems of the
stack, with one stacked QR and one values-only SVD
(``numeric.commutant_basis``), and yields the dimensions in index order.
DPI and the staged search draw through ``numeric.sample_dims``, which decides
its draws in stacks of 1, 2, 4, ...; the search stops at the first success
in attempt order, never deciding the attempts after it.  The identity is decided at
stage 1 alone: a later stage that adds dimension keeps the earlier pair as a
direct summand under the identity, which is never irreducible, and a stage
that adds none keeps the pair that the stage before accepted.
The working-set budget (``numeric.CHUNK_BYTES``) caps every stack, down to
one item when a single system is larger, and results are bit-identical to
deciding one unitary at a time.  The item itself is sized from integers
(``decision_bytes``), so a pair or a build stage whose one item would be past
``DECISION_BYTES`` is refused before any search.  The probe check of a stage amplifies the
probe letters once per side and measures every move with one stacked norm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import BlockStructure, _int_tuple
from .errors import NumericalInstabilityError, SearchExhaustedError, ShapeMismatchError
from .numeric import (
    DRAW_MATRICES,
    DensityStats,
    UnitLayout,
    _copy_indices,
    _radius_unresolved,
    _unitarity_defect,
    amplified_commutant,
    amplify,
    commutant_basis,
    default_tolerance,
    sample_dims,
    stack_size,
)


class Letter(NamedTuple):
    side: int  # 1 or 2
    value: np.ndarray  # element of the factor's block model


@dataclass(frozen=True)
class FreeElement:
    """Linear combination of alternating words in the two factors.

    Each term is (coefficient, word); within a word consecutive letters must
    alternate sides, and the empty word denotes the unit.
    """

    terms: tuple[tuple[complex, tuple[Letter, ...]], ...]

    def __post_init__(self):
        norm_terms = []
        for coeff, word in self.terms:
            word = tuple(Letter(int(l[0]), np.asarray(l[1], dtype=complex)) for l in word)
            for letter in word:
                if letter.side not in (1, 2):
                    raise ValueError(f"letter side must be 1 or 2, got {letter.side}")
            for prev, nxt in zip(word, word[1:]):
                if prev.side == nxt.side:
                    raise ValueError("consecutive letters must alternate sides")
            norm_terms.append((complex(coeff), word))
        object.__setattr__(self, "terms", tuple(norm_terms))

    @classmethod
    def word(cls, coeff: complex, letters) -> "FreeElement":
        return cls(((coeff, tuple(letters)),))

    @classmethod
    def unit(cls, coeff: complex = 1.0) -> "FreeElement":
        return cls(((coeff, ()),))


@dataclass(frozen=True)
class RepPair:
    """Representations of the two factors on a common nonzero space, with a perturbing unitary."""

    algebra1: BlockStructure
    mult1: tuple[int, ...]
    algebra2: BlockStructure
    mult2: tuple[int, ...]
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mult1", _mult_row(self.algebra1, self.mult1))
        object.__setattr__(self, "mult2", _mult_row(self.algebra2, self.mult2))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex))
        d1 = _rep_dim(self.algebra1, self.mult1)
        d2 = _rep_dim(self.algebra2, self.mult2)
        if d1 != d2:
            raise ShapeMismatchError(f"factor dimensions differ: {d1} vs {d2}")
        if not d1:
            raise ValueError("a representation pair needs a nonzero dimension")
        if self.u.shape != (d1, d1):
            raise ShapeMismatchError(f"perturbing unitary must be {d1}x{d1}, got {self.u.shape}")
        # cli.validate's bound 10 * N^2 * eps, never below 1e-12: a validated u passes.
        defect = _unitarity_defect(self.u)
        if not defect <= max(1e-12, 10.0 * default_tolerance(d1, 1.0)):
            raise ValueError(f"perturbation is not unitary (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return _rep_dim(self.algebra1, self.mult1)


def _mult_row(alg: BlockStructure, row) -> tuple[int, ...]:
    """A multiplicity row of ``alg`` as ints: one nonnegative entry per block."""
    row = _int_tuple(row)
    if len(row) != alg.num_blocks:
        raise ShapeMismatchError(
            f"expected {alg.num_blocks} multiplicities, one per block, got {len(row)}"
        )
    if min(row) < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {row}")
    return row


def _rep_dim(alg: BlockStructure, mult) -> int:
    return sum(m * n for m, n in zip(mult, alg.blocks))


def evaluate(rep: RepPair, x: FreeElement) -> np.ndarray:
    """Evaluate a free-product element under the pair perturbed by rep.u."""
    return _evaluations(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2], [x], [rep.u])[0, 0]


def _evaluations(alg1, segs1, alg2, segs2, elements, us) -> np.ndarray:
    """The elements evaluated under the pair perturbed by each u of ``us``.

    The letters of all elements are amplified over their factor's segments
    with one ``amplify`` per side, and the second-factor letters are
    conjugated by each u in one stacked product u a u*; each word is then
    multiplied out from the left, from the identity.  Returns the stack
    (len(us), len(elements), N, N).
    """
    letters = {1: [], 2: []}
    for x in elements:
        for _, word in x.terms:
            for side, value in word:
                letters[side].append(value)
    amplified = {}
    for side, alg, segs in ((1, alg1, segs1), (2, alg2, segs2)):
        s = alg.model_dim()
        for value in letters[side]:
            if value.shape != (s, s):
                raise ShapeMismatchError(f"expected {s}x{s} model elements, got {value.shape}")
        amplified[side] = amplify(np.reshape(letters[side], (-1, s, s)), alg.blocks, segs)
    dim = amplified[1].shape[-1]
    out = np.zeros((len(us), len(elements), dim, dim), dtype=complex)
    for values, u in zip(out, us):
        # the letters in the order they were collected
        images = {1: iter(amplified[1]), 2: iter(u @ amplified[2] @ u.conj().T)}
        for acc, x in zip(values, elements):
            for coeff, word in x.terms:
                m = np.eye(dim, dtype=complex)
                for side, _ in word:
                    m = m @ next(images[side])
                acc += coeff * m
    return out


def lipschitz_bound(x: FreeElement) -> float:
    """Bound L(x) with ||eval_u(x) - eval_v(x)|| <= L(x) ||u - v|| for all unitaries u, v.

    Each second-factor letter contributes a telescoping term bounded by twice
    the product of all letter norms.
    """
    total = 0.0
    for coeff, word in x.terms:
        side2 = sum(1 for letter in word if letter.side == 2)
        if side2 == 0:
            continue
        prod = 1.0
        for letter in word:
            prod *= float(np.linalg.norm(letter.value, 2))
        total += abs(coeff) * side2 * 2.0 * prod
    return total


@dataclass(frozen=True)
class RcpReport:
    """Ranks of the images of minimal central projections, one list per factor."""

    rank_lists: tuple[tuple[int, ...], ...]

    @property
    def passes(self) -> bool:
        return all(len(set(ranks)) == 1 for ranks in self.rank_lists)

    def to_json_dict(self) -> dict:
        return {"ranks": [list(r) for r in self.rank_lists], "passes": self.passes}


def rcp_check(alg: BlockStructure, mult) -> RcpReport:
    """Rank-of-central-projections check for one factor.

    The minimal central projection of block j has image rank mult(j) * n(j);
    the factor passes when these ranks are all equal.
    """
    mult = _mult_row(alg, mult)
    ranks = tuple(m * n for m, n in zip(mult, alg.blocks))
    return RcpReport((ranks,))


@dataclass(frozen=True)
class RcpBalance:
    """Outcome of balancing a representation pair to satisfy the RCP condition."""

    s: int
    qhat1: tuple[int, ...]
    qhat2: tuple[int, ...]
    copies1: int
    copies2: int
    final_mult1: tuple[int, ...]
    final_mult2: tuple[int, ...]
    final_dim: int

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "padding1": list(self.qhat1),
            "padding2": list(self.qhat2),
            "copies": [self.copies1, self.copies2],
            "final_mult1": list(self.final_mult1),
            "final_mult2": list(self.final_mult2),
            "final_dim": self.final_dim,
        }


def rcp_balance(
    alg1: BlockStructure, mult1, alg2: BlockStructure, mult2
) -> RcpBalance:
    """Pad both factor representations so the result satisfies the RCP condition.

    Per factor, with n_i the lcm of the block sizes and r_i(j) = n_i / n_i(j),
    the smallest integer s with s * r_i(j) >= mult_i(j) everywhere fixes the
    target multiplicities s * r_i(j); the two padded spaces are then equalized
    by taking copies up to the lcm of their dimensions.
    """
    mult1, mult2 = _mult_row(alg1, mult1), _mult_row(alg2, mult2)
    d1 = _rep_dim(alg1, mult1)
    d2 = _rep_dim(alg2, mult2)
    if d1 != d2:
        raise ShapeMismatchError(f"representations live on different dimensions: {d1} vs {d2}")

    ratios = []
    for alg in (alg1, alg2):
        n = math.lcm(*alg.blocks)
        ratios.append(tuple(n // b for b in alg.blocks))
    s = 1
    for mult, rs in zip((mult1, mult2), ratios):
        for m, r in zip(mult, rs):
            s = max(s, -(-m // r))  # ceil(m / r)

    padded = [tuple(s * r for r in rs) for rs in ratios]
    qhat1 = tuple(p - m for p, m in zip(padded[0], mult1))
    qhat2 = tuple(p - m for p, m in zip(padded[1], mult2))
    dims = [_rep_dim(alg, p) for alg, p in zip((alg1, alg2), padded)]
    final_dim = math.lcm(*dims)
    copies = [final_dim // d for d in dims]
    final1 = tuple(copies[0] * p for p in padded[0])
    final2 = tuple(copies[1] * p for p in padded[1])
    return RcpBalance(s, qhat1, qhat2, copies[0], copies[1], final1, final2, final_dim)


# The most bytes one decision may hold (``decision_bytes``).  ``cli.validate``
# refuses a dpi pair or a build stage past it before any search: its solve
# could not be held in memory.  The largest checked config, dpi at N = 48,
# holds about 65 MiB, and dpi at N = 96 about 1.0 GiB.
DECISION_BYTES = 4 << 30


def _totals(segs) -> tuple[int, ...]:
    """The total multiplicities of segments: their column sums."""
    return tuple(map(sum, zip(*segs)))


def _decision_size(alg1, totals1, alg2, totals2) -> tuple[bool, int]:
    """Whether ``_joint_dim_kernel`` swaps the sides, and how many matrices one item holds.

    The solve runs inside the smaller known commutant, of dimension
    d = sum M_j^2 over its factor's total multiplicities M_j, with
    e = sum M_j^2 n_j support entries; the other factor gives g units, all
    but the last diagonal one.  An item holds its draw, the unitary and its
    inverse, the g conjugated units, the system of d * g matrices and the
    copy of it that the QR makes, and, at most, the two gather temporaries
    of the system build (g * e / N matrices each) and the d x d triangle.
    The count is N x N complex matrices, from integers alone.
    """
    dim1 = sum(m * m for m in totals1)
    dim2 = sum(m * m for m in totals2)
    swap = dim1 > dim2
    if swap:
        alg1, totals1, alg2, dim1 = alg2, totals2, alg1, dim2
    n = _rep_dim(alg1, totals1)
    e = sum(m * m * b for m, b in zip(totals1, alg1.blocks))
    g = alg2.algebra_dim() - 1
    extra = -(-(2 * g * e * n + dim1 * dim1) // (n * n))
    return swap, DRAW_MATRICES + 2 + g + 2 * dim1 * g + extra


def decision_bytes(alg1, segs1, alg2, segs2) -> int:
    """Bytes one item of the pair's decision holds: 16 N^2 per matrix of ``_decision_size``."""
    totals1 = _totals(segs1)
    n = _rep_dim(alg1, totals1)
    return 16 * n * n * _decision_size(alg1, totals1, alg2, _totals(segs2))[1]


def _joint_dim_kernel(alg1, segs1, alg2, segs2):
    """The stacked decision u -> dimension of the commutant of A1 together with u A2 u^-1.

    Both factors are amplified over their segments.  The solve runs inside
    the smaller of the two known amplified commutants (the sides are
    swapped when A2' is the smaller, not on a tie).  Inside A1' the
    unknown X must commute with u g u^-1 for the units g of A2; inside A2'
    the unknown u^-1 X u must commute with u^-1 g u for the units g of A1,
    which gives the same dimension.  The inverse is used, not u*: a u that is
    unitary only to within validate's bound still maps the units onto an
    exactly similar algebra (u I u^-1 = I, idempotents stay idempotent), so
    its unitarity defect does not land in the stability band of the rank
    decision.  The units g are scattered from A2's layout (``UnitLayout``),
    and the last, a diagonal unit, is left out: the units sum to the
    identity, which commutes with everything.  The commutant and the unit
    stack depend only on the layout, so they are built once, here.

    Returns ``(decide, stack)``.  ``decide`` takes a stack of unitaries
    (k, N, N) and forms the inverses, the conjugated units and the gathered
    commutant systems of all k at once, with one QR and one values-only SVD
    (``commutant_basis``); it yields the k dimensions in index order, each
    decided only when reached.  ``stack`` is the most items one call should
    take: ``stack_size`` caps the stack at CHUNK_BYTES, counting the
    matrices of an item by ``_decision_size``.
    """
    swap, matrices = _decision_size(alg1, _totals(segs1), alg2, _totals(segs2))
    if swap:
        alg1, segs1, alg2, segs2 = alg2, segs2, alg1, segs1
    within = amplified_commutant(alg1.blocks, segs1)
    layout = UnitLayout.of_copies(_copy_indices(alg2.blocks, segs2))
    copies, n = layout.copies[:-1], layout.n
    units = np.zeros((len(copies), n * n), dtype=complex)
    units[np.repeat(np.arange(len(copies)), copies), layout.support[: copies.sum()]] = 1.0
    units = units.reshape(-1, n, n)

    def decide(us):
        u, inv = us[:, None], np.linalg.inv(us)[:, None]
        gens = inv @ units @ u if swap else u @ units @ inv
        return commutant_basis(gens, within)

    return decide, stack_size(matrices, within.n)


def joint_commutant_dim(rep: RepPair) -> int:
    """Dimension of the commutant of the union of both perturbed factor images."""
    decide, _ = _joint_dim_kernel(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2])
    return next(decide(rep.u[None]))


def dpi_probe(
    rep: RepPair,
    samples: int,
    seed: int,
    local_radius: float | None = None,
) -> DensityStats:
    """Sample perturbations w on top of rep.u and tally joint commutant dimensions.

    Each draw of ``sample_dims`` (a Haar unitary, or a local step of
    ``local_radius`` about the identity) is composed as w @ rep.u, so local
    perturbations stay near rep.u.  The product is not checked for unitarity
    again: its rounding can carry a u at the edge of RepPair's bound past it.
    trivial_count counts the irreducible outcomes.  A radius below resolution
    at the pair's dimension (``numeric._radius_unresolved``) raises ValueError.
    """
    if local_radius is not None and (unresolved := _radius_unresolved(rep.dim, local_radius)):
        raise ValueError(unresolved)
    decide, stack = _joint_dim_kernel(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2])
    draws = sample_dims(rep.dim, samples, seed, local_radius, lambda ws: decide(ws @ rep.u), stack)
    dims = tuple(d for _, d in draws)
    return DensityStats(dims, seed, local_radius, None if local_radius is None else rep.u)


class StageLayout(NamedTuple):
    """The pair after one stage of a build: its segments, dimensions and RCP padding."""

    index: int  # 1-based
    segs1: list[tuple[int, ...]]
    segs2: list[tuple[int, ...]]
    earlier: int  # the dimension before the stage
    dim: int
    balance: RcpBalance | None


def stage_layouts(alg1: BlockStructure, alg2: BlockStructure, stages):
    """The integer bookkeeping of ``staged_build``, stage by stage, with no search.

    The pair is kept as segments: the rows of each stage that places blocks
    and of each padding, whose column sums are the total multiplicities.  A
    stage that adds no dimension writes no segment.  When the cumulative
    pair fails the RCP condition it is padded (``rcp_balance``).  The
    segment lists are grown in place and yielded after every stage.  Raises
    ShapeMismatchError or ValueError for a malformed multiplicity row, and
    ValueError for an empty first stage.
    """
    segs1: list[tuple[int, ...]] = []
    segs2: list[tuple[int, ...]] = []
    dim = 0
    for k, (m1, m2) in enumerate(stages, start=1):
        m1, m2 = _mult_row(alg1, m1), _mult_row(alg2, m2)
        add1, add2 = _rep_dim(alg1, m1), _rep_dim(alg2, m2)
        if add1 != add2:
            raise ShapeMismatchError(
                f"stage {k} factor dimensions differ: {add1} vs {add2}"
            )
        if add1:  # a stage that adds no dimension places no block: no segment
            segs1.append(m1)
            segs2.append(m2)
        elif k == 1:
            raise ValueError("the first stage must have a nonzero dimension")
        earlier = dim
        dim += add1

        total1, total2 = _totals(segs1), _totals(segs2)
        balance = None
        if not (rcp_check(alg1, total1).passes and rcp_check(alg2, total2).passes):
            balance = rcp_balance(alg1, total1, alg2, total2)
            pad1 = tuple(f - t for f, t in zip(balance.final_mult1, total1))
            pad2 = tuple(f - t for f, t in zip(balance.final_mult2, total2))
            if any(pad1):
                segs1.append(pad1)
            if any(pad2):
                segs2.append(pad2)
            dim = balance.final_dim
        yield StageLayout(k, segs1, segs2, earlier, dim, balance)


@dataclass(frozen=True)
class Stage:
    """One stage of the irreducible staged construction."""

    index: int
    dim: int
    u: np.ndarray
    bound: float  # operator norm distance of u from the identity
    tries: int
    irreducible: bool
    balance: RcpBalance | None
    probe_residuals: tuple[float, ...]
    probe_bounds: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "stage": self.index,
            "dim": self.dim,
            "u_norm": self.bound,
            "tries": self.tries,
            "irreducible": self.irreducible,
            "balance": None if self.balance is None else self.balance.to_json_dict(),
            "probe_residuals": list(self.probe_residuals),
            "probe_bounds": list(self.probe_bounds),
        }


@dataclass(frozen=True)
class StagedBuild:
    """Result of the staged construction: stages, budgets, and cumulative perturbations."""

    epsilon: float
    seed: int
    stages: tuple[Stage, ...]
    cumulative: tuple[np.ndarray, ...]

    @property
    def total_bound(self) -> float:
        return sum(stage.bound for stage in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "seed": self.seed,
            "total_perturbation": self.total_bound,
            "stages": [stage.to_json_dict() for stage in self.stages],
        }


def staged_build(
    alg1: BlockStructure,
    alg2: BlockStructure,
    stages: list[tuple[tuple[int, ...], tuple[int, ...]]],
    epsilon: float,
    probe: list[FreeElement],
    seed: int,
    max_tries: int = 128,
) -> StagedBuild:
    """Direct-sum the given representation stages, perturbing each into irreducibility.

    At stage k the budget for the new perturbation is epsilon / ((k+1)(k+2)):
    the budgets sum to less than epsilon / 2, and after 1,000 stages a
    budget is still about 1e-6 epsilon, which a rank decision resolves.  A
    stage that adds dimension builds its kernel once, here.  Only stage 1
    decides the identity, the one place it can be irreducible; later the
    identity keeps the earlier pair as a direct summand.  When it is not
    irreducible, ``_search_stage_unitary`` tries random local unitaries.
    A stage that adds no dimension has the segments and the cumulative
    unitary of the stage before, a pair already decided irreducible.  It
    shares the default of an irreducible stage-1 identity: u_k is the
    identity with no tries, and nothing is decided.  The pair of each stage,
    padded when it fails the RCP condition, comes from ``stage_layouts``
    before its search.  Each stage checks, on the probe set, that the new
    evaluation moved by at most the Lipschitz bound times the perturbation
    size.  Raises SearchExhaustedError when a stage finds no irreducible
    perturbation within max_tries, ShapeMismatchError or ValueError for a
    malformed multiplicity row, and ValueError for an empty first stage, for
    max_tries < 1 or for an epsilon not positive and finite (or too small).
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not stages:
        raise ValueError("need at least one stage")
    if max_tries < 1:
        raise ValueError("max_tries must be at least 1")
    if underflow := epsilon_underflow(epsilon, stages):
        raise ValueError(underflow)

    lipschitz = [lipschitz_bound(x) for x in probe]
    cumulative_u = np.zeros((0, 0), dtype=complex)
    built_stages: list[Stage] = []
    cumulative: list[np.ndarray] = []

    for k, segs1, segs2, earlier, dim, balance in stage_layouts(alg1, alg2, stages):
        prev_u = _extend(cumulative_u, dim)
        u_k, tries = np.eye(dim, dtype=complex), 0
        if dim > earlier:
            decide, cap = _joint_dim_kernel(alg1, segs1, alg2, segs2)
            best = next(decide(prev_u[None])) if k == 1 else math.inf
            if best > 1:
                u_k, tries, best = _search_stage_unitary(
                    decide, cap, prev_u, stage_budget(epsilon, k), seed, k, max_tries, best
                )
                if u_k is None:
                    raise SearchExhaustedError(k, dim, best, tries)

        new_u = u_k @ prev_u
        bound = float(np.linalg.norm(u_k - np.eye(dim), 2))
        residuals, bounds = _probe_consistency(
            alg1, segs1, alg2, segs2, new_u, prev_u, probe, lipschitz, bound
        )
        built_stages.append(
            Stage(k, dim, u_k, bound, tries, True, balance, residuals, bounds)
        )
        cumulative.append(new_u)
        cumulative_u = new_u

    return StagedBuild(epsilon, seed, tuple(built_stages), tuple(cumulative))


def stage_budget(epsilon: float, k: int) -> float:
    """The perturbation budget epsilon / ((k+1)(k+2)) of stage k."""
    return epsilon / ((k + 1) * (k + 2))


def epsilon_underflow(epsilon: float, stages) -> str | None:
    """Why epsilon is too small, or None: the last nonzero stage's search radius must be normal."""
    k = max((k for k, rows in enumerate(stages, 1) if any(map(any, rows))), default=0)
    if k and (radius := stage_budget(epsilon, k) / 2) < sys.float_info.min:
        return (f"epsilon {epsilon!r} is too small: stage {k} searches at radius {radius!r}, "
                f"below the smallest normal float {sys.float_info.min!r}")
    return None


def _extend(u: np.ndarray, dim: int) -> np.ndarray:
    """Direct sum of the square u with the identity, of total size dim."""
    out = np.eye(dim, dtype=complex)
    out[: u.shape[0], : u.shape[0]] = u
    return out


def _search_stage_unitary(decide, cap, prev_u, budget, seed, stage, max_tries, best):
    """Find u with ||u - I|| < budget for which ``decide`` finds u @ prev_u irreducible.

    Every attempt is a local step of radius budget / 2 about the identity,
    attempt a from the stream (seed, stage, a) of ``sample_dims``, which
    decides the attempts in stacks of 1, 2, 4, ... (at most ``cap``).  The
    first success in attempt order ends the search; the attempts after it
    in its stack are never decided.  ``best`` is the smallest commutant
    dimension seen before the search.  Returns (unitary or None, tries
    used, best commutant dimension seen).
    """
    attempts = sample_dims(
        len(prev_u), max_tries, seed, budget / 2, lambda ws: decide(ws @ prev_u), cap, (stage,)
    )
    for tries, (w, d) in enumerate(attempts, start=1):
        best = min(best, d)
        if d == 1:
            return w, tries, 1
    return None, max_tries, best


def _probe_consistency(alg1, segs1, alg2, segs2, new_u, prev_u, probe, lipschitz, bound):
    """Check each probe element moved by at most its Lipschitz bound times ||u_k - I||.

    The probe set is evaluated after and before with one ``_evaluations``,
    and the moves are measured with one stacked operator norm.
    """
    after, before = _evaluations(alg1, segs1, alg2, segs2, probe, [new_u, prev_u])
    moved = np.linalg.norm(after - before, 2, axis=(1, 2)).tolist()
    bounds = [lip * bound for lip in lipschitz]
    for move, allowed in zip(moved, bounds):
        if move > allowed + 1e-9:
            raise NumericalInstabilityError(
                "probe element moved beyond its Lipschitz bound", move - allowed
            )
    return tuple(moved), tuple(bounds)
