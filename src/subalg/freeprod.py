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
DPI decides its draws a stack at a time; the staged search decides its
attempts in stacks of 1, 2, 4, ... and stops at the first success in attempt
order, never deciding the attempts after it.  A stage that enlarges an
earlier pair decides the identity only once its attempts are exhausted: the
identity keeps that pair as a direct summand, which is never irreducible.
A fixed byte budget (``numeric.STACK_BYTES``) caps every stack, down to one
item when a single system is larger, and results are bit-identical to
deciding one unitary at a time.  The probe check of a stage amplifies the
probe letters once per side and measures every move with one stacked norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import BlockStructure
from .errors import NumericalInstabilityError, SearchExhaustedError, ShapeMismatchError
from .numeric import (
    DRAW_MATRICES,
    DensityStats,
    amplified_commutant,
    amplify,
    commutant_basis,
    default_tolerance,
    local_unitaries,
    model_matrix_units,
    sample_dims,
    sample_stream,
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
    """Representations of the two factors on a common space, with a perturbing unitary."""

    algebra1: BlockStructure
    mult1: tuple[int, ...]
    algebra2: BlockStructure
    mult2: tuple[int, ...]
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mult1", tuple(int(m) for m in self.mult1))
        object.__setattr__(self, "mult2", tuple(int(m) for m in self.mult2))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex))
        d1 = _rep_dim(self.algebra1, self.mult1)
        d2 = _rep_dim(self.algebra2, self.mult2)
        if d1 != d2:
            raise ShapeMismatchError(f"factor dimensions differ: {d1} vs {d2}")
        if self.u.shape != (d1, d1):
            raise ShapeMismatchError(f"perturbing unitary must be {d1}x{d1}, got {self.u.shape}")
        # cli.validate's bound 10 * N^2 * eps, never below 1e-12: a validated u passes.
        defect = np.linalg.norm(self.u.conj().T @ self.u - np.eye(d1))
        if defect > max(1e-12, 10.0 * default_tolerance(d1, 1.0)):
            raise ValueError(f"perturbation is not unitary (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return _rep_dim(self.algebra1, self.mult1)

    def factor(self, side: int, a: np.ndarray) -> np.ndarray:
        """Image of a block-model element under the (unperturbed) factor representation."""
        alg, mult = (self.algebra1, self.mult1) if side == 1 else (self.algebra2, self.mult2)
        return amplify(a, alg.blocks, [mult])


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
    mult = tuple(int(m) for m in mult)
    if len(mult) != alg.num_blocks:
        raise ShapeMismatchError("multiplicity row length does not match block count")
    ranks = tuple(m * n for m, n in zip(mult, alg.blocks))
    return RcpReport((ranks,))


def pad_multiplicities(mult, q) -> tuple[int, ...]:
    """Entrywise sum of a multiplicity row and a padding row of the same length."""
    mult, q = tuple(mult), tuple(q)
    if len(mult) != len(q):
        raise ShapeMismatchError(f"length mismatch: {len(mult)} vs {len(q)}")
    if any(v < 0 for v in q):
        raise ValueError("padding must be nonnegative")
    return tuple(int(m) + int(v) for m, v in zip(mult, q))


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
    mult1, mult2 = tuple(int(m) for m in mult1), tuple(int(m) for m in mult2)
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


def _segment_generators(alg: BlockStructure, segments) -> np.ndarray:
    """Stack of the matrix units of alg, amplified over the multiplicity-row segments."""
    return amplify(model_matrix_units(alg), alg.blocks, segments)


def _joint_dim_kernel(alg1, segs1, alg2, segs2, tol):
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
    decision.  The last diagonal unit is left out: the units sum to the
    identity, which commutes with everything.  The commutant and the unit
    stack depend only on the layout, so they are built once, here.

    Returns ``(decide, stack)``.  ``decide`` takes a stack of unitaries
    (k, N, N) and forms the inverses, the conjugated units and the gathered
    commutant systems of all k at once, with one QR and one values-only SVD
    (``commutant_basis``); it yields the k dimensions in index order, each
    decided only when reached.  ``stack`` is the most items one call should
    take: each item holds its draw, the unitary and its inverse, the g
    conjugated units, the system of d * g matrices and the copy of it that
    the QR makes, and, at most, the two gather temporaries of the system
    build (g * e / N matrices each, for the e basis entries of the known
    commutant) and the d x d triangle; ``stack_size`` caps the stack at a
    fixed byte budget.
    """
    dim1 = sum(m * m for m in _total_mult(segs1, alg1.num_blocks))
    dim2 = sum(m * m for m in _total_mult(segs2, alg2.num_blocks))
    swap = dim1 > dim2
    if swap:
        alg1, segs1, alg2, segs2 = alg2, segs2, alg1, segs1
    within = amplified_commutant(alg1.blocks, segs1)
    units = _segment_generators(alg2, segs2)[:-1]

    def decide(us):
        u, inv = us[:, None], np.linalg.inv(us)[:, None]
        gens = inv @ units @ u if swap else u @ units @ inv
        return commutant_basis(gens, within, tol)

    g, d, n = len(units), within.dimension, within.ambient_dim
    extra = -(-(2 * g * len(within.element) * n + d * d) // (n * n))
    return decide, stack_size(DRAW_MATRICES + 2 + g + 2 * d * g + extra, n)


def joint_commutant_dim(rep: RepPair, tol: float | None = None) -> int:
    """Dimension of the commutant of the union of both perturbed factor images."""
    decide, _ = _joint_dim_kernel(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2], tol)
    return next(decide(rep.u[None]))


def dpi_probe(
    rep: RepPair,
    samples: int,
    seed: int,
    local_radius: float | None = None,
    tol: float | None = None,
) -> DensityStats:
    """Sample perturbations w on top of rep.u and tally joint commutant dimensions.

    Each draw of ``sample_dims`` (a Haar unitary, or a local step of
    ``local_radius`` about the identity) is composed as w @ rep.u, so local
    perturbations stay near rep.u.  The product is not checked for unitarity
    again: its rounding can carry a u at the edge of RepPair's bound past it.
    trivial_count counts the irreducible outcomes.
    """

    decide, stack = _joint_dim_kernel(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2], tol)
    dims = sample_dims(
        rep.dim, samples, seed, local_radius, lambda ws: decide(ws @ rep.u), stack
    )
    return DensityStats(dims, seed, local_radius, None if local_radius is None else rep.u)


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
    tol: float | None = None,
) -> StagedBuild:
    """Direct-sum the given representation stages, perturbing each into irreducibility.

    At stage k the budget for the new perturbation is epsilon / 2^(k+1); the
    search tries random local unitaries whose radius halves after every 32
    failed tries.  The identity is tried before them at stage 1 and at a
    stage that adds no dimension, and otherwise only after they are
    exhausted: it keeps the earlier pair as a direct summand.  When the
    cumulative pair fails the RCP condition it is padded (rcp_balance) before
    searching.  Each stage checks, on the probe set, that the new evaluation
    moved by at most the Lipschitz bound times the perturbation size.
    Raises SearchExhaustedError when a stage finds no irreducible
    perturbation within max_tries.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not stages:
        raise ValueError("need at least one stage")

    lipschitz = [lipschitz_bound(x) for x in probe]
    segs1: list[tuple[int, ...]] = []
    segs2: list[tuple[int, ...]] = []
    dim = 0
    cumulative_u = np.zeros((0, 0), dtype=complex)
    built_stages: list[Stage] = []
    cumulative: list[np.ndarray] = []

    for k, (m1, m2) in enumerate(stages, start=1):
        m1 = tuple(int(v) for v in m1)
        m2 = tuple(int(v) for v in m2)
        add1, add2 = _rep_dim(alg1, m1), _rep_dim(alg2, m2)
        if add1 != add2:
            raise ShapeMismatchError(
                f"stage {k} factor dimensions differ: {add1} vs {add2}"
            )
        segs1.append(m1)
        segs2.append(m2)
        earlier = dim
        dim += add1
        prev_u = _extend(cumulative_u, dim)

        total1 = _total_mult(segs1, alg1.num_blocks)
        total2 = _total_mult(segs2, alg2.num_blocks)
        balance = None
        pair_ok = rcp_check(alg1, total1).passes and rcp_check(alg2, total2).passes
        if not pair_ok:
            balance = rcp_balance(alg1, total1, alg2, total2)
            pad1 = tuple(f - t for f, t in zip(balance.final_mult1, total1))
            pad2 = tuple(f - t for f, t in zip(balance.final_mult2, total2))
            if any(pad1):
                segs1.append(pad1)
            if any(pad2):
                segs2.append(pad2)
            prev_u = _extend(prev_u, balance.final_dim)
            dim = balance.final_dim

        # The identity keeps an earlier pair that this stage enlarges as a
        # direct summand, which is never irreducible: it is decided last.
        identity_first = earlier == 0 or dim == earlier
        budget = epsilon / 2 ** (k + 1)
        u_k, tries, best = _search_stage_unitary(
            alg1, segs1, alg2, segs2, prev_u, dim, budget, seed, k, max_tries, tol,
            identity_first,
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


def _extend(u: np.ndarray, dim: int) -> np.ndarray:
    """Direct sum of the square u with the identity, of total size dim."""
    out = np.eye(dim, dtype=complex)
    out[: u.shape[0], : u.shape[0]] = u
    return out


def _total_mult(segments, width: int) -> tuple[int, ...]:
    total = [0] * width
    for row in segments:
        for j, m in enumerate(row):
            total[j] += m
    return tuple(total)


def _search_stage_unitary(
    alg1, segs1, alg2, segs2, prev_u, dim, budget, seed, stage, max_tries, tol, identity_first
):
    """Find u with ||u - I|| < budget making the cumulative pair irreducible.

    Tries the identity first when ``identity_first``, then random directions:
    attempt a draws from the stream (seed, stage, a) at a radius that starts
    at half the budget and is halved after every 32 attempts (down to 0.0,
    never overflowing, however many attempts are allowed).  The attempts are
    decided in stacks of 1, 2, 4, ... (at most the kernel's stack size), and
    the first success in attempt order ends the search; the attempts after
    it in its stack are never decided.  Without ``identity_first`` the
    identity is decided only when the attempts are exhausted, so the best
    dimension still counts it.  Returns (unitary or None, tries used, best
    commutant dimension seen).
    """

    decide, cap = _joint_dim_kernel(alg1, segs1, alg2, segs2, tol)
    eye = np.eye(dim, dtype=complex)
    best = math.inf
    if identity_first:
        best = next(decide(prev_u[None]))
        if best == 1:
            return eye, 0, 1
    start, size, radius = 0, 1, budget / 2.0
    while start < max_tries:
        attempts = range(start, min(start + size, start + cap, max_tries))
        radii = []
        for a in attempts:
            radii.append(radius)
            if (a + 1) % 32 == 0:
                radius /= 2.0
        ws = local_unitaries(eye, radii, [sample_stream(seed, stage, a) for a in attempts])
        for attempt, w, d in zip(attempts, ws, decide(ws @ prev_u)):
            best = min(best, d)
            if d == 1:
                return w, attempt + 1, 1
        start, size = attempts.stop, 2 * size
    if not identity_first:
        best = min(best, next(decide(prev_u[None])))
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
