"""Concrete matrix realizations, random unitaries, and numerical intersection experiments.

Subalgebras of M_N are materialized as orthonormal matrix bases under the
trace inner product.  One layout (``UnitLayout``) says where the 0/1 units
of an amplified block algebra A = sum_j M_{n_j} tensor 1_{M_j} sit, from
the copy indices ``amplify`` scatters through; its commutant
A' = sum_j 1_{n_j} tensor M_{M_j} is the same layout of the transposed copy
indices.  A realization is the Hermitian basis scattered from a layout;
``conjugate`` forms the basis u B u* of u A u* at once.
Commutant dimensions are the nullities of stacked commutator systems inside
a known commutant, whose units are partial permutations: the systems are
gathered from rows and columns of the generators, with no product formed.
``intersect(a, b, u)`` takes u as an argument and conjugates the smaller
side, a chunk of elements at a time (CHUNK_BYTES); dim(a meet u b u*) is the
nullity of the residual of that side against the larger, read by gathers
in real coordinates of the larger side's complement.  Every
rank decision is made from one SVD at a scale-aware tolerance with a
built-in stability check (``_stable_rank``): if shrinking or growing the
tolerance tenfold changes the decision, a NumericalInstabilityError is
raised instead of guessing.  Intersection and commutant dimensions are
nullities read off the singular values alone (``_nullities``): no singular
factor and no basis of the answer is formed.

Random unitaries and commutant dimensions are also made in stacks (k, N, N):
one stacked QR, eigendecomposition or SVD serves the k items, running the
same LAPACK call on each as on one matrix, so a stacked result is
bit-identical to the items made one at a time.  The rank decisions then
take the items in index order, each only when it is reached.  One sampler,
``sample_dims``, draws every Monte-Carlo unitary in stacks of 1, 2, 4, ...
items, as many as fit in CHUNK_BYTES (``stack_size``), never less than one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import EmbeddedAlgebra, MultiplicityMatrix
from .errors import NumericalInstabilityError, ShapeMismatchError

EPS = float(np.finfo(np.float64).eps)

# The one working-set budget, in bytes of N x N complex matrices: a chunk of
# conjugated basis elements (``intersect``) or of closure products
# (ConcreteRealization.closure_defect, which no command calls), or a stack of
# draws and decisions (``stack_size``).  A stacked decision costs less per
# item only up to about 128 KiB an item, so an item past half the budget (a
# dpi or search decision from about N = 16 on) is decided alone.
CHUNK_BYTES = 1 << 20

# N x N complex matrices one draw holds at the peak of a stack of draws
# (sample_dims): the Ginibre stack, its skew copy, the factors of the QR or
# the eigendecomposition, and the draw of the stack before.
DRAW_MATRICES = 8


def default_tolerance(n: int, smax: float) -> float:
    """Scale-aware rank cutoff: N^2 * machine epsilon * largest singular value."""
    return n * n * EPS * max(smax, 1.0)


def _unitarity_defect(m: np.ndarray) -> float:
    """||M*M - I||_F; NaN or infinite, with no warning, when an entry is not finite or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # refuse it with not defect <= bound
        return float(np.linalg.norm(m.conj().T @ m - np.eye(len(m))))


def _check_unitary(m: np.ndarray, n: int, what: str) -> None:
    """Refuse ``m`` unless it is an n x n unitary to within max(1e-12, 10 N^2 eps).

    That is cli.validate's bound 10 N^2 eps, never below 1e-12, so a
    validated matrix passes.  A wrong shape raises ShapeMismatchError, and a
    non-finite or non-unitary matrix ValueError.
    """
    if np.shape(m) != (n, n):
        raise ShapeMismatchError(f"{what} must be {n}x{n}, got {np.shape(m)}")
    defect = _unitarity_defect(m)
    if not defect <= max(1e-12, 10.0 * default_tolerance(n, 1.0)):
        raise ValueError(f"{what} is not unitary (defect {defect:.3e})")


def sample_stream(master_seed: int, *key: int) -> np.random.Generator:
    """RNG stream derived from a master seed and an integer key path.

    Per-sample streams use the key (index,), staged-search attempts the key
    (stage, attempt).  Streams depend only on (master_seed, key), so results
    are identical no matter how the work is scheduled.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def _triangle(m: np.ndarray) -> np.ndarray:
    """m itself, or the square R of m = QR when m (or a stack of m) is tall.

    Q has orthonormal columns, so R has the singular values and the right
    singular vectors of m, and no rows x rows left factor is ever formed.  A
    stack of matrices (k, rows, cols) takes one stacked QR, which runs the
    same LAPACK call on each item as on a matrix alone.
    """
    if m.shape[-2] > m.shape[-1]:
        m = np.linalg.qr(m, mode="r")
    return m


def _stable_rank(s: np.ndarray, n: int, what: str) -> int:
    """The rank of one system from its singular values ``s`` (descending), at a stable cutoff.

    The rank counts singular values above the cutoff
    ``default_tolerance(n, s_max)`` and must not change at a tenth or ten
    times it.  All three cutoffs are clamped below at the noise floor
    8 * max(n, 4) * eps * max(s_max, 1): the unit scale of the inputs, so a
    system of pure rounding noise (s_max near eps) has a floor too, times a
    size that grows like the rounding of products of n x n unitaries.
    Values underneath it are exact zeros and cannot make a decision ambiguous.
    """
    scale = max(float(s[0]), 1.0)
    cutoff = default_tolerance(n, scale)
    floor = 8.0 * max(n, 4) * EPS * scale
    lo_cut, hi_cut = max(cutoff / 10.0, floor), max(10.0 * cutoff, floor)
    ambiguous = s[(s > lo_cut) & (s <= hi_cut)]
    if ambiguous.size:
        raise NumericalInstabilityError(
            f"rank decision for {what} is unstable at tolerance {cutoff:.3e}",
            float(ambiguous.max()),
        )
    return int(np.count_nonzero(s > max(cutoff, floor)))


def _nullities(systems: np.ndarray, n: int, what: str):
    """Per system of a stack (k, rows, cols), the dimension of its nullspace.

    Decided at the stable rank (``_stable_rank``) from the singular values
    alone: ``np.linalg.svd(..., compute_uv=False)`` of the QR triangle forms
    no singular factor.  The result is an iterator in index order, each item
    decided, and raising, only when it is reached.
    """
    cols = systems.shape[-1]
    s = np.linalg.svd(_triangle(systems), compute_uv=False)
    return (cols - _stable_rank(si, n, what) for si in s)


@dataclass(frozen=True, eq=False)
class UnitLayout:
    """Where the 0/1 units of a block algebra or its commutant sit in the flat N x N matrix.

    Unit k is supported on ``copies[k]`` flat indices, listed unit by unit
    in ``support``; distinct units have disjoint supports, and
    ``partner[k]`` is the unit supported on the transpose of unit k's
    support (k itself for a diagonal unit).  Every layout is built by
    ``of_copies``, one run of blocks of equal shape at a time, and a
    residual is read against it in the coordinates of its complement
    (``complement_coordinates``), where a unit with several copies counts
    its entries less their mean.
    """

    n: int
    support: np.ndarray
    copies: np.ndarray
    partner: np.ndarray

    @classmethod
    def of_copies(cls, idx) -> UnitLayout:
        """The layout of the units (j; p, q) of blocks placed at the copy indices ``idx``.

        ``idx[j]`` is a (copies, n_j) array that ascends along both axes
        (``_copy_indices``).  Unit (j; p, q), blocks in order and p, q < n_j
        row-major, is supported on idx[j][c, p] N + idx[j][c, q] over its
        copies c, in ascending order, so it lies above the diagonal exactly
        when p < q; its partner is (j; q, p), and N is the number of indices.
        Consecutive blocks of one shape are laid out together, as a run.  A
        realization takes the copy indices of its blocks, and the commutant
        of their amplification each idx[j].T (``amplified_commutant``).
        """
        n = sum(i.size for i in idx)
        support, copies, partner = [], [], []
        for (m, size), run in itertools.groupby(idx, key=np.shape):
            i = np.stack(list(run))
            support.append((i[..., :, None] * n + i[..., None, :]).transpose(0, 2, 3, 1).ravel())
            units = len(i) * size * size
            copies.append(np.full(units, m))
            grid = np.arange(units).reshape(len(i), size, size) + sum(map(len, partner))
            partner.append(grid.transpose(0, 2, 1).ravel())
        return cls(n, *map(np.concatenate, (support, copies, partner)))

    @property
    def dimension(self) -> int:
        return len(self.copies)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Indices of the units on the diagonal (their own partners)."""
        return np.flatnonzero(self.partner == np.arange(len(self.partner)))

    @cached_property
    def upper(self) -> np.ndarray:
        """Indices of the units above the diagonal: the unit (j; p, q), p < q, of each pair."""
        return np.flatnonzero(np.arange(self.dimension) < self.partner)

    @cached_property
    def _complement_gathers(self):
        """Columns of the float64 view of a flat stack that carry the complement coordinates.

        In that view the real and imaginary parts of flat entry f are columns
        2f and 2f + 1.  Returns the columns of the off-pattern entries above
        the diagonal, and per copy count m >= 2 the (m, parts) columns of the
        copies of the unit parts with their scales: the real part of each
        diagonal unit, and the real and the imaginary part of each unit above
        the diagonal.
        """
        n = self.n
        covered = np.zeros(n * n, dtype=bool)
        covered[self.support] = True
        row, col = np.triu_indices(n, 1)
        off = row * n + col
        off = off[~covered[off]]
        starts = np.cumsum(self.copies) - self.copies
        groups = []
        for m in np.unique(self.copies[self.copies > 1]):
            diag = self.diagonal[self.copies[self.diagonal] == m]
            upper = self.upper[self.copies[self.upper] == m]
            on_diag = self.support[starts[diag] + np.arange(m)[:, None]]
            above = self.support[starts[upper] + np.arange(m)[:, None]]
            cols = np.concatenate([2 * on_diag, 2 * above, 2 * above + 1], axis=1)
            scale = np.concatenate([np.ones(len(diag)), np.full(2 * len(upper), np.sqrt(2.0))])
            groups.append((cols, scale))
        return np.concatenate([2 * off, 2 * off + 1]), groups

    @cached_property
    def _commutator_gathers(self):
        """Indices of the gathered commutator system inside the span (``_commutator_system``).

        Element k is unit k times 1/sqrt(copies[k]).  For an entry of it at
        (r, c), E_k A takes row c of A to row r, and A E_k takes column r of
        A to column c.  Returns, for both, the destinations in the flat
        (N^2, d) system and the sources in the flat A, and their scales.
        """
        n, d = self.n, self.dimension
        line = np.arange(n)
        unit = np.repeat(np.arange(d), self.copies)[:, None]
        row, col = np.divmod(self.support[:, None], n)
        scale = np.repeat(1.0 / np.sqrt(self.copies), self.copies * n)
        return (
            ((row * n + line) * d + unit).ravel(), (col * n + line).ravel(),
            ((line * n + col) * d + unit).ravel(), (line * n + row).ravel(), scale,
        )

    def complement_coordinates(self, herm: np.ndarray) -> np.ndarray:
        """Real isometric coordinates of the residuals of Hermitian rows against the span.

        ``herm`` is a d x N^2 stack of flattened Hermitian matrices X.  The
        span is *-closed, so the residual of X is Hermitian and is read off
        the entries on and above the diagonal: sqrt(2) Re and sqrt(2) Im of
        each off-pattern entry above the diagonal (the diagonal lies in the
        pattern, as the span holds the identity), and the entries of each
        unit with m >= 2 copies less their mean over the copies, real for a
        diagonal unit and split into sqrt(2) Re and sqrt(2) Im above the
        diagonal.  That is N^2 - dim coordinates plus one per such unit
        part, and their Euclidean norm is the trace norm of the residual.
        """
        f = herm.view(np.float64)
        off, groups = self._complement_gathers
        coords = f[:, off]
        coords *= np.sqrt(2.0)
        if not groups:
            return coords
        parts = [coords]
        for cols, scale in groups:
            copies = f[:, cols] * scale
            copies -= copies.mean(axis=1, keepdims=True)
            parts.append(copies.reshape(len(f), -1))
        return np.concatenate(parts, axis=1)


@dataclass
class ConcreteRealization:
    """A numerically materialized subalgebra of M_N.

    Its ``basis`` is a stack of N x N complex matrices orthonormal under the
    trace inner product; it also generates the algebra, and the identity
    always lies in the span.  ``layout`` is set when the basis is the
    Hermitian recombination of the matrix units it records
    (``_realization``); such a basis is Hermitian.
    """

    ambient_dim: int
    basis: np.ndarray
    layout: UnitLayout | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def project_residual(self, mats: np.ndarray) -> np.ndarray:
        """Frobenius distance of each given matrix from the span of the basis."""
        n = self.ambient_dim
        flat = mats.reshape(mats.shape[0], n * n)
        bflat = self.basis.reshape(self.dimension, n * n)
        res = (flat @ bflat.conj().T) @ bflat
        res -= flat
        return np.linalg.norm(res, axis=1)

    def closure_defect(self) -> float:
        """Largest residual of adjoints and pairwise products outside the span.

        No command calls it: the tests' dense intersection oracle checks its
        meets with it, and perfbench's tracer binds the name.  The adjoints
        are checked at once, and the products a few left factors at a time,
        as many as keep a chunk's products within CHUNK_BYTES (at least one
        left factor), with the running maximum kept: memory grows like
        CHUNK_BYTES, not like all d^2 products.  An intersection of
        dimension up to 16 at N = 16 is one chunk, and M24 + M24 against its
        conjugate at N = 48 (d = 24) takes a chunk per left factor.
        """
        n, d = self.ambient_dim, self.dimension
        worst = float(self.project_residual(np.swapaxes(self.basis.conj(), 1, 2)).max())
        step = max(1, CHUNK_BYTES // (16 * n * n * d))
        for start in range(0, d, step):
            prods = self.basis[start : start + step, None] @ self.basis[None]
            worst = max(worst, float(self.project_residual(prods.reshape(-1, n, n)).max()))
        return worst


def amplify(a: np.ndarray, blocks, rows) -> np.ndarray:
    """Block-diagonal amplification of a stack of block-model elements.

    ``a`` has shape (..., s, s), s the sum of ``blocks``.  Every nonzero
    entry m = row[j] of every multiplicity row, rows in order, appends the
    block a_j tensor I_m to the diagonal of the output (zero entries are
    skipped).  Each block a_j is scattered through its copy indices
    (``_copy_indices``), copy c of a_j[p, q] to (idx[j][c, p], idx[j][c, q]),
    so every entry is a copy of an entry of ``a`` or zero.
    """
    blocks = tuple(blocks)
    s = sum(blocks)
    a = np.asarray(a)
    if a.shape[-2:] != (s, s):
        raise ShapeMismatchError(f"expected {s}x{s} model elements, got {a.shape}")
    idx = _copy_indices(blocks, rows)
    dim = sum(i.size for i in idx)
    out = np.zeros(a.shape[:-2] + (dim, dim), dtype=complex)
    for start, i in zip(itertools.accumulate(blocks, initial=0), idx):
        end = start + i.shape[1]
        out[..., i[:, :, None], i[:, None]] = a[..., None, start:end, start:end]
    return out


def _copy_indices(blocks, rows) -> list[np.ndarray]:
    """Per block j, the (copies, n_j) indices ``amplify(., blocks, rows)`` reads to place it.

    The one record of where amplified blocks sit.  Every nonzero entry
    m = row[j] of every row, rows in order, places m copies of block j,
    copy c of the segment at ``pos`` on the indices pos + c + m p, p < n_j.
    Row c of block j's array is its c-th copy over all rows, so every
    column ascends; a block without copies has no rows.
    """
    blocks = tuple(blocks)
    idx: list[list[np.ndarray]] = [[] for _ in blocks]
    pos = 0
    for row in rows:
        for j, m in enumerate(row):
            if m:
                idx[j].append(np.arange(pos, pos + m * blocks[j]).reshape(blocks[j], m).T)
                pos += m * blocks[j]
    return [np.concatenate(i) if i else np.empty((0, b), int) for i, b in zip(idx, blocks)]


def amplified_commutant(blocks, rows) -> UnitLayout:
    """The commutant of the image of ``amplify(., blocks, rows)``, as a layout of its units.

    Over all rows block j has M_j copies (``_copy_indices``), and the
    commutant is spanned by the M_j^2 units sum_p e(s_p, t_p) from copy t
    onto copy s: the layout of the transposed copy indices, whose unit
    (j; s, t) has the n_j copies p.  Scaled by 1/sqrt(n_j) they are
    orthonormal, as their supports are disjoint, and the dimension is
    sum_j M_j^2.
    """
    return UnitLayout.of_copies([i.T for i in _copy_indices(blocks, rows)])


def _realization(layout: UnitLayout) -> ConcreteRealization:
    """Realization spanned by the units of a layout, with a Hermitian basis.

    The basis is the Hermitian recombination of the units E_k, normalized to
    unit trace norm: E_kk for the diagonal units, then (E_k + E_k*)/sqrt 2
    and i(E_k - E_k*)/sqrt 2 for one unit k of each transpose pair above
    the diagonal, where E_k* is k's partner.  Distinct units have disjoint
    supports, so these are orthonormal.  The entries are scattered into one
    array of zeros, the only array of the basis's size that the build holds;
    the partner's entries in i(E_k - E_k*)/sqrt 2 have the real part -0, as
    in the dense recombination of the units.
    """
    n, diag, upper = layout.n, layout.diagonal, layout.upper
    d, lower = layout.dimension, layout.partner[upper]
    scale = 1.0 / np.sqrt(layout.copies[np.concatenate([diag, upper, upper])])
    scale[len(diag) :] /= np.sqrt(2.0)
    row = np.empty(d, dtype=np.intp)  # the diagonal or symmetric row of each unit
    row[diag] = np.arange(len(diag))
    row[upper] = row[lower] = np.arange(len(diag), d - len(upper))
    sign = np.sign(layout.partner - np.arange(d))  # 1 above the diagonal, -1 below
    unit = np.repeat(np.arange(d), layout.copies)
    at, sign, real = row[unit], sign[unit], 2 * layout.support
    rows = np.zeros((d, n * n), dtype=complex)
    f = rows.view(np.float64)
    f[at, real] = scale[at]
    skew = sign != 0
    at, sign, real = at[skew] + len(upper), sign[skew], real[skew]
    f[at, real + 1] = sign * scale[at]
    f[at, real] = np.copysign(0.0, sign)
    return ConcreteRealization(n, rows.reshape(d, n, n), layout)


def realize(emb: EmbeddedAlgebra) -> ConcreteRealization:
    """Block-diagonal realization of an embedded algebra inside M_N."""
    return _realization(UnitLayout.of_copies(_copy_indices(emb.structure.blocks, [emb.mult])))


def realize_class(parent: EmbeddedAlgebra, emb: MultiplicityMatrix) -> ConcreteRealization:
    """Realize a subalgebra of ``parent`` (given by its multiplicity matrix) inside M_N.

    The image lies inside the span of ``realize(parent)``: the copy indices
    of ``emb`` in the parent's block model are composed through the parent's
    own.  Copy c of source block j inside target block i, in copy c' of
    that block, sits at the parent's indices of copy c' at c's positions;
    the composed copies are ordered (i, c, c'), so every column ascends.
    """
    if emb.target.blocks != parent.structure.blocks:
        raise ShapeMismatchError("embedding target does not match the parent structure")
    if not emb.unital():
        raise ShapeMismatchError("embedding must be unital to fill the target exactly")
    idx = [[] for _ in emb.source.blocks]
    for outer, row in zip(_copy_indices(parent.structure.blocks, [parent.mult]), emb.entries):
        for j, inner in enumerate(_copy_indices(emb.source.blocks, [row])):
            idx[j].append(outer[:, inner].swapaxes(0, 1).reshape(-1, inner.shape[1]))
    return _realization(UnitLayout.of_copies([np.concatenate(i) for i in idx]))


def conjugate(real: ConcreteRealization, u: np.ndarray) -> ConcreteRealization:
    """The realization u A u* of ``real``'s algebra, its basis u B u* formed at once.

    The basis stays orthonormal, and Hermitian when B is, but it is no longer
    the recombination of ``real``'s units, so it has no layout: ``intersect``
    takes u as an argument instead, and no command calls ``conjugate``; the
    tests' oracles and perfbench's tracer do.
    """
    return ConcreteRealization(real.ambient_dim, u @ real.basis @ u.conj().T)


def _ginibre(n: int, rngs) -> np.ndarray:
    """Stack of complex Ginibre matrices (unit variance entries), one per RNG stream."""
    z = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for rng in rngs]
    return np.stack(z) / np.sqrt(2.0)


def haar_unitaries(n: int, rngs) -> np.ndarray:
    """Stack of Haar-distributed unitaries, one per RNG stream, via one stacked QR.

    The triangular factors' diagonal phases are normalized so the
    distribution is exactly Haar.  Draw i depends on ``rngs[i]`` alone: the
    stacked QR runs the same LAPACK call on each item as a QR of one matrix.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    q, r = np.linalg.qr(_ginibre(n, rngs))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix; seeded, deterministic."""
    return haar_unitaries(n, [np.random.default_rng(seed)])[0]


def local_unitaries(n: int, radius: float, rngs) -> np.ndarray:
    """Stack of n x n unitaries exp(radius K / ||K||_2), one per RNG stream.

    K, the skew-Hermitian part of a Ginibre matrix from its own stream, is
    normal, so one stacked eigh of -iK = V diag(lam) V* gives its norm
    max |lam| and the step V diag(exp(i radius lam / max |lam|)) V*.
    """
    z = _ginibre(n, rngs)
    lam, v = np.linalg.eigh((z - np.swapaxes(z.conj(), -1, -2)) / 2j)
    lam *= radius / np.abs(lam).max(axis=-1, keepdims=True)
    return (v * np.exp(1j * lam)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def local_unitary(center: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary at distance about ``radius`` from ``center`` along a random direction."""
    return center @ local_unitaries(len(center), radius, [rng])[0]


def _radius_unresolved(n: int, radius: float) -> str | None:
    """Why a positive local radius is below resolution at dimension n, or None.

    A step of radius r moves the unit-scale systems by about r, so at or
    below 10 * default_tolerance(n, 1.0), the top of ``_stable_rank``'s
    stability band at unit scale, no rank decision can tell the step from
    rounding.  A radius that is not positive is ``sample_dims``' to refuse.
    """
    bound = 10.0 * default_tolerance(n, 1.0)
    if 0.0 < radius <= bound:
        return (f"radius {radius!r} is below resolution: a local step at dimension {n} "
                f"must exceed {bound:.3e} (10 N^2 eps)")
    return None


def stack_size(matrices: int, n: int) -> int:
    """How many items fit in CHUNK_BYTES, at least one.

    Each item holds ``matrices`` complex n x n matrices and its RNG stream
    (about 1.2 KiB under tracemalloc, counted as 1.5 KiB).
    """
    return max(1, CHUNK_BYTES // (16 * n * n * matrices + 1536))


def sample_dims(n: int, samples: int, seed: int, radius: float | None, step, stack: int, key=()):
    """Up to ``samples`` seeded draws w of an n x n unitary, each with the dimension ``step`` gives.

    A lazy generator of (w, dimension) pairs.  Draw i uses the RNG stream
    derived from (seed, *key, i), so the results do not depend on execution
    order.  The draws are made as (k, n, n) stacks of 1, 2, 4, ... items,
    at most ``stack``, and ``step`` yields one dimension per item, in index
    order: a consumer that stops at a draw never decides the draws after it
    in its stack.  Without a radius w is Haar; with one, w is a local step
    about the identity (``local_unitaries``) and the caller composes it with
    its own base, on its own side.  Raises ValueError unless samples >= 1
    and a given radius is positive and finite.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if radius is not None and not 0.0 < radius < math.inf:
        raise ValueError(f"local mode needs a positive finite radius, got {radius!r}")
    start, size = 0, 1
    while start < samples:
        items = range(start, min(start + size, start + stack, samples))
        rngs = [sample_stream(seed, *key, i) for i in items]
        ws = haar_unitaries(n, rngs) if radius is None else local_unitaries(n, radius, rngs)
        del rngs  # spent: freed before the next stack draws its own streams
        yield from zip(ws, step(ws))
        start, size = items.stop, 2 * size


def _commutator_system(gens, within: UnitLayout) -> np.ndarray:
    """The commutator systems of a stack (k, g, N, N) of generator sets inside ``within``.

    Item i is the (g N^2, d) matrix whose column j is vec(E_j A - A E_j),
    stacked over its generators A, for the basis elements E_j of ``within``.
    Each E_j is a scaled partial permutation, so E_j A is a scaled row
    gather and A E_j a scaled column gather of A (``within``'s units):
    both are read straight into the final layout, with no product formed,
    and every entry is the one a dense product gives.
    """
    k, g = np.shape(gens)[:2]
    n, d = within.n, within.dimension
    flat = np.reshape(gens, (k, g, n * n))
    row_dst, row_src, col_dst, col_src, scale = within._commutator_gathers
    system = np.zeros((k, g, n * n * d), dtype=complex)
    part = flat[:, :, row_src]
    part *= scale
    system[:, :, row_dst] = part
    part = flat[:, :, col_src]
    part *= scale
    system[:, :, col_dst] -= part
    return system.reshape(k, g * n * n, d)


def commutant_basis(gens, within: UnitLayout):
    """Dimensions of the joint commutants of generator sets, solved inside ``within``.

    ``within`` is a known commutant (``amplified_commutant``) that holds
    every commutant {X : X A = A X for all A in a set}.  The unknowns are
    the coefficients c of X = sum_j c_j E_j over its basis E_j, and the
    system has one column vec(E_j A - A E_j) per basis element, stacked over
    the generators (``_commutator_system``); with no generators the answer
    is all of ``within``.  Each dimension is the system's nullity, read off
    the singular values of its QR triangle at a stable rank cutoff
    (``_nullities``): no basis of the commutant is formed.  The name is kept
    because perfbench's tracer binds it.

    ``gens`` is a stack (k, g, N, N) of k generator sets (a single set is a
    stack of one): one system build, QR and SVD serve the whole stack, and
    the result is an iterator over the k dimensions in index order, each
    rank decision made only when its item is reached.
    """
    k, g = np.shape(gens)[:2]
    if not g:
        return iter([within.dimension] * k)
    system = _commutator_system(gens, within)
    return _nullities(system, within.n, "commutant system")


def intersect(a: ConcreteRealization, b: ConcreteRealization, u: np.ndarray | None = None) -> int:
    """dim(a meet u b u*) for two realized subalgebras of the same M_N.

    Without u it is dim(a meet b).  Both sides need a layout (``realize``,
    ``realize_class``), so both bases are Hermitian; any other pair raises
    ValueError.  The smaller side, b on a tie, is the one conjugated: b by
    u, or a by u*, as a meet u b u* = u (u* a u meet b) u*.  u is taken to
    be unitary, as ``commutant_basis`` takes its generators as given:
    ``density_experiment`` checks its center once, not each product.

    With V the conjugated basis of the smaller side as rows and W the
    larger, a combination x V lies in span W exactly when the residual of
    x V against span W vanishes.  That residual is read by gathers in real
    isometric coordinates of the complement of span W
    (``UnitLayout.complement_coordinates``): both spans are *-closed, so
    this real system of dim V rows has the singular values of the complex
    residual, the sines of the principal angles between the spans, and the
    dimension is its nullity, read off the singular values of one SVD
    (``_nullities``).  The system is the only array of its size that is
    built: V is formed a chunk of elements at a time (CHUNK_BYTES), gathered
    and dropped.  With dim W = N^2 the complement is empty and the answer
    is dim V.

    The identity lies in both spans, so a nullity below 1 is a rank error
    and raises NumericalInstabilityError.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatchError("realizations live in different ambient dimensions")
    if a.layout is None or b.layout is None:
        raise ValueError("intersect needs two realizations with a layout")
    flip = a.dimension < b.dimension  # a moves, by u*
    moved, fixed = (a, b) if flip else (b, a)
    v = u.conj().T if flip and u is not None else u
    n, d = moved.ambient_dim, moved.dimension
    step = max(1, CHUNK_BYTES // (16 * n * n))
    system = None
    for start in range(0, d, step):
        chunk = moved.basis[start : start + step]
        if v is not None:
            chunk = v @ chunk @ v.conj().T
        coords = fixed.layout.complement_coordinates(chunk.reshape(len(chunk), n * n))
        if system is None:
            system = np.empty((d, coords.shape[1]))
        system[start : start + len(coords)] = coords
    dim = next(_nullities(system.T[None], n, "projected system")) if system.shape[1] else d
    if dim < 1:
        raise NumericalInstabilityError(
            "intersection lost the identity; rank decision is suspect", float(dim)
        )
    return dim


@dataclass(frozen=True)
class DensityStats:
    """Dimensions tallied over sampled perturbing unitaries; every count is read off ``dims``."""

    dims: tuple[int, ...]
    seed: int
    radius: float | None
    center: np.ndarray | None

    @property
    def samples(self) -> int:
        return len(self.dims)

    @property
    def trivial_count(self) -> int:
        return self.dims.count(1)

    @property
    def dims_histogram(self) -> dict[int, int]:
        return {d: self.dims.count(d) for d in sorted(set(self.dims))}

    def to_json_dict(self) -> dict:
        from .serialize import matrix_to_json

        return {
            "samples": self.samples,
            "trivial_count": self.trivial_count,
            "dims_histogram": {str(k): v for k, v in self.dims_histogram.items()},
            "seed": self.seed,
            "radius": self.radius,
            "center": None if self.center is None else matrix_to_json(self.center),
            "dims": list(self.dims),
        }


def density_bytes(b1: EmbeddedAlgebra, b2: EmbeddedAlgebra) -> int:
    """Bytes one ``density_experiment`` on the pair holds, counted from integers.

    With d1 and d2 the dimensions of the two sides and d the smaller, at
    16 N^2 bytes an N x N complex matrix: the realized bases (d1 + d2
    matrices), and the real residual system of ``intersect`` and the copy
    its SVD makes (d rows of at most 2 N^2 reals each).  The stack of draws
    and the chunk of conjugated elements (CHUNK_BYTES each) come on top.
    """
    d1, d2 = b1.structure.algebra_dim(), b2.structure.algebra_dim()
    return 16 * b1.ambient_dim**2 * (d1 + d2 + 2 * min(d1, d2))


def density_experiment(
    b1: EmbeddedAlgebra,
    b2: EmbeddedAlgebra,
    samples: int,
    seed: int,
    local: tuple[np.ndarray | None, float] | None = None,
) -> DensityStats:
    """Sample unitaries u and tally dim(B1 meet u B2 u*).

    Global mode draws Haar unitaries u; local mode draws u = center @ w for
    local steps w of the given radius (``sample_dims``), the center
    defaulting to the identity.  Each sample is ``intersect(r1, r2, u)``,
    which conjugates the smaller side.  When B1 = B2 the algebra is realized
    once and serves as both sides.  The draws come a stack at a time
    (``sample_dims``), and each is intersected on its own.  A radius below
    resolution at the ambient dimension (``_radius_unresolved``) raises
    ValueError.  The center is checked once, before any draw, as RepPair
    checks its unitary (``_check_unitary``): not N x N raises
    ShapeMismatchError, not unitary ValueError.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise ShapeMismatchError("ambient dimensions differ")
    n = b1.ambient_dim
    center = radius = None
    if local is not None:
        center, radius = local
        if radius is None:
            raise ValueError("local mode needs a radius")
        if unresolved := _radius_unresolved(n, radius):
            raise ValueError(unresolved)
        center = np.eye(n, dtype=complex) if center is None else np.asarray(center)
        _check_unitary(center, n, "center")
    r1 = realize(b1)
    r2 = r1 if b2 == b1 else realize(b2)

    def one(w):
        return intersect(r1, r2, w if center is None else center @ w)

    stack = stack_size(DRAW_MATRICES, n)
    draws = sample_dims(n, samples, seed, radius, lambda ws: map(one, ws), stack)
    return DensityStats(tuple(d for _, d in draws), seed, radius, center)
