"""Concrete matrix realizations, random unitaries, and numerical intersection experiments.

Subalgebras of M_N are materialized as orthonormal matrix bases under the
trace inner product.  Commutant dimensions are the nullities of stacked
commutator systems inside the known commutant of an amplified stack, whose
basis elements are scaled partial permutations: the systems are gathered
from rows and columns of the generators, with no product formed and no
dense basis held.  Realizations of matrix-unit algebras are built once with
a Hermitian basis and record where their units sit.  Subspace intersections
are the nullspace of the residual of one such realization V against an
unconjugated one W, with one solve and one tail: that residual is read by
gathers in real coordinates of the complement of W.  Every rank decision is
made from one SVD at a scale-aware tolerance with a built-in stability check
(``_stable_rank``): if shrinking or growing the tolerance tenfold changes
the decision, a NumericalInstabilityError is raised instead of guessing.
An intersection needs its null vectors, so its SVD forms the right factor;
a commutant dimension reads the singular values alone.

Random unitaries and commutant dimensions are also made in stacks (k, N, N):
one stacked QR, eigendecomposition or SVD serves the k items, running the
same LAPACK call on each as on one matrix, so a stacked result is
bit-identical to the items made one at a time.  The rank decisions then
take the items in index order, each only when it is reached.  A stack holds
at most STACK_BYTES (32 MiB) of draws, generators, systems and their
factorizations (``stack_size``), and never less than one item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import BlockStructure, EmbeddedAlgebra, MultiplicityMatrix
from .errors import NumericalInstabilityError, ShapeMismatchError

EPS = float(np.finfo(np.float64).eps)

# Absolute ceiling for the algebra-closure re-verification; rank tolerances are
# scale-aware but closure residuals of healthy algebras sit at machine noise,
# while a misdecided rank produces residuals at the scale of the ambiguous
# singular value.
DEFAULT_CLOSURE_TOL = 1e-9

# Products per chunk of the closure check (ConcreteRealization.closure_defect).
CLOSURE_CHUNK = 512

# Bytes a stack of draws and decisions may hold (stack_size): the draws,
# their conjugated generators, their commutant systems and the systems' QR
# copies.  An item larger than this is decided alone, as the N = 48 dpi
# samples are.
STACK_BYTES = 1 << 25

# N x N complex matrices one draw holds at the peak of a stack of draws
# (sample_dims): the Ginibre stack, its scaled and skew copies, the factors
# of the QR or the eigendecomposition, and the draw of the stack before.
DRAW_MATRICES = 8


def default_tolerance(n: int, smax: float) -> float:
    """Scale-aware rank cutoff: N^2 * machine epsilon * largest singular value."""
    return n * n * EPS * max(smax, 1.0)


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


def _svd_right(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and the full square right factor ``vh`` of m (or a stack), no left factor."""
    _, s, vh = np.linalg.svd(_triangle(m))
    return s, vh


def _stable_rank(s: np.ndarray, n: int, tol: float | None, what: str) -> int:
    """The rank of one system from its singular values ``s`` (descending), at a stable cutoff.

    The rank counts singular values above ``tol`` (default
    ``default_tolerance(n, s_max)``) and must not change at tol/10 or 10*tol.
    All three cutoffs are clamped below at the noise floor
    8 * max(n, 4) * eps * max(s_max, 1): the unit scale of the inputs, so a
    system of pure rounding noise (s_max near eps) has a floor too, times a
    size that grows like the rounding of products of n x n unitaries.
    Values underneath it are exact zeros and cannot make a decision ambiguous.
    """
    scale = max(float(s[0]), 1.0)
    cutoff = default_tolerance(n, scale) if tol is None else tol
    floor = 8.0 * max(n, 4) * EPS * scale
    lo_cut, hi_cut = max(cutoff / 10.0, floor), max(10.0 * cutoff, floor)
    ambiguous = s[(s > lo_cut) & (s <= hi_cut)]
    if ambiguous.size:
        raise NumericalInstabilityError(
            f"rank decision for {what} is unstable at tolerance {cutoff:.3e}",
            float(ambiguous.max()),
        )
    return int(np.count_nonzero(s > max(cutoff, floor)))


def _null_rows(systems: np.ndarray, n: int, tol: float | None, what: str):
    """Per system of a stack (k, rows, cols), the rows of ``vh`` spanning its
    (conjugated) nullspace, from one SVD at the stable rank (``_stable_rank``).

    The factorizations run once for the whole stack, and the result is an
    iterator over the k items' rows in index order: each item is decided, and
    raises, only when it is reached, so a caller that stops at an item never
    decides the ones after it.  A single system is a stack of one.
    """
    s, vh = _svd_right(systems)
    return (v[_stable_rank(si, n, tol, what) :] for si, v in zip(s, vh))


def _nullities(systems: np.ndarray, n: int, tol: float | None, what: str):
    """Per system of a stack (k, rows, cols), the dimension of its nullspace.

    The same decision as ``_null_rows``, from the singular values alone:
    ``np.linalg.svd(..., compute_uv=False)`` of the QR triangle forms no
    ``vh``.  The result is an iterator in index order, each item decided,
    and raising, only when it is reached.
    """
    cols = systems.shape[-1]
    s = np.linalg.svd(_triangle(systems), compute_uv=False)
    return (cols - _stable_rank(si, n, tol, what) for si in s)


def _helmert(m: int) -> np.ndarray:
    """Orthonormal (m-1) x m rows orthogonal to the all-ones vector.

    Row k-1 is (1, ..., 1, -k, 0, ..., 0) / sqrt(k(k+1)), with k ones.
    """
    h = np.tri(m - 1, m)
    k = np.arange(1, m)
    h[k - 1, k] = -k
    return h / np.sqrt(k * (k + 1.0))[:, None]


@dataclass(frozen=True, eq=False)
class UnitLayout:
    """Where the matrix units of a realization sit in the flat N x N matrix.

    Unit k is a 0/1 matrix supported on ``copies[k]`` flat indices (its
    amplified copies), listed unit by unit in ``support``; distinct units
    have disjoint supports, and ``partner[k]`` is the unit supported on the
    transpose of unit k's support (k itself for a diagonal unit).
    """

    n: int
    support: np.ndarray
    copies: np.ndarray
    partner: np.ndarray

    @classmethod
    def of_units(cls, units: np.ndarray) -> UnitLayout:
        """Layout of a stack of 0/1 matrix units with disjoint supports."""
        d, n = units.shape[0], units.shape[1]
        unit, support = np.nonzero(units.reshape(d, n * n))
        copies = np.bincount(unit, minlength=d)
        owner = np.full(n * n, -1)
        owner[support] = unit
        row, col = np.divmod(support[np.cumsum(copies) - copies], n)
        return cls(n, support, copies, owner[col * n + row])

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Indices of the units on the diagonal (their own partners)."""
        return np.flatnonzero(self.partner == np.arange(len(self.partner)))

    @cached_property
    def upper(self) -> np.ndarray:
        """Indices of the units above the diagonal, one of each transpose pair."""
        first = self.support[np.cumsum(self.copies) - self.copies]
        row, col = np.divmod(first, self.n)
        return np.flatnonzero(row < col)

    @cached_property
    def _gathers(self):
        """Columns of the float64 view of a flat stack that carry the complement coordinates.

        In that view the real and imaginary parts of flat entry f are columns
        2f and 2f + 1.  Returns the columns of the off-pattern entries above
        the diagonal, and per copy count m >= 2 the (units, m) columns of the
        unit supports with their per-row scales and the Helmert rows.
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
            on_diag = self.support[starts[diag][:, None] + np.arange(m)]
            above = self.support[starts[upper][:, None] + np.arange(m)]
            cols = np.concatenate([2 * on_diag, 2 * above, 2 * above + 1])
            scale = np.concatenate([np.ones(len(diag)), np.full(2 * len(upper), np.sqrt(2.0))])
            groups.append((cols, scale[:, None], _helmert(int(m)).T))
        return np.concatenate([2 * off, 2 * off + 1]), groups

    def complement_coordinates(self, herm: np.ndarray) -> np.ndarray:
        """Real isometric coordinates of the residuals of Hermitian rows against the span.

        ``herm`` is a d x N^2 stack of flattened Hermitian matrices X.  The
        span is *-closed, so the residual of X is Hermitian and is read off
        the entries on and above the diagonal: sqrt(2) Re and sqrt(2) Im of
        each off-pattern entry above the diagonal (the diagonal lies in the
        pattern, as the span holds the identity), and the Helmert
        (orthonormal sum-zero) coordinates of the entries of each unit with
        m >= 2 copies, real for a diagonal unit and split into sqrt(2) Re and
        sqrt(2) Im above the diagonal.  That is N^2 - dim coordinates, and
        their Euclidean norm is the trace norm of the residual.
        """
        f = herm.view(np.float64)
        off, groups = self._gathers
        coords = f[:, off]
        coords *= np.sqrt(2.0)
        if not groups:
            return coords
        parts = [coords]
        for cols, scale, helmert in groups:
            parts.append(((f[:, cols] * scale) @ helmert).reshape(len(f), -1))
        return np.concatenate(parts, axis=1)


@dataclass
class ConcreteRealization:
    """A numerically materialized subalgebra of M_N.

    ``basis`` is a stack of N x N complex matrices orthonormal under the trace
    inner product; it also generates the algebra.  The identity always lies in
    the span.  ``layout`` is set when the basis is w H w* for the Hermitian
    recombination H of the matrix units it records (``_realization``), with
    w = I unless ``conjugated``; such a basis is Hermitian.
    """

    ambient_dim: int
    basis: np.ndarray
    layout: UnitLayout | None = None
    conjugated: bool = False

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def project_residual(self, mats: np.ndarray) -> np.ndarray:
        """Frobenius distance of each given matrix from the span of the basis."""
        n = self.ambient_dim
        flat = mats.reshape(mats.shape[0], n * n)
        bflat = self.basis.reshape(self.dimension, n * n)
        coeff = flat @ bflat.conj().T
        recon = coeff @ bflat
        return np.linalg.norm(flat - recon, axis=1)

    def closure_defect(self) -> float:
        """Largest residual of adjoints and pairwise products outside the span.

        The products are formed a few left factors at a time, at most
        max(CLOSURE_CHUNK, d) per chunk, and the running maximum is kept, so
        memory grows like that chunk times N^2, not like all d^2 products.
        """
        n = self.ambient_dim
        step = max(1, CLOSURE_CHUNK // self.dimension)
        worst = 0.0
        for start in range(0, self.dimension, step):
            left = self.basis[start : start + step]
            adj = np.transpose(left.conj(), (0, 2, 1))
            prods = (left[:, None] @ self.basis[None]).reshape(-1, n, n)
            res = self.project_residual(np.concatenate([adj, prods]))
            worst = max(worst, float(res.max()))
        return worst


def model_matrix_units(structure: BlockStructure) -> np.ndarray:
    """Matrix units of every block, as a stack of matrices in the block-diagonal model."""
    size = structure.model_dim()
    units = np.zeros((structure.algebra_dim(), size, size), dtype=complex)
    k = offset = 0
    for b in structure.blocks:
        for p in range(b):
            for q in range(b):
                units[k, offset + p, offset + q] = 1.0
                k += 1
        offset += b
    return units


def amplify(a: np.ndarray, blocks, rows) -> np.ndarray:
    """Block-diagonal amplification of a stack of block-model elements.

    ``a`` has shape (..., s, s), s the sum of ``blocks``.  Every nonzero
    entry m = row[j] of every multiplicity row, rows in order, appends the
    block a_j tensor I_m to the diagonal of the output (zero entries are
    skipped).  The blocks are written by strided slice assignment, so every
    entry is a copy of an entry of ``a`` or zero.
    """
    blocks = tuple(blocks)
    s = sum(blocks)
    a = np.asarray(a)
    if a.shape[-2:] != (s, s):
        raise ShapeMismatchError(f"expected {s}x{s} model elements, got {a.shape}")
    offsets = np.concatenate([[0], np.cumsum(blocks)])
    dim = sum(m * n for row in rows for m, n in zip(row, blocks))
    out = np.zeros(a.shape[:-2] + (dim, dim), dtype=complex)
    pos = 0
    for row in rows:
        for j, m in enumerate(row):
            if m == 0:
                continue
            block = a[..., offsets[j] : offsets[j + 1], offsets[j] : offsets[j + 1]]
            end = pos + m * blocks[j]
            for c in range(m):
                out[..., pos + c : end : m, pos + c : end : m] = block
            pos = end
    return out


@dataclass(frozen=True, eq=False)
class AmplifiedCommutant:
    """The commutant of an amplified stack, held as the entries of its orthonormal basis.

    Basis element ``element[e]`` has the entry ``scale[e]`` at
    (``row[e]``, ``col[e]``), for every entry e, and no other entries: each
    element is a scaled partial permutation, and distinct elements have
    disjoint supports.
    """

    ambient_dim: int
    dimension: int
    element: np.ndarray
    row: np.ndarray
    col: np.ndarray
    scale: np.ndarray

    @cached_property
    def _gathers(self):
        """Flat indices of the gathered commutator system (``_commutator_system``).

        For an element E with its entries s at (r_e, c_e), E A puts s A[c_e, c]
        at (r_e, c) and A E puts s A[r, r_e] at (r, c_e), for every c and r.
        Returns, for the entries e and each of the n columns c (rows r), the
        destinations (r_e n + c) d + element[e] and sources c_e n + c of the
        first and (r n + c_e) d + element[e] and r n + r_e of the second, and
        the per-destination scales.
        """
        n, d = self.ambient_dim, self.dimension
        line = np.arange(n)
        elem = self.element[:, None]
        row_dst = ((self.row[:, None] * n + line) * d + elem).ravel()
        row_src = (self.col[:, None] * n + line).ravel()
        col_dst = ((line * n + self.col[:, None]) * d + elem).ravel()
        col_src = (line * n + self.row[:, None]).ravel()
        return row_dst, row_src, col_dst, col_src, np.repeat(self.scale, n)


def amplified_commutant(blocks, rows) -> AmplifiedCommutant:
    """The commutant of the image of ``amplify(., blocks, rows)``, by its basis entries.

    Every nonzero entry m = row[j] of every row writes m copies of block j,
    copy c of the segment at ``pos`` on the indices pos + c + m*p, p < n_j.
    Over all rows block j has M_j copies, and the commutant is spanned by
    the M_j^2 matrices sum_p e(s_p, t_p) from copy t onto copy s, scaled by
    1/sqrt(n_j): they have disjoint supports, so the basis is orthonormal,
    and its dimension is sum_j M_j^2.  The layout is the one ``amplify``
    writes, so no permutation is needed.
    """
    blocks = tuple(blocks)
    copies: list[list[np.ndarray]] = [[] for _ in blocks]
    pos = 0
    for row in rows:
        for j, m in enumerate(row):
            end = pos + m * blocks[j]
            copies[j].extend(np.arange(pos + c, end, m) for c in range(m))
            pos = end
    element, row_idx, col_idx, scale = [], [], [], []
    k = 0
    for b, idx in zip(blocks, copies):
        if not idx:
            continue
        idx = np.array(idx)
        s, t = np.divmod(np.arange(len(idx) ** 2), len(idx))
        element.append(np.repeat(np.arange(k, k + len(s)), b))
        row_idx.append(idx[s].ravel())
        col_idx.append(idx[t].ravel())
        scale.append(np.full(len(s) * b, 1.0 / np.sqrt(b)))
        k += len(s)
    return AmplifiedCommutant(
        pos, k, *(np.concatenate(parts) for parts in (element, row_idx, col_idx, scale))
    )


def embed_model(emb: MultiplicityMatrix, a: np.ndarray) -> np.ndarray:
    """Map a stack of source block-model elements through a unital embedding.

    Within target block i the source blocks are laid out in order, block j
    amplified as a_j tensor I_{mu[i, j]}; unitality makes the target blocks
    fill the target model exactly, one after the other.
    """
    if not emb.unital():
        raise ShapeMismatchError("embedding must be unital to fill the target exactly")
    return amplify(a, emb.source.blocks, emb.entries)


def _realization(n: int, units: np.ndarray) -> ConcreteRealization:
    """Realization spanned by a stack of amplified matrix units, with their layout.

    The basis is the Hermitian recombination of the units E_k, normalized to
    unit trace norm: E_kk for the diagonal units, then (E_k + E_k*)/sqrt 2
    and i(E_k - E_k*)/sqrt 2 for one unit k of each transpose pair above
    the diagonal, where E_k* is k's partner.  Distinct units have disjoint
    supports, so these are orthonormal.  The rows are written in place into
    one array by unbuffered gathers, so the build holds the unit stack and
    the basis and nothing else of their size.
    """
    layout = UnitLayout.of_units(units)
    d = units.shape[0]
    flat = units.reshape(d, n * n)
    diag, upper = layout.diagonal, layout.upper
    rows = np.empty_like(flat)
    sym, skew = np.split(rows[len(diag) :], 2)
    np.take(flat, diag, axis=0, out=rows[: len(diag)], mode="clip")
    np.take(flat, upper, axis=0, out=sym, mode="clip")
    np.take(flat, layout.partner[upper], axis=0, out=skew, mode="clip")
    sym += skew
    skew *= -2.0
    skew += sym
    scale = 1.0 / np.sqrt(layout.copies[np.concatenate([diag, upper, upper])])
    scale[len(diag) :] /= np.sqrt(2.0)
    rows *= scale[:, None]
    skew *= 1j
    return ConcreteRealization(n, rows.reshape(d, n, n), layout)


def realize(emb: EmbeddedAlgebra) -> ConcreteRealization:
    """Block-diagonal realization of an embedded algebra inside M_N."""
    units = model_matrix_units(emb.structure)
    return _realization(emb.ambient_dim, embed_model(emb.ambient_row(), units))


def realize_class(parent: EmbeddedAlgebra, emb: MultiplicityMatrix) -> ConcreteRealization:
    """Realize a subalgebra of ``parent`` (given by its multiplicity matrix) inside M_N.

    The image lies inside the span of ``realize(parent)``: elements are first
    embedded into the parent's block model and then amplified into the ambient.
    """
    if emb.target.blocks != parent.structure.blocks:
        raise ShapeMismatchError("embedding target does not match the parent structure")
    units = model_matrix_units(emb.source)
    gens = embed_model(parent.ambient_row(), embed_model(emb, units))
    return _realization(parent.ambient_dim, gens)


def conjugate(real: ConcreteRealization, u: np.ndarray) -> ConcreteRealization:
    """Conjugated copy u A u* of a realization; orthonormality, Hermitian bases, layout kept."""
    return ConcreteRealization(real.ambient_dim, u @ real.basis @ u.conj().T, real.layout, True)


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


def _skew_directions(z: np.ndarray) -> np.ndarray:
    """The skew-Hermitian parts of a stack of matrices, scaled to unit operator norm."""
    k = (z - np.swapaxes(z.conj(), -1, -2)) / 2.0
    return k / np.linalg.norm(k, 2, axis=(-2, -1))[..., None, None]


def exp_skew(k: np.ndarray) -> np.ndarray:
    """exp(k) for a skew-Hermitian k (or a stack): V diag(exp(i lam)) V*, (lam, V) = eigh(-ik)."""
    lam, v = np.linalg.eigh(-1j * k)
    return (v * np.exp(1j * lam)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def local_unitaries(center: np.ndarray, radius, rngs) -> np.ndarray:
    """Stack of unitaries at distance about ``radius`` from ``center``, one per RNG stream.

    Each is center @ exp(radius K) along a random direction K drawn from its
    own stream; ``radius`` is one number or one per stream.
    """
    n = center.shape[0]
    radius = np.reshape(radius, (-1, 1, 1))
    return center @ exp_skew(radius * _skew_directions(_ginibre(n, rngs)))


def local_unitary(center: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary at distance about ``radius`` from ``center`` along a random direction."""
    return local_unitaries(center, radius, [rng])[0]


def stack_size(matrices: int, n: int) -> int:
    """How many items fit in STACK_BYTES, at least one.

    Each item holds ``matrices`` complex n x n matrices and its RNG stream
    (about 1.2 KiB under tracemalloc, counted as 1.5 KiB).
    """
    return max(1, STACK_BYTES // (16 * n * n * matrices + 1536))


def sample_dims(
    n: int, samples: int, seed: int, radius: float | None, step, stack: int
) -> tuple[int, ...]:
    """The dimensions ``step`` yields over ``samples`` seeded draws of an n x n unitary w.

    Draw i uses the RNG stream derived from (seed, i), so the tally does not
    depend on execution order.  The draws are made ``stack`` at a time as a
    (k, n, n) stack, and ``step`` yields one dimension per item, in index
    order.  Without a radius w is Haar; with one, w is the local step
    ``local_unitary(I, radius, rng)`` and the caller composes it with its own
    center, on its own side.  Raises ValueError unless samples >= 1 and a
    given radius is positive and finite.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if radius is not None and not 0.0 < radius < math.inf:
        raise ValueError(f"local mode needs a positive finite radius, got {radius!r}")
    eye = np.eye(n, dtype=complex)
    dims: list[int] = []
    for start in range(0, samples, stack):
        rngs = [sample_stream(seed, i) for i in range(start, min(start + stack, samples))]
        ws = haar_unitaries(n, rngs) if radius is None else local_unitaries(eye, radius, rngs)
        del rngs  # spent: freed before the next stack draws its own streams
        dims.extend(step(ws))
    return tuple(dims)


def _commutator_system(gens, within: AmplifiedCommutant) -> np.ndarray:
    """The commutator systems of a stack (k, g, N, N) of generator sets inside ``within``.

    Item i is the (g N^2, d) matrix whose column j is vec(E_j A - A E_j),
    stacked over its generators A, for the basis elements E_j of ``within``.
    Each E_j is a scaled partial permutation, so E_j A is a scaled row
    gather and A E_j a scaled column gather of A (``AmplifiedCommutant``):
    both are read straight into the final layout, with no product formed,
    and every entry is the one a dense product gives.
    """
    k, g = np.shape(gens)[:2]
    n, d = within.ambient_dim, within.dimension
    flat = np.reshape(gens, (k, g, n * n))
    row_dst, row_src, col_dst, col_src, scale = within._gathers
    system = np.zeros((k, g, n * n * d), dtype=complex)
    part = flat[:, :, row_src]
    part *= scale
    system[:, :, row_dst] = part
    part = flat[:, :, col_src]
    part *= scale
    system[:, :, col_dst] -= part
    return system.reshape(k, g * n * n, d)


def commutant_basis(gens, within: AmplifiedCommutant, tol: float | None = None):
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
    return _nullities(system, within.ambient_dim, tol, "commutant system")


def intersect(
    a: ConcreteRealization, b: ConcreteRealization, tol: float | None = None
) -> ConcreteRealization:
    """Intersection of two realized subalgebras of the same M_N.

    Preconditions: one side, called ``b``, is an unconjugated realization
    with a layout (``realize``, ``realize_class``), and the other, ``a``,
    carries a layout too (possibly ``conjugate``d), so its basis is
    Hermitian.  When both sides are unconjugated, ``b`` is the larger (the
    second argument on a tie).  Any other pair raises ValueError.

    With A and B the bases as rows, a combination x A lies in span B exactly
    when the residual of x A against span B vanishes.  That residual is read
    by gathers in real isometric coordinates of the complement of span B
    (``UnitLayout.complement_coordinates``): both spans are *-closed, so this
    real N^2 - d_b by d_a system has the singular values of the complex
    residual, the sines of the principal angles between the spans, and the
    dimension is its nullity, from one SVD.  With d_b = N^2 the complement is
    empty and the whole of span A is the answer.  The null rows are
    orthonormal, so their combinations of the orthonormal rows of A are an
    orthonormal basis of the intersection with no QR.

    The identity lies in both spans, so a nullity below 1 is a rank error;
    the output is re-verified to be closed under products and adjoints to
    within DEFAULT_CLOSURE_TOL.  Both failures raise
    NumericalInstabilityError with the measured defect.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatchError("realizations live in different ambient dimensions")
    if a.layout is not None and not a.conjugated and (
        b.layout is None or b.conjugated or a.dimension > b.dimension
    ):
        a, b = b, a
    if a.layout is None or b.layout is None or b.conjugated:
        raise ValueError(
            "intersect needs an unconjugated realization with a layout and a second with a layout"
        )
    n = a.ambient_dim
    rows = a.basis.reshape(a.dimension, n * n)
    system = b.layout.complement_coordinates(rows)
    if system.shape[1]:
        null = next(_null_rows(system.T[None], n, tol, "projected system"))
    else:
        null = np.eye(a.dimension)
    if len(null) < 1:
        raise NumericalInstabilityError(
            "intersection lost the identity; rank decision is suspect", float(len(null))
        )
    # orthonormal null rows times the orthonormal rows of A are orthonormal
    span = null @ rows
    out = ConcreteRealization(n, span.reshape(-1, n, n))

    defect = out.closure_defect()
    if defect > DEFAULT_CLOSURE_TOL:
        raise NumericalInstabilityError(
            "intersection span is not closed under product/adjoint", defect
        )
    return out


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

    def csv_rows(self):
        return list(enumerate(self.dims))


def density_experiment(
    b1: EmbeddedAlgebra,
    b2: EmbeddedAlgebra,
    samples: int,
    seed: int,
    local: tuple[np.ndarray | None, float] | None = None,
    tol: float | None = None,
) -> DensityStats:
    """Sample unitaries u and tally dim(B1 meet u B2 u*).

    Global mode draws Haar unitaries u; local mode draws u = center @ w for
    local steps w of the given radius (``sample_dims``), the center
    defaulting to the identity.  The smaller side is the one conjugated:
    with dim B1 < dim B2 each sample intersects u* B1 u with B2, of the same
    dimension, so the larger side of every sample is the unconjugated one
    whose residual ``intersect`` gathers.  The draws come a stack at a time
    (``sample_dims``), and each is intersected on its own.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise ShapeMismatchError("ambient dimensions differ")
    n = b1.ambient_dim
    center = radius = None
    if local is not None:
        center, radius = local
        if radius is None:
            raise ValueError("local mode needs a radius")
        center = np.eye(n, dtype=complex) if center is None else np.asarray(center)
    r1 = realize(b1)
    r2 = realize(b2)

    def one(w):
        u = w if center is None else center @ w
        if r1.dimension < r2.dimension:
            return intersect(conjugate(r1, u.conj().T), r2, tol=tol).dimension
        return intersect(r1, conjugate(r2, u), tol=tol).dimension

    stack = stack_size(DRAW_MATRICES, n)
    dims = sample_dims(n, samples, seed, radius, lambda ws: map(one, ws), stack)
    return DensityStats(dims, seed, radius, center)
