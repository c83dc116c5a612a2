"""Concrete matrix realizations, random unitaries, and numerical intersection experiments.

Subalgebras of M_N are materialized as orthonormal matrix bases under the
trace inner product.  Commutants are solved as nullspaces of stacked
commutator systems, inside a known subspace (such as the commutant of an
amplified stack) when one is given, and subspace intersections as the
nullspace of the twice-projected residual (I - W W*) V of the smaller
realization V against the larger W.  Every rank decision is made by one
routine, from one SVD, at a scale-aware tolerance with a built-in stability
check: if shrinking or growing the tolerance tenfold changes the decision, a
NumericalInstabilityError is raised instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import BlockStructure, EmbeddedAlgebra, MultiplicityMatrix
from .errors import NumericalInstabilityError, ShapeMismatchError

EPS = float(np.finfo(np.float64).eps)

# Absolute ceiling for the algebra-closure re-verification; rank tolerances are
# scale-aware but closure residuals of healthy algebras sit at machine noise,
# while a misdecided rank produces residuals at the scale of the ambiguous
# singular value.
DEFAULT_CLOSURE_TOL = 1e-9


def default_tolerance(n: int, smax: float) -> float:
    """Scale-aware rank cutoff: N^2 * machine epsilon * largest singular value."""
    return n * n * EPS * max(smax, 1.0)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_stream(master_seed: int, *key: int) -> np.random.Generator:
    """RNG stream derived from a master seed and an integer key path.

    Per-sample streams use the key (index,), staged-search attempts the key
    (stage, attempt).  Streams depend only on (master_seed, key), so results
    are identical no matter how the work is scheduled.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def _svd_right(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and the full square right factor ``vh`` of m, with no left factor.

    A tall m (more rows than columns) is first reduced to the square R of its
    QR factorization: m = QR with Q having orthonormal columns, so R has the
    same singular values and right singular vectors as m, and the SVD never
    forms the rows x rows left factor of m.
    """
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m)
    return s, vh


def _null_rows(system: np.ndarray, n: int, tol: float | None, what: str) -> np.ndarray:
    """Rows of ``vh`` spanning the (conjugated) nullspace of system, from one SVD.

    The rank counts singular values above ``tol`` (default
    ``default_tolerance(n, s_max)``) and must not change at tol/10 or 10*tol.
    All three cutoffs are clamped below at the noise floor
    8 * max(n, 4) * eps * max(s_max, 1): the unit scale of the inputs, so a
    system of pure rounding noise (s_max near eps) has a floor too, times a
    size that grows like the rounding of products of n x n unitaries.
    Values underneath it are exact zeros and cannot make a decision ambiguous.
    """
    s, vh = _svd_right(system)
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
    return vh[int(np.count_nonzero(s > max(cutoff, floor))) :]


@dataclass
class ConcreteRealization:
    """A numerically materialized subalgebra of M_N.

    ``basis`` is a stack of N x N complex matrices orthonormal under the trace
    inner product; it also generates the algebra.  The identity always lies in
    the span.
    """

    ambient_dim: int
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def vectors(self) -> np.ndarray:
        """Basis as columns of an N^2 x d matrix (row-major vectorization)."""
        d, n = self.basis.shape[0], self.ambient_dim
        return self.basis.reshape(d, n * n).T

    def project_residual(self, mats: np.ndarray) -> np.ndarray:
        """Frobenius distance of each given matrix from the span of the basis."""
        n = self.ambient_dim
        flat = mats.reshape(mats.shape[0], n * n)
        bflat = self.basis.reshape(self.dimension, n * n)
        coeff = flat @ bflat.conj().T
        recon = coeff @ bflat
        return np.linalg.norm(flat - recon, axis=1)

    def closure_defect(self) -> float:
        """Largest residual of adjoints and pairwise products outside the span."""
        adj = np.transpose(self.basis.conj(), (0, 2, 1))
        prods = self.basis[:, None] @ self.basis[None]
        prods = prods.reshape(-1, self.ambient_dim, self.ambient_dim)
        res = self.project_residual(np.concatenate([adj, prods]))
        return float(res.max())

    def contains_identity(self, tol: float = 1e-10) -> bool:
        eye = np.eye(self.ambient_dim, dtype=complex)[None]
        return float(self.project_residual(eye)[0]) <= tol


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


def amplified_commutant(blocks, rows) -> ConcreteRealization:
    """Orthonormal basis of the commutant of the image of ``amplify(., blocks, rows)``.

    Every nonzero entry m = row[j] writes m copies of block j, copy c of the
    segment at ``pos`` on the indices pos + c + m*p, p < n_j.  Over all rows
    block j has M_j copies, and the commutant is spanned by the M_j^2 matrices
    sum_p e(s_p, t_p) from copy t onto copy s, scaled by 1/sqrt(n_j): they
    have disjoint supports, so the basis is orthonormal, and its dimension is
    sum_j M_j^2.  The layout is the one ``amplify`` writes, so no permutation
    is needed.
    """
    blocks = tuple(blocks)
    copies: list[list[np.ndarray]] = [[] for _ in blocks]
    pos = 0
    for row in rows:
        for j, m in enumerate(row):
            end = pos + m * blocks[j]
            copies[j].extend(np.arange(pos + c, end, m) for c in range(m))
            pos = end
    count = sum(len(c) ** 2 for c in copies)
    basis = np.zeros((count, pos, pos), dtype=complex)
    k = 0
    for b, idx in zip(blocks, copies):
        if not idx:
            continue
        idx = np.array(idx)
        s, t = np.divmod(np.arange(len(idx) ** 2), len(idx))
        basis[np.arange(k, k + len(s))[:, None], idx[s], idx[t]] = 1.0 / np.sqrt(b)
        k += len(s)
    return ConcreteRealization(pos, basis)


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
    """Realization spanned by a stack of amplified matrix units.

    The basis is the same stack normalized to unit trace norm (distinct units
    have disjoint support, so they are orthogonal already).
    """
    norms = np.linalg.norm(units, axis=(1, 2))
    return ConcreteRealization(n, units / norms[:, None, None])


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
    """Conjugated copy u A u* of a realization; orthonormality is preserved."""
    return ConcreteRealization(real.ambient_dim, u @ real.basis @ u.conj().T)


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix.

    The triangular factor's diagonal phases are normalized so the distribution
    is exactly Haar; deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = _as_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_skew_direction(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random skew-Hermitian matrix of unit operator norm."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    k = (z - z.conj().T) / 2.0
    return k / np.linalg.norm(k, 2)


def exp_skew(k: np.ndarray) -> np.ndarray:
    """exp(k) for a skew-Hermitian k: V diag(exp(i lam)) V*, with (lam, V) = eigh(-ik)."""
    lam, v = np.linalg.eigh(-1j * k)
    return (v * np.exp(1j * lam)) @ v.conj().T


def local_unitary(center: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary at distance about ``radius`` from ``center`` along a random direction."""
    n = center.shape[0]
    return center @ exp_skew(radius * random_skew_direction(n, rng))


def sample_dims(n: int, samples: int, seed: int, radius: float | None, step) -> tuple[int, ...]:
    """The dimensions ``step(w)`` over ``samples`` seeded draws of an n x n unitary w.

    Draw i uses the RNG stream derived from (seed, i), so the tally does not
    depend on execution order.  Without a radius w is Haar; with one, w is
    the local step ``local_unitary(I, radius, rng)`` and the caller composes
    it with its own center, on its own side.  Raises ValueError unless
    samples >= 1 and a given radius is positive and finite.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if radius is not None and not 0.0 < radius < math.inf:
        raise ValueError(f"local mode needs a positive finite radius, got {radius!r}")
    eye = np.eye(n, dtype=complex)
    dims = []
    for i in range(samples):
        rng = sample_stream(seed, i)
        w = haar_unitary(n, rng) if radius is None else local_unitary(eye, radius, rng)
        dims.append(step(w))
    return tuple(dims)


def commutant_basis(
    gens, tol: float | None = None, within: ConcreteRealization | None = None
) -> ConcreteRealization:
    """Orthonormal basis of the joint commutant {X : X A_g = A_g X for all g}.

    With ``within`` (an orthonormal realization known to hold the answer,
    such as ``amplified_commutant``) the unknowns are the coefficients c of
    X = sum_k c_k E_k over its basis E_k: the system has one column
    vec(E_k A - A E_k) per basis element, stacked over the generators, and
    with no generators the answer is ``within`` itself.  Without it, the
    condition reads (A kron I - I kron A^T) vec(X) = 0 over all of M_N,
    an N^2-column system.  Either system is QR-reduced to its square triangle
    when tall, and the nullspace is read off one SVD at a stable rank cutoff.
    """
    if within is not None:
        n, basis = within.ambient_dim, within.basis
        if not len(gens):
            return within
        d = len(basis)
        # row k of the transposed system is E_k A - A E_k for every A in turn
        system = np.empty((d, len(gens), n, n), dtype=complex)
        for i, a in enumerate(gens):
            np.matmul(basis, a, out=system[:, i])
            system[:, i] -= a @ basis
        null = _null_rows(system.reshape(d, -1).T, n, tol, "commutant system")
        coeff = null.conj() @ basis.reshape(d, n * n)
        return ConcreteRealization(n, coeff.reshape(-1, n, n))
    if not len(gens):
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(a, eye) - np.kron(eye, a.T) for a in gens]
    null = _null_rows(np.concatenate(rows), n, tol, "commutant system")
    return ConcreteRealization(n, null.conj().reshape(-1, n, n))


def intersect(
    a: ConcreteRealization, b: ConcreteRealization, tol: float | None = None
) -> ConcreteRealization:
    """Intersection of two realized subalgebras of the same M_N.

    Solved over the smaller realization, called ``a`` (the two are swapped
    when ``a`` is larger).  With A and B the bases as rows, a combination
    x A lies in span B exactly when the residual x (A - (A B*) B) vanishes,
    and the singular values of that residual are the sines of the principal
    angles between the spans.  The projection is applied twice, so its
    rounding stays at the level of one orthogonal projection; the dimension
    is the nullity of the d_a-column projected system, from one SVD.  The
    identity lies in both spans, so a nullity below 1 is a rank error; the
    output is re-verified to be closed under products and adjoints to within
    DEFAULT_CLOSURE_TOL.  Both failures raise NumericalInstabilityError with
    the measured defect.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatchError("realizations live in different ambient dimensions")
    if a.dimension > b.dimension:
        a, b = b, a
    n = a.ambient_dim
    rows_a = a.basis.reshape(a.dimension, n * n)
    rows_b = b.basis.reshape(b.dimension, n * n)
    bh = rows_b.conj().T
    resid = rows_a - (rows_a @ bh) @ rows_b
    resid -= (resid @ bh) @ rows_b
    null = _null_rows(resid.T, n, tol, "projected system")
    if len(null) < 1:
        raise NumericalInstabilityError(
            "intersection lost the identity; rank decision is suspect", float(len(null))
        )
    # Orthonormalize; x A has full rank, as A has orthonormal rows.
    q, _ = np.linalg.qr(rows_a.T @ null.conj().T)
    out = ConcreteRealization(n, q.T.reshape(-1, n, n))

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

    @property
    def min_dim(self) -> int:
        return min(self.dims)

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
    defaulting to the identity.
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

    def step(w):
        u = w if center is None else center @ w
        return intersect(r1, conjugate(r2, u), tol=tol).dimension

    return DensityStats(sample_dims(n, samples, seed, radius, step), seed, radius, center)
