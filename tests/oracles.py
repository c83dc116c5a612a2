"""Reference paths the tests compare the library against.

Each is a slower or more general way to the same answer that the library
itself does not take: realizations built from dense stacks of amplified
matrix units and their layouts found by a scan of those stacks, the
amplified units scattered from a layout, the known
commutant's basis entries by per-copy index lists, the N^2-column Kronecker
commutant, the commutant solved inside a known commutant from dense
products and its null rows, the null rows of a system from an SVD with
its singular factors, the dense twice-projected intersection residual and
the meet's basis from it with its closure check, the full (not only
canonical) enumeration of unital embeddings, the compatible embeddings by
a row-suffix memo built afresh in each call,
the exact joint commutant and intersection dimensions at Cayley unitaries
near the identity, over Q(i) mod two primes, the generic dimension of two
projections' joint commutant (Halmos), and a few small helpers that
only tests need (the class order, the center restriction, the gcd
embedding bound, padding a multiplicity row, a fixed rank cutoff).
None of them is reached from ``src``.
"""

import contextlib
import dataclasses
import functools
import itertools
import math
import operator

import numpy as np
import pytest

import subalg.numeric
from subalg.algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    MultiplicityMatrix,
    _fast_matrix,
    canonical_embedding_key,
    compose_multiplicities,
    enumerate_unital_embeddings,
)
from subalg.errors import DomainError, NumericalInstabilityError, ShapeMismatchError
from subalg.freeprod import RcpReport, rcp_check
from subalg.numeric import (
    ConcreteRealization,
    UnitLayout,
    _copy_indices,
    _ginibre,
    _triangle,
    amplify,
)
from subalg.serialize import matrix_to_json

# Absolute ceiling for the closure check of the dense paths: closure residuals
# of healthy algebras sit at machine noise, while a misdecided rank produces
# residuals at the scale of the ambiguous singular value.
DEFAULT_CLOSURE_TOL = 1e-9


def null_rows(system, n, what):
    """The rows of ``vh`` spanning the (conjugated) nullspace of one system.

    One SVD of its QR triangle with both singular factors, at the library's
    stable rank (``_stable_rank``): the decision ``_nullities`` makes from
    the singular values alone.
    """
    _, s, vh = np.linalg.svd(_triangle(system))
    return vh[subalg.numeric._stable_rank(s, n, what) :]


def vectors(r):
    """Basis of a realization as columns of an N^2 x d matrix (row-major vectorization)."""
    return r.basis.reshape(r.dimension, r.ambient_dim**2).T


@contextlib.contextmanager
def fixed_cutoff(tol):
    """Every rank decision of the library at the cutoff ``tol``, not ``default_tolerance``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subalg.numeric, "default_tolerance", lambda n, smax: tol)
        yield


def halmos_dim(n, p, q):
    """Generic joint commutant dimension of two projections of ranks p, q on C^n.

    Halmos' two-subspace theorem (P. R. Halmos, "Two subspaces", Trans. AMS
    144, 1969): k = min(p, n-p, q, n-q) two-dimensional pieces in generic
    position, each with a scalar commutant, plus the four corners P meet Q,
    P meet Q-perp, P-perp meet Q and P-perp meet Q-perp, of generic
    dimensions c, each adding a full M_c to the commutant.  It is the
    generic ``dpi`` dimension of C^2 (p, n-p) against C^2 (q, n-q).  As B1
    meet u B2 u* is the joint commutant of B1' and u B2' u*, it is also the
    generic ``density`` dimension of their commutants M_p+M_{n-p} against
    M_q+M_{n-q}.
    """
    k = min(p, n - p, q, n - q)
    corners = (p + q - n, p - q, q - p, n - p - q)
    return k + sum(max(c, 0) ** 2 for c in corners)


def contains_identity(r, tol=1e-10):
    """Whether the identity lies in the span of a realization, to within ``tol``."""
    eye = np.eye(r.ambient_dim, dtype=complex)[None]
    return float(r.project_residual(eye)[0]) <= tol


def kronecker_commutant(gens):
    """Joint commutant of a list of generators over all of M_N.

    The condition X A = A X reads (A kron I - I kron A^T) vec(X) = 0, an
    N^2-column system stacked over the generators, decided by the library's
    rank routine.
    """
    if not len(gens):
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(a, eye) - np.kron(eye, a.T) for a in gens]
    null = null_rows(np.concatenate(rows), n, "commutant system")
    return ConcreteRealization(n, null.conj().reshape(-1, n, n))


def model_matrix_units(structure):
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


def amplified_units(blocks, rows):
    """The matrix units of the blocks amplified over ``rows``, scattered from their layout.

    Unit k of the stack is unit k of the layout of the copy indices
    (``UnitLayout.of_copies``), with a 1 on each entry of its support.
    """
    layout = UnitLayout.of_copies(_copy_indices(blocks, rows))
    d, n = layout.dimension, layout.n
    units = np.zeros((d, n * n), dtype=complex)
    units[np.repeat(np.arange(d), layout.copies), layout.support] = 1.0
    return units.reshape(d, n, n)


def ambient_row(emb):
    """The embedding of an embedded algebra into M_N, as a one-row multiplicity matrix."""
    return MultiplicityMatrix(emb.structure, BlockStructure((emb.ambient_dim,)), (emb.mult,))


def embed_model(emb, a):
    """Map a stack of source block-model elements through a unital embedding, by ``amplify``."""
    if not emb.unital():
        raise ShapeMismatchError("embedding must be unital to fill the target exactly")
    return amplify(a, emb.source.blocks, emb.entries)


def scanned_layout(units):
    """The layout of a stack of 0/1 matrix units with disjoint supports, by a scan of the stack.

    Each unit's support is its nonzero flat entries in ascending order, and
    its partner is the unit that owns the transpose of its first entry.
    """
    d, n = units.shape[0], units.shape[1]
    unit, support = np.nonzero(units.reshape(d, n * n))
    copies = np.bincount(unit, minlength=d)
    owner = np.full(n * n, -1)
    owner[support] = unit
    row, col = np.divmod(support[np.cumsum(copies) - copies], n)
    return UnitLayout(n, support, copies, owner[col * n + row])


def dense_realization(n, units):
    """The Hermitian recombination of a dense stack of amplified matrix units, as gathers.

    E_kk for the diagonal units, then (E_k + E_k*)/sqrt 2 and
    i(E_k - E_k*)/sqrt 2 for each unit k whose first entry lies above the
    diagonal, summed from rows of the stack, with the layout of
    ``scanned_layout``.
    """
    layout = scanned_layout(units)
    d = units.shape[0]
    flat = units.reshape(d, n * n)
    row, col = np.divmod(layout.support[np.cumsum(layout.copies) - layout.copies], n)
    diag, upper = layout.diagonal, np.flatnonzero(row < col)
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


def dense_realize(emb):
    """``realize`` from the dense stack of the amplified matrix units."""
    units = model_matrix_units(emb.structure)
    return dense_realization(emb.ambient_dim, embed_model(ambient_row(emb), units))


def dense_realize_class(parent, emb):
    """``realize_class`` from the dense stack of the twice-amplified matrix units."""
    units = model_matrix_units(emb.source)
    units = embed_model(ambient_row(parent), embed_model(emb, units))
    return dense_realization(parent.ambient_dim, units)


def commutant_entries(blocks, rows):
    """The entries (element, row, col, scale) of the basis of ``amplified_commutant``.

    Copy c of every segment of block j is the index list pos + c + m p; the
    basis element of blocks j's copies (s, t) has 1/sqrt(n_j) at
    (copy s [p], copy t [p]) for every p, elements numbered block by block.
    """
    blocks = tuple(blocks)
    copies = [[] for _ in blocks]
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
    return tuple(np.concatenate(parts) for parts in (element, row_idx, col_idx, scale))


def dense_within(known):
    """The orthonormal basis of a layout of units (``amplified_commutant``), as a dense realization.

    Basis element k is unit k scaled by 1/sqrt(copies[k]).
    """
    n, d = known.n, known.dimension
    basis = np.zeros((d, n, n), dtype=complex)
    unit = np.repeat(np.arange(d), known.copies)
    basis[(unit, *np.divmod(known.support, n))] = np.repeat(1.0 / np.sqrt(known.copies), known.copies)
    return ConcreteRealization(n, basis)


def dense_commutator_system(gens, known):
    """The commutator systems of ``numeric._commutator_system``, from dense products.

    Row j of an item's transposed system is E_j A - A E_j for its every
    generator A in turn, E_j the dense basis of the known commutant.
    """
    basis = dense_within(known).basis
    k, g = np.shape(gens)[:2]
    d, n = basis.shape[:2]
    system = np.empty((k, d, g, n, n), dtype=complex)
    for i in range(g):
        a = gens[:, i, None]
        np.matmul(basis, a, out=system[:, :, i])
        system[:, :, i] -= a @ basis
    return system.reshape(k, d, -1).transpose(0, 2, 1)


def dense_commutant_basis(gens, known):
    """Orthonormal bases of the joint commutants of a stack of generator sets inside ``known``.

    Each item of the dense system of ``dense_commutator_system`` is decided
    by the library's null-row routine when the item is reached, and its null
    rows combine the dense basis of ``known``; with no generators every
    answer is ``known`` itself.
    """
    within = dense_within(known)
    k, g = np.shape(gens)[:2]
    if not g:
        return iter([within] * k)
    n, flat = within.ambient_dim, within.basis.reshape(within.dimension, -1)
    system = dense_commutator_system(gens, known)
    return (
        ConcreteRealization(n, (null.conj() @ flat).reshape(-1, n, n))
        for null in (null_rows(s, n, "commutant system") for s in system)
    )


def dense_residual(a, b):
    """Rows x (A - (A B*) B) of the residual of span A against span B, projected twice.

    The second projection keeps the rounding of a vector inside span B at
    the level of one orthogonal projection.
    """
    n = a.ambient_dim
    rows = a.basis.reshape(a.dimension, n * n)
    rows_b = b.basis.reshape(b.dimension, n * n)
    bh = rows_b.conj().T
    system = rows - (rows @ bh) @ rows_b
    system -= (system @ bh) @ rows_b
    return system


def dense_intersect(a, b):
    """Intersection of any two orthonormal realizations of the same M_N.

    Solved over the smaller side (the first on a tie) from the dense
    residual: its null rows combine that side's basis into an orthonormal
    basis of the intersection, which must hold the identity and be closed
    under products and adjoints to within DEFAULT_CLOSURE_TOL.
    """
    if a.dimension > b.dimension:
        a, b = b, a
    n = a.ambient_dim
    system = dense_residual(a, b)
    null = null_rows(system.T, n, "projected system").conj()
    if len(null) < 1:
        raise NumericalInstabilityError("intersection lost the identity", float(len(null)))
    out = ConcreteRealization(n, (null @ a.basis.reshape(a.dimension, n * n)).reshape(-1, n, n))
    defect = out.closure_defect()
    if defect > DEFAULT_CLOSURE_TOL:
        raise NumericalInstabilityError("intersection span is not closed", defect)
    return out


def _weighted_rows(weights, total):
    """Nonnegative rows v with v . weights == total, lexicographically ascending."""
    if not weights:
        return [()] if total == 0 else []
    head, rest = weights[0], weights[1:]
    return [
        (v,) + tail
        for v in range(total // head + 1)
        for tail in _weighted_rows(rest, total - v * head)
    ]


def all_unital_embeddings(source, target):
    """Every unital injective multiplicity matrix source -> target, canonical or not.

    Rows are chosen independently, grouped by the columns they touch; only
    the groups that together touch every column are expanded.  The output is
    sorted, so lexicographic on the row-major flattened entries.  The rows
    are unital and injective by construction, so they skip validation.
    """
    groups = []  # per target block: columns touched (a bit mask) -> the rows touching them
    for size in target.blocks:
        by_mask = {}
        for row in _weighted_rows(source.blocks, size):
            by_mask.setdefault(sum(1 << j for j, v in enumerate(row) if v), []).append(row)
        groups.append(by_mask)
    every = (1 << source.num_blocks) - 1
    found = []
    for masks in itertools.product(*groups):
        if functools.reduce(operator.or_, masks) == every:
            found.extend(itertools.product(*(g[m] for g, m in zip(groups, masks))))
    return [_fast_matrix(source, target, entries) for entries in sorted(found)]


def compatible_embeddings(structure, ambient_mult, other):
    """The library's compatible embeddings, by a row-suffix memo that lives for one call.

    Every target row is chosen among all rows of its weighted sum, and a
    row that overdraws a budget is filtered out.  The arguments are checked
    as the library checks them.
    """
    ambient_mult = tuple(int(m) for m in ambient_mult)
    if len(ambient_mult) != structure.num_blocks:
        raise ShapeMismatchError("multiplicity row length does not match block count")
    if any(m < 1 for m in ambient_mult):
        raise ValueError(f"ambient multiplicities must be >= 1, got {ambient_mult}")
    if sum(m * n for m, n in zip(ambient_mult, structure.blocks)) != other.ambient_dim:
        raise DomainError("ambient dimensions differ")
    target = other.structure
    weights = other.mult
    per_row = [_weighted_rows(structure.blocks, size) for size in target.blocks]
    last = len(per_row) - 1
    memo = {}

    def suffixes(i, remaining):
        key = (i, remaining)
        if key not in memo:
            w = weights[i]
            if i == last:
                row = tuple(r // w for r in remaining)
                out = ((row,),) if all(r == w * v for r, v in zip(remaining, row)) else ()
            else:
                out = []
                for row in per_row[i]:
                    nxt = tuple(r - w * v for r, v in zip(remaining, row))
                    if min(nxt) < 0:
                        continue
                    out.extend((row,) + tail for tail in suffixes(i + 1, nxt))
                out = tuple(out)
            memo[key] = out
        return memo[key]

    return [_fast_matrix(structure, target, entries) for entries in suffixes(0, ambient_mult)]


def class_leq(a, b):
    """Partial order on classes: a <= b iff a is realised by a subalgebra of b's representative.

    Relabeling equal source blocks permutes the composed columns alike, so
    one embedding per relabeling orbit decides the question.
    """
    if a.parent != b.parent:
        raise DomainError("classes live over different parents")
    target_key = a.key()
    for emb in enumerate_unital_embeddings(a.structure, b.structure):
        composed = compose_multiplicities(b.embedding, emb)
        if canonical_embedding_key(a.structure, composed.entries) == target_key:
            return True
    return False


def center_restriction(emb):
    """Restriction to the center: the abelian algebra C^l with multiplicities m(j) * n(j)."""
    mult = tuple(m * n for m, n in zip(emb.mult, emb.structure.blocks))
    abelian = BlockStructure((1,) * emb.structure.num_blocks)
    return EmbeddedAlgebra(emb.ambient_dim, abelian, mult)


def gcd_embedding_bound(structure, k1, k2):
    """Whether the structure unitally embeds into a single block of size gcd(k1, k2)."""
    if k1 < 1 or k2 < 1:
        raise ValueError("block sizes must be positive")
    g = math.gcd(k1, k2)
    return bool(enumerate_unital_embeddings(structure, BlockStructure((g,))))


def pad_multiplicities(mult, q):
    """Entrywise sum of a multiplicity row and a padding row of the same length."""
    mult, q = tuple(mult), tuple(q)
    if len(mult) != len(q):
        raise ShapeMismatchError(f"length mismatch: {len(mult)} vs {len(q)}")
    if any(v < 0 for v in q):
        raise ValueError("padding must be nonnegative")
    return tuple(int(m) + int(v) for m, v in zip(mult, q))


def ambient_embedding(cls):
    """Multiplicity matrix of a class representative straight into the ambient M_N."""
    return compose_multiplicities(ambient_row(cls.parent), cls.embedding)


def random_skew_direction(n, rng):
    """Random skew-Hermitian n x n matrix of unit operator norm.

    The skew part of a Ginibre draw over its norm from an SVD, not the
    library's one eigendecomposition (``local_unitaries``).
    """
    z = _ginibre(n, [rng])[0]
    k = (z - z.conj().T) / 2.0
    return k / np.linalg.norm(k, 2)


def with_unitary(rep, u):
    """The same representation pair with another perturbing unitary."""
    return dataclasses.replace(rep, u=u)


def rcp_check_pair(rep):
    """RCP ranks of both factors of a representation pair."""
    r1 = rcp_check(rep.algebra1, rep.mult1)
    r2 = rcp_check(rep.algebra2, rep.mult2)
    return RcpReport(r1.rank_lists + r2.rank_lists)


def free_element_to_json(x):
    """The probe-file encoding of a free-product element, inverse of ``free_element_from_json``."""
    return {
        "terms": [
            {
                "coeff": [float(c.real), float(c.imag)],
                "word": [
                    {"side": letter.side, "value": matrix_to_json(letter.value)}
                    for letter in word
                ],
            }
            for c, word in x.terms
        ]
    }


# The exact oracle near the identity: a Cayley transform u = (I + K)^-1 (I - K)
# of a skew-Hermitian K over Q(i) is exactly unitary, and a commutant
# dimension of its pair is read mod primes p = 1 (mod 4) below 2^31, where
# i = sqrt(-1) lies in F_p and a product of two residues fits in int64.
CAYLEY_PRIMES = (2147483629, 2147483549)


def cayley_draw(n, distance, rng):
    """A Cayley unitary with ||u - I||_2 about ``distance``: (G, s, u) for K = G / 2^s.

    G is skew-Hermitian with Gaussian-integer entries, each part at most 8
    in size, as a pair (Re G, Im G) of int64 arrays, and s is chosen so that
    2 ||K||_2 is ``distance`` to within a factor sqrt(2).  Floats hold K
    exactly, and the float u is solved from it; ``cayley_nullity`` reads
    the exact u from (G, s).
    """
    re, im = rng.integers(-8, 9, (2, n, n))
    re, im = np.triu(re, 1) - np.triu(re, 1).T, np.triu(im) + np.triu(im, 1).T
    g = re + 1j * im
    s = round(math.log2(2.0 * np.linalg.norm(g, 2) / distance))
    k, eye = g * 2.0**-s, np.eye(n)
    return (re, im), s, np.linalg.solve(eye + k, eye - k)


def _row_reduce(m, p):
    """The reduced row echelon form over F_p of an int64 matrix, and its pivot columns."""
    m = m % p
    pivots = []
    for col in range(m.shape[1]):
        r = len(pivots)
        nonzero = r + np.flatnonzero(m[r:, col])
        if not nonzero.size:
            continue
        m[[r, nonzero[0]]] = m[[nonzero[0], r]]
        m[r] = m[r] * pow(int(m[r, col]), p - 2, p) % p
        others = np.flatnonzero(m[:, col])
        others = others[others != r]
        m[others] = (m[others] - m[others, col][:, None] * m[r]) % p
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def _inverse_mod(m, p):
    """The inverse over F_p of a square int64 matrix; raises when it is singular mod p."""
    n = len(m)
    reduced, pivots = _row_reduce(np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1), p)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError(f"matrix is singular mod {p}")
    return reduced[:, n:]


def _matmul_mod(a, b, p):
    """a @ b over F_p for residues in int64: b in 16-bit halves keeps every sum below 2^63."""
    return ((a @ (b & 0xFFFF)) % p + (a @ (b >> 16)) % p * 0x10000) % p


def _cayley_mod(g, s, p):
    """The Cayley unitary u = (2^s I + G)^-1 (2^s I - G) of ``cayley_draw`` and u^-1 over F_p.

    i is read as a square root of -1 mod p.
    """
    root = next(c for c in itertools.count(2) if pow(c, (p - 1) // 2, p) == p - 1)
    gp = (g[0] % p + g[1] % p * pow(root, (p - 1) // 4, p)) % p
    eye = np.eye(len(gp), dtype=np.int64)
    plus, minus = (pow(2, s, p) * eye + gp) % p, (pow(2, s, p) * eye - gp) % p
    return _matmul_mod(_inverse_mod(plus, p), minus, p), _matmul_mod(_inverse_mod(minus, p), plus, p)


def _conjugated_units_mod(blocks, rows, u, inv, p):
    """u b u^-1 over F_p for the 0/1 units b of the blocks amplified over ``rows``."""
    units = amplified_units(blocks, rows).real.astype(np.int64)
    return [_matmul_mod(_matmul_mod(u, b, p), inv, p) for b in units]


def cayley_nullity(alg1, mult1, alg2, mult2, g, s, p):
    """Nullity over F_p of X -> ([X, a])_a for the units a of A1 and of u A2 u^-1.

    u is the Cayley unitary of (G, s) (``_cayley_mod``).  The system is the
    N^2-column Kronecker one, (I kron a^T - a kron I) vec X, stacked over
    the units.  Reduction mod p keeps every relation of the system over
    Q(i), so the nullity mod p is at least the nullity over Q(i).
    """
    u, inv = _cayley_mod(g, s, p)
    n = len(u)
    eye = np.eye(n, dtype=np.int64)
    units1 = amplified_units(alg1.blocks, [mult1]).real.astype(np.int64)
    gens = [*units1, *_conjugated_units_mod(alg2.blocks, [mult2], u, inv, p)]
    system = np.concatenate([np.kron(eye, a.T) - np.kron(a, eye) for a in gens])
    return n * n - len(_row_reduce(system, p)[1])


def cayley_meet_dim(b1, b2, g, s, p):
    """d1 + d2 less the rank over F_p of the units of B1 and u b u^-1 for the units b of B2.

    u is the Cayley unitary of (G, s) (``_cayley_mod``).  The units of each
    side are a basis of it, so over Q(i) this is dim(B1 meet u B2 u^-1); the
    rank is taken over the N^2 flat entries, and reduction mod p can only
    lower it, so the value mod p is at least the exact one.
    """
    u, inv = _cayley_mod(g, s, p)
    units1 = amplified_units(b1.structure.blocks, [b1.mult]).real.astype(np.int64)
    units2 = _conjugated_units_mod(b2.structure.blocks, [b2.mult], u, inv, p)
    stacked = np.concatenate([units1, units2]).reshape(len(units1) + len(units2), -1)
    return len(stacked) - len(_row_reduce(stacked, p)[1])


def _exact_from_primes(values):
    """The exact dimension from its upper bounds at the CAYLEY_PRIMES.

    The identity is in every space measured, so a 1 at either prime is
    exact; a larger value must agree at both primes.
    """
    if min(values) == 1:
        return 1
    assert values[0] == values[1], values
    return values[0]


def exact_joint_commutant_dim(alg1, mult1, alg2, mult2, g, s):
    """dim (A1 + u A2 u^-1)' over Q(i) for the Cayley unitary of (G, s), mod two primes."""
    return _exact_from_primes(
        [cayley_nullity(alg1, mult1, alg2, mult2, g, s, p) for p in CAYLEY_PRIMES]
    )


def exact_meet_dim(b1, b2, g, s):
    """dim(B1 meet u B2 u^-1) over Q(i) for the Cayley unitary of (G, s), mod two primes."""
    return _exact_from_primes([cayley_meet_dim(b1, b2, g, s, p) for p in CAYLEY_PRIMES])
