"""Reference paths the tests compare the library against.

Each is a slower or more general way to the same answer that the library
itself does not take: the N^2-column Kronecker commutant, the dense
twice-projected intersection residual, the full (not only canonical)
enumeration of unital embeddings, and a few small helpers that only tests
need.  None of them is reached from ``src``.
"""

import dataclasses
import functools
import itertools
import operator

import numpy as np

import subalg.numeric
from subalg.algebra import _fast_matrix, compose_multiplicities
from subalg.errors import NumericalInstabilityError
from subalg.freeprod import RcpReport, rcp_check
from subalg.numeric import DEFAULT_CLOSURE_TOL, ConcreteRealization, _ginibre, _skew_directions
from subalg.serialize import matrix_to_json


def vectors(r):
    """Basis of a realization as columns of an N^2 x d matrix (row-major vectorization)."""
    return r.basis.reshape(r.dimension, r.ambient_dim**2).T


def contains_identity(r, tol=1e-10):
    """Whether the identity lies in the span of a realization, to within ``tol``."""
    eye = np.eye(r.ambient_dim, dtype=complex)[None]
    return float(r.project_residual(eye)[0]) <= tol


def kronecker_commutant(gens, tol=None):
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
    null = next(subalg.numeric._null_rows(np.concatenate(rows)[None], n, tol, "commutant system"))
    return ConcreteRealization(n, null.conj().reshape(-1, n, n))


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


def dense_intersect(a, b, tol=None):
    """Intersection of any two orthonormal realizations of the same M_N.

    Solved over the smaller side (the first on a tie) from the dense
    residual, with the same identity and closure checks as ``intersect``.
    """
    if a.dimension > b.dimension:
        a, b = b, a
    n = a.ambient_dim
    system = dense_residual(a, b)
    null = next(subalg.numeric._null_rows(system.T[None], n, tol, "projected system")).conj()
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


def ambient_embedding(cls):
    """Multiplicity matrix of a class representative straight into the ambient M_N."""
    return compose_multiplicities(cls.parent.ambient_row(), cls.embedding)


def random_skew_direction(n, rng):
    """Random skew-Hermitian n x n matrix of unit operator norm."""
    return _skew_directions(_ginibre(n, [rng]))[0]


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
