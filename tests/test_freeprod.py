"""Tests for free-product representation machinery: evaluation, RCP, DPI, staged builds."""

import math
import tracemalloc
from functools import partial
from itertools import count, product

import numpy as np
import pytest

import subalg
from subalg.algebra import BlockStructure, EmbeddedAlgebra, enumerate_embedded_algebras
from subalg.errors import NumericalInstabilityError, SearchExhaustedError, ShapeMismatchError
from subalg.freeprod import (
    FreeElement,
    Letter,
    RepPair,
    decision_bytes,
    dpi_probe,
    evaluate,
    joint_commutant_dim,
    lipschitz_bound,
    rcp_balance,
    rcp_check,
    staged_build,
    _extend,
    _joint_dim_kernel,
)
from subalg.numeric import (
    DRAW_MATRICES,
    EPS,
    _realization,
    amplified_commutant,
    amplify,
    density_experiment,
    haar_unitary,
    intersect,
    local_unitary,
    realize,
    resolution,
    sample_stream,
)

from oracles import (
    amplified_units,
    cayley_draw,
    exact_joint_commutant_dim,
    fixed_cutoff,
    halmos_dim,
    dense_commutator_system,
    dense_intersect,
    kronecker_commutant,
    model_matrix_units,
    pad_multiplicities,
    rcp_check_pair,
    with_unitary,
)

M2 = BlockStructure((2,))
C2 = BlockStructure((1, 1))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def random_contraction(rng, size):
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return z / (np.linalg.norm(z, 2) * rng.uniform(1.0, 2.0))


def random_element(rng, rep, max_letters=3):
    sizes = {1: rep.algebra1.model_dim(), 2: rep.algebra2.model_dim()}
    terms = []
    for _ in range(rng.integers(1, 3)):
        side = int(rng.integers(1, 3))
        word = []
        for _ in range(rng.integers(0, max_letters + 1)):
            word.append(Letter(side, random_contraction(rng, sizes[side])))
            side = 3 - side
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((coeff, tuple(word)))
    return FreeElement(tuple(terms))


class TestRepPairUnitarity:
    @pytest.mark.parametrize(
        "n, scale, ok",
        [
            # validate's 10 * N^2 * eps at every N (defect = 2 * d * sqrt(N)):
            # 3.553e-14 at N = 4, where an absolute floor of 1e-12 once
            # admitted 1 + 2e-13 (defect 8e-13)
            (4, 1 + 8e-15, True),
            (4, 1 + 2e-13, False),
            (4, 1 + 3e-13, False),
            # 1.279e-12 at N = 24
            (24, 1 + 1.12e-13, True),
            (24, 1 + 2.7e-13, False),
        ],
    )
    def test_bound_matches_config_validation(self, n, scale, ok):
        u = scale * np.eye(n)
        if ok:
            assert RepPair(C2, (n // 2,) * 2, C2, (n // 2,) * 2, u).dim == n
        else:
            with pytest.raises(ValueError, match="not unitary"):
                RepPair(C2, (n // 2,) * 2, C2, (n // 2,) * 2, u)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), 1e200])
    def test_non_finite_entries_rejected(self, entry):
        # the defect is NaN or infinite, which no bound admits, and its
        # overflow raises no RuntimeWarning
        u = np.array([[entry, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"perturbation is not unitary \(defect (nan|inf)\)"):
            RepPair(C2, (1, 1), M2, (1,), u)


class TestEvaluate:
    def setup_method(self):
        self.rep = RepPair(M2, (2,), M2, (2,), haar_unitary(4, 8))

    def test_side1_letter_ignores_u(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        x = FreeElement.word(1.0, [Letter(1, a)])
        expected = amplify(a, M2.blocks, [(2,)])
        assert np.allclose(evaluate(self.rep, x), expected)

    def test_empty_word_is_identity(self):
        assert np.allclose(evaluate(self.rep, FreeElement.unit()), np.eye(4))

    def test_two_letter_word_product(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        b = np.array([[1, 0], [0, -1]], dtype=complex)
        rep = with_unitary(self.rep, np.eye(4))
        x = FreeElement.word(1.0, [Letter(1, a), Letter(2, b)])
        # direct matrix-product oracle at u = I
        expected = np.kron(a, np.eye(2)) @ np.kron(b, np.eye(2))
        assert np.allclose(evaluate(rep, x), expected)

    def test_alternation_enforced(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            FreeElement.word(1.0, [Letter(1, a), Letter(1, a)])

    def test_letter_shape_checked(self):
        x = FreeElement.word(1.0, [Letter(1, np.eye(3, dtype=complex))])
        with pytest.raises(ShapeMismatchError):
            evaluate(self.rep, x)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_element(rng, self.rep)
            y = random_element(rng, self.rep)
            c = complex(rng.standard_normal(), rng.standard_normal())
            combined = FreeElement(
                tuple((c * cf, w) for cf, w in x.terms) + y.terms
            )
            lhs = evaluate(self.rep, combined)
            rhs = c * evaluate(self.rep, x) + evaluate(self.rep, y)
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_multiplicative_on_word_concatenation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w1 = [Letter(1, random_contraction(rng, 2)), Letter(2, random_contraction(rng, 2))]
            w2 = [Letter(1, random_contraction(rng, 2)), Letter(2, random_contraction(rng, 2))]
            x1 = FreeElement.word(1.0, w1)
            x2 = FreeElement.word(1.0, w2)
            joined = FreeElement.word(1.0, w1 + w2)
            lhs = evaluate(self.rep, joined)
            rhs = evaluate(self.rep, x1) @ evaluate(self.rep, x2)
            assert np.linalg.norm(lhs - rhs) < 1e-10


class TestLipschitz:
    def test_single_side2_letter(self):
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        x = FreeElement.word(1.0, [Letter(2, b)])
        assert lipschitz_bound(x) == pytest.approx(2.0)

    def test_pure_side1_is_zero(self):
        x = FreeElement.word(3.0, [Letter(1, np.eye(2, dtype=complex))])
        assert lipschitz_bound(x) == 0.0
        assert lipschitz_bound(FreeElement.unit()) == 0.0

    def test_contract_on_random_triples(self):
        rng = np.random.default_rng(77)
        rep0 = RepPair(M2, (2,), M2, (2,), np.eye(4))
        violations = 0
        for _ in range(100):
            x = random_element(rng, rep0)
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            dev = np.linalg.norm(
                evaluate(with_unitary(rep0, u), x) - evaluate(with_unitary(rep0, v), x), 2
            )
            if dev > lipschitz_bound(x) * np.linalg.norm(u - v, 2):
                violations += 1
        assert violations == 0


# the least epsilon for which stage 2's search radius (epsilon / 12) / 2 of
# C^2 (1, 1) against itself is resolved at N = 4: the float above 24 times the
# bound, which halves to the bound itself
LEAST_EPSILON = math.nextafter(24 * resolution(4), math.inf)

ROW_ENTRIES = {
    "RepPair": lambda row: RepPair(C2, row, M2, (1,), np.eye(2)),
    "rcp_check": lambda row: rcp_check(C2, row),
    "rcp_balance": lambda row: rcp_balance(C2, row, M2, (1,)),
    "staged_build": lambda row: staged_build(C2, M2, [(row, (1,))], 0.5, [], 1),
}
BAD_ROWS = {
    "short": ((2,), ShapeMismatchError),  # zip would truncate it to its first blocks
    "long": ((1, 1, 0), ShapeMismatchError),
    "negative": ((3, -1), ValueError),  # it fills dimension 2, as M2 (1) does
}


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(partial(entry, row), error, id=f"{name}-{kind}")
        for name, entry in ROW_ENTRIES.items()
        for kind, (row, error) in BAD_ROWS.items()
    ]
    + [
        pytest.param(
            partial(staged_build, C2, M2, [((0, 0), (0,)), ((1, 1), (1,))], 0.5, [], 1),
            ValueError,
            id="staged_build-empty-first-stage",
        ),
        pytest.param(
            partial(RepPair, C2, (0, 0), M2, (0,), np.zeros((0, 0))),
            ValueError,
            id="RepPair-zero-dimension",
        ),
    ],
)
def test_malformed_multiplicity_rows_rejected(call, error):
    with pytest.raises(error):
        call()


class TestRcpCheck:
    def test_unbalanced_fails(self):
        report = rcp_check(C2, (1, 3))
        assert report.rank_lists == ((1, 3),)
        assert not report.passes
        # oracle: ranks of the realized central projections
        p1 = np.diag([1.0, 0, 0, 0])
        p2 = np.diag([0.0, 1, 1, 1])
        assert (np.linalg.matrix_rank(p1), np.linalg.matrix_rank(p2)) == (1, 3)

    def test_single_block_vacuous(self):
        assert rcp_check(M2, (5,)).passes

    def test_balanced_passes(self):
        report = rcp_check(C2, (3, 3))
        assert report.rank_lists == ((3, 3),)
        assert report.passes

    def test_verdict_depends_only_on_multiplicities(self):
        # the verdict is structurally independent of any perturbing unitary
        rep1 = RepPair(C2, (1, 1), C2, (1, 1), np.eye(2))
        rep2 = with_unitary(rep1, rotation(0.3))
        assert rcp_check_pair(rep1).rank_lists == rcp_check_pair(rep2).rank_lists

    def test_direct_sum_of_rcp_pairs_is_rcp(self):
        # entrywise sum of two passing multiplicity rows still has constant ranks
        rng = np.random.default_rng(11)
        for _ in range(50):
            blocks = tuple(int(b) for b in rng.integers(1, 4, size=rng.integers(1, 4)))
            alg = BlockStructure(blocks)
            n = np.lcm.reduce(blocks)
            r = [n // b for b in blocks]
            s1, s2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m1 = tuple(s1 * v for v in r)
            m2 = tuple(s2 * v for v in r)
            assert rcp_check(alg, m1).passes and rcp_check(alg, m2).passes
            assert rcp_check(alg, pad_multiplicities(m1, m2)).passes


class TestPadMultiplicities:
    def test_worked_step(self):
        assert pad_multiplicities((1, 3), (2, 0)) == (3, 3)

    def test_zero_padding(self):
        assert pad_multiplicities((2, 5), (0, 0)) == (2, 5)
        assert pad_multiplicities((2,), (1,)) == (3,)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            pad_multiplicities((1, 2), (1,))


def _solve_mult_row(blocks, target, rng):
    """Find a nonnegative multiplicity row with given weighted sum, or None."""
    for _ in range(200):
        row = []
        remaining = target
        for i, b in enumerate(blocks):
            if i == len(blocks) - 1:
                if remaining % b == 0:
                    row.append(remaining // b)
                    remaining = 0
                else:
                    break
            else:
                m = int(rng.integers(0, remaining // b + 1))
                row.append(m)
                remaining -= m * b
        else:
            if remaining == 0:
                return tuple(row)
    return None


class TestRcpBalance:
    def test_worked_instance(self):
        bal = rcp_balance(C2, (1, 3), M2, (2,))
        assert bal.s == 3
        assert bal.qhat1 == (2, 0)
        assert bal.qhat2 == (1,)
        assert bal.final_mult1 == (3, 3)
        assert bal.final_mult2 == (3,)
        assert bal.final_dim == 6
        assert rcp_check(C2, bal.final_mult1).rank_lists == ((3, 3),)
        assert rcp_check(M2, bal.final_mult2).rank_lists == ((6,),)

    def test_fixed_point_when_already_balanced(self):
        bal = rcp_balance(M2, (1,), M2, (1,))
        assert bal.qhat1 == (0,) and bal.qhat2 == (0,)
        assert bal.final_dim == 2
        bal2 = rcp_balance(C2, (3, 3), M2, (3,))
        assert bal2.qhat1 == (0, 0) and bal2.qhat2 == (0,)
        assert bal2.final_dim == 6

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            rcp_balance(C2, (1, 1), M2, (2,))

    def test_fractional_multiplicity_rejected(self):
        # int() would truncate 1.9 to 1 and balance (1, 3)
        with pytest.raises(ValueError, match="integers"):
            rcp_balance(C2, (1.9, 3), M2, (2,))

    def test_random_inputs_all_balance(self):
        rng = np.random.default_rng(2718)
        done = 0
        while done < 100:
            blocks1 = tuple(int(b) for b in rng.integers(1, 5, size=rng.integers(1, 4)))
            blocks2 = tuple(int(b) for b in rng.integers(1, 5, size=rng.integers(1, 4)))
            dim = int(rng.integers(1, 25))
            m1 = _solve_mult_row(blocks1, dim, rng)
            m2 = _solve_mult_row(blocks2, dim, rng)
            if m1 is None or m2 is None:
                continue
            bal = rcp_balance(BlockStructure(blocks1), m1, BlockStructure(blocks2), m2)
            assert rcp_check(BlockStructure(blocks1), bal.final_mult1).passes
            assert rcp_check(BlockStructure(blocks2), bal.final_mult2).passes
            assert all(f >= m for f, m in zip(bal.final_mult1, m1))
            assert all(f >= m for f, m in zip(bal.final_mult2, m2))
            done += 1


class TestIrreducibility:
    def test_full_matrix_algebra(self):
        rep = RepPair(M2, (1,), M2, (1,), np.eye(2))
        assert joint_commutant_dim(rep) == 1

    def test_common_diagonal_reducible(self):
        rep = RepPair(C2, (1, 1), C2, (1, 1), np.eye(2))
        assert joint_commutant_dim(rep) > 1

    def test_rotated_projections_irreducible(self):
        rep = RepPair(C2, (1, 1), C2, (1, 1), rotation(np.pi / 4))
        assert joint_commutant_dim(rep) == 1

    def test_joint_commutant_equals_commutant_intersection(self):
        # same answer through the two-commutants route
        rep = RepPair(C2, (2, 2), C2, (2, 2), haar_unitary(4, 13))
        e = EmbeddedAlgebra(4, C2, (2, 2))
        r = realize(e)
        c1 = kronecker_commutant(list(r.basis))
        conj_gens = [rep.u @ g @ rep.u.conj().T for g in r.basis]
        c2 = kronecker_commutant(conj_gens)
        assert joint_commutant_dim(rep) == dense_intersect(c1, c2).dimension


    def test_joint_commutant_is_the_intersection_of_the_commutant_pair(self):
        # (A1 + u A2 u*)' = A1' meet u A2' u*: the commutant of an amplified
        # block algebra is the layout of its transposed copy indices, realized
        # and intersected like any other; identity, Haar and local 1e-3 u
        rng = sample_stream(19)
        dims = []
        for n in range(2, 7):
            algebras = enumerate_embedded_algebras(n)
            commutants = [
                _realization(amplified_commutant(a.structure.blocks, [a.mult])) for a in algebras
            ]
            for i in range(80):
                j1, j2 = rng.integers(len(algebras), size=2)
                a1, a2 = algebras[j1], algebras[j2]
                u = (
                    np.eye(n, dtype=complex),
                    haar_unitary(n, rng),
                    local_unitary(np.eye(n), 1e-3, rng),
                )[i % 3]
                rep = RepPair(a1.structure, a1.mult, a2.structure, a2.mult, u)
                meet = intersect(commutants[j1], commutants[j2], u)
                assert joint_commutant_dim(rep) == meet, (a1, a2, i % 3)
                dims.append(meet)
        assert len(dims) == 400 and min(dims) == 1 and max(dims) > 16

    def test_dpi_is_density_on_the_commutant_pairs(self):
        # A = sum M_b (x) 1_m has the commutant A' = sum 1_b (x) M_m, the
        # algebra with blocks and mult swapped, and (A1 + w A2 w*)' is
        # A1' meet w A2' w*.  dpi on (A1, A2) at u = I and density on
        # (A1', A2') draw sample i from the same stream (7, i), so they agree
        # sample by sample, on every ordered pair of algebras in M_n, n <= 6
        def dual(a):
            return EmbeddedAlgebra(a.ambient_dim, BlockStructure(a.mult), a.structure.blocks)

        pairs = 0
        for n in range(1, 7):
            for a1, a2 in product(enumerate_embedded_algebras(n), repeat=2):
                rep = RepPair(a1.structure, a1.mult, a2.structure, a2.mult, np.eye(n))
                dims = dpi_probe(rep, 2, 7).dims
                assert dims == density_experiment(dual(a1), dual(a2), 2, 7).dims, (a1, a2)
                pairs += 1
        assert pairs == 1601


def kronecker_joint_dim(rep):
    """The oracle: the N^2-column Kronecker commutant of the units of both sides."""
    units1 = amplify(model_matrix_units(rep.algebra1), rep.algebra1.blocks, [rep.mult1])
    units2 = amplify(model_matrix_units(rep.algebra2), rep.algebra2.blocks, [rep.mult2])
    return kronecker_commutant([*units1, *(rep.u @ units2 @ rep.u.conj().T)]).dimension


class TestRestrictedSolve:
    def test_matches_kronecker_oracle(self):
        # seeded sweep of pairs in M_N, N = 2..6, with identity, Haar, local
        # (radius 1e-4 to 1e-1) and permutation u; either side may hold the
        # smaller commutant.  Permutations make dim(u) differ from dim(u^-1),
        # so they pin which side of the similarity each solve conjugates.
        rng = np.random.default_rng(2024)
        algebras = {n: enumerate_embedded_algebras(n) for n in range(2, 7)}
        kinds = ("identity", "haar", "local", "permutation")
        seen = {kind: set() for kind in kinds}
        for i in range(420):
            n = int(rng.integers(2, 7))
            a, b = (algebras[n][k] for k in rng.integers(0, len(algebras[n]), size=2))
            stream = sample_stream(77, i)
            kind = kinds[i % 4]
            if kind == "identity":
                u = np.eye(n, dtype=complex)
            elif kind == "haar":
                u = haar_unitary(n, stream)
            elif kind == "local":
                u = local_unitary(np.eye(n), 10.0 ** stream.uniform(-4, -1), stream)
            else:
                u = np.eye(n, dtype=complex)[stream.permutation(n)]
            rep = RepPair(a.structure, a.mult, b.structure, b.mult, u)
            dim = joint_commutant_dim(rep)
            assert dim == kronecker_joint_dim(rep), (a, b, kind)
            seen[kind].add(dim)
        assert all(len(dims) > 3 for dims in seen.values())

    @pytest.mark.parametrize(
        "kind, expected",
        # at u = I the diagonal atoms have sizes 16, 8, 8, 16
        [("identity", 16**2 + 8**2 + 8**2 + 16**2), ("haar", 1), ("local", 1)],
    )
    def test_large_n_c2_against_c3(self, kind, expected):
        # N = 48: C^2 (24, 24) against C^3 (16, 16, 16); the Kronecker system
        # would have 2304 columns, the restricted one has 768
        n = 48
        rng = sample_stream(48, 0)
        u = {
            "identity": np.eye(n, dtype=complex),
            "haar": haar_unitary(n, rng),
            "local": local_unitary(np.eye(n), 1e-3, rng),
        }[kind]
        rep = RepPair(C2, (24, 24), BlockStructure((1, 1, 1)), (16, 16, 16), u)
        assert joint_commutant_dim(rep) == expected


# Pairs at N <= 8 and their exact joint commutant dimension at Cayley
# unitaries near the identity: C^2 (2, 2) against M2 (2) is the CLI repro of
# a wrong answer at radius 1e-15, C^2 (2, 2) against itself decides 2, and
# C^2 (4, 4) against M2 (4) answered 16 at ||u - I||_2 about 1e-14 before a
# given u within resolution of the identity was refused.
EXACT_PAIRS = [
    (C2, (1, 1), M2, (1,), 1),
    (C2, (2, 2), M2, (2,), 1),
    (C2, (2, 2), C2, (2, 2), 2),
    (BlockStructure((1, 1, 1)), (2, 2, 2), BlockStructure((1, 1, 1)), (2, 2, 2), 1),
    (BlockStructure((1, 2)), (2, 1), C2, (2, 2), 1),
    (C2, (4, 4), BlockStructure((1, 2)), (2, 3), 1),
    (C2, (4, 4), M2, (4,), 1),
]


class TestExactNearIdentity:
    @pytest.mark.parametrize("e", range(1, 17))
    @pytest.mark.parametrize("index", range(len(EXACT_PAIRS)))
    def test_joint_commutant_dim_is_exact(self, index, e):
        # two Cayley draws with ||u - I||_2 about 10^-e, decided from the
        # float u and checked against the nullity over Q(i) mod two primes:
        # every decision is exact or raises, and every draw with e <= 12
        # decides.  From e = 14 on ||u - I||_F is within resolution, 10 N^2
        # eps, and the draw is refused, where it could answer wrongly
        alg1, mult1, alg2, mult2, expected = EXACT_PAIRS[index]
        n = sum(b * m for b, m in zip(alg1.blocks, mult1))
        rng = np.random.default_rng([index, e])
        for _ in range(2):
            g, s, u = cayley_draw(n, 10.0**-e, rng)
            assert 0.5 <= np.linalg.norm(u - np.eye(n), 2) * 10.0**e <= 2.0
            exact = exact_joint_commutant_dim(alg1, mult1, alg2, mult2, g, s)
            assert exact == expected
            try:
                assert joint_commutant_dim(RepPair(alg1, mult1, alg2, mult2, u)) == exact
            except NumericalInstabilityError:
                assert e > 12

    def test_a_given_u_within_resolution_of_the_identity_raises(self):
        # u = diag(e^{it}, 1, 1, 1) commutes with C^2 (2, 2), whose commutant
        # M2 + M2 is the answer, 8, at ||u - I||_F = t: at or below the bound
        # 10 N^2 eps the decision could not tell u from I and is refused,
        # and I itself and the next float up decide
        bound = resolution(4)
        for t in (5e-324, 1e-15, bound):
            rep = RepPair(C2, (2, 2), C2, (2, 2), np.diag([np.exp(1j * t), 1.0, 1.0, 1.0]))
            with pytest.raises(NumericalInstabilityError, match="within resolution") as info:
                joint_commutant_dim(rep)
            assert info.value.defect == (t if t > 1e-300 else 0.0)  # its square underflows
        for u in (np.eye(4), np.diag([np.exp(1j * math.nextafter(bound, math.inf)), 1, 1, 1])):
            assert joint_commutant_dim(RepPair(C2, (2, 2), C2, (2, 2), u)) == 8


class TestHalmosOracle:
    """dpi on C^2 (p, n-p) against C^2 (q, n-q) against ``halmos_dim``.

    Haar draws are swept in the acceptance suite
    (``test_hypothesis_boundary_halmos_oracle``).
    """

    @pytest.mark.parametrize("radius", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12], ids=str)
    def test_dpi_is_exact_or_raises(self, radius):
        # 2 samples at seed 7 for every 1 <= p, q < n <= 10: each run gives
        # the exact answer on both samples or raises NumericalInstabilityError;
        # local steps of radius 1e-3 decide every run
        wrong, raised = [], []
        for n in range(2, 11):
            for p, q in product(range(1, n), repeat=2):
                rep = RepPair(C2, (p, n - p), C2, (q, n - q), np.eye(n))
                try:
                    dims = dpi_probe(rep, 2, 7, radius=radius).dims
                except NumericalInstabilityError:
                    raised.append((n, p, q))
                    continue
                if dims != (halmos_dim(n, p, q),) * 2:
                    wrong.append((n, p, q, dims))
        assert wrong == []
        if radius == 1e-3:
            assert raised == []

    @pytest.mark.parametrize("radius", [None, 1e-3], ids=str)
    @pytest.mark.parametrize("n, p, q, want", [(24, 12, 12, 12), (32, 10, 20, 114)])
    def test_dpi_at_large_n(self, n, p, q, want, radius):
        assert halmos_dim(n, p, q) == want
        rep = RepPair(C2, (p, n - p), C2, (q, n - q), np.eye(n))
        assert dpi_probe(rep, 1, 7, radius=radius).dims == (want,)


class TestDpiProbe:
    def test_balanced_pair_always_irreducible(self):
        rep = RepPair(C2, (3, 3), M2, (3,), np.eye(6))
        stats = dpi_probe(rep, 20, seed=5)
        assert stats.trivial_count == 20

    def test_multiplicity_two_projections_never(self):
        rep = RepPair(C2, (2, 2), C2, (2, 2), np.eye(4))
        stats = dpi_probe(rep, 20, seed=5)
        assert stats.trivial_count == 0

    def test_translation_covariance_seed_coupled(self):
        # probing a perturbed pair equals probing with manually composed unitaries
        u0 = haar_unitary(2, 21)
        rep = RepPair(C2, (1, 1), C2, (1, 1), u0)
        stats = dpi_probe(rep, 10, seed=9)
        from subalg.numeric import sample_stream

        manual = []
        base = with_unitary(rep, np.eye(2))
        for i in range(10):
            w = haar_unitary(2, sample_stream(9, i))
            manual.append(joint_commutant_dim(with_unitary(base, w @ u0)))
        assert stats.dims == tuple(manual)

    def test_local_mode(self):
        rep = RepPair(M2, (2,), M2, (2,), haar_unitary(4, 3))
        stats = dpi_probe(rep, 10, seed=2, radius=1e-3)
        assert stats.trivial_count == 10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [0.0, -1e-3, float("nan"), float("inf")])
@pytest.mark.parametrize("probe", ["density", "dpi"])
def test_radius_not_positive_finite_raises(probe, radius):
    # both probes draw through one sampler, which rejects the radius before
    # any numpy work: a NaN or infinite radius would end in LinAlgError
    with pytest.raises(ValueError, match="positive finite radius"):
        if probe == "density":
            b = EmbeddedAlgebra(4, M2, (2,))
            density_experiment(b, b, 2, seed=1, radius=radius)
        else:
            dpi_probe(RepPair(C2, (1, 1), C2, (1, 1), np.eye(2)), 2, 1, radius=radius)


@pytest.mark.parametrize("probe", ["density", "dpi"])
def test_radius_below_resolution_raises(probe):
    # at N = 4 a local step at or below 10 N^2 eps = 3.553e-14 cannot be told
    # from rounding: at 1e-15 dpi on C^2 (2, 2) against M2 (2) reported
    # [4]*4 where the answer is 1, and density on M2+M2 (1, 1) against
    # itself [8]*4 where it is 2.  The next float up is drawn and decided,
    # or raises as unstable, never as unresolved.
    bound = resolution(4)

    def run(radius):
        if probe == "density":
            b = EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1))
            return density_experiment(b, b, 4, seed=1, radius=radius)
        return dpi_probe(RepPair(C2, (2, 2), M2, (2,), np.eye(4)), 4, 1, radius=radius)

    for radius in (1e-15, 1e-300, 5e-324, bound):
        with pytest.raises(ValueError, match=f"radius {radius!r} is below resolution"):
            run(radius)
    outcome(run, math.nextafter(bound, math.inf))


class TestStagedBuild:
    def test_single_stage_identity(self):
        build = staged_build(M2, M2, [((1,), (1,))], 0.5, [], seed=1)
        (stage,) = build.stages
        assert stage.irreducible
        assert stage.tries == 0
        assert stage.bound == 0.0
        assert np.allclose(build.cumulative[0], np.eye(2))

    def test_three_stages(self):
        stages = [((1,), (1,))] * 3
        build = staged_build(M2, M2, stages, 0.5, [], seed=11)
        assert [s.dim for s in build.stages] == [2, 4, 6]
        assert all(s.irreducible for s in build.stages)
        for k, stage in enumerate(build.stages, start=1):
            assert stage.bound < 0.5 / ((k + 1) * (k + 2))
        assert build.total_bound < 0.25
        # what the build decided, not its inputs (epsilon, seed), which a
        # report states once, in its config
        assert list(vars(build)) == ["stages", "cumulative"]
        assert list(build.to_json_dict()) == ["total_perturbation", "stages"]

    def test_cumulative_product_invariant(self):
        from scipy.linalg import block_diag

        stages = [((1,), (1,))] * 3
        build = staged_build(M2, M2, stages, 0.5, [], seed=11)
        prev = None
        for stage, cum in zip(build.stages, build.cumulative):
            padded = (
                np.eye(stage.dim)
                if prev is None
                else block_diag(prev, np.eye(stage.dim - prev.shape[0]))
            )
            gap = np.linalg.norm(cum - padded, 2)
            assert gap == pytest.approx(stage.bound, abs=1e-12)
            prev = cum

    def test_bit_reproducible(self):
        stages = [((1,), (1,))] * 2
        b1 = staged_build(M2, M2, stages, 0.5, [], seed=4)
        b2 = staged_build(M2, M2, stages, 0.5, [], seed=4)
        assert all(np.array_equal(x.u, y.u) for x, y in zip(b1.stages, b2.stages))
        assert b1.to_json_dict() == b2.to_json_dict()

    def test_probe_residuals_respect_bounds(self):
        rng = np.random.default_rng(123)
        probe = [
            FreeElement.word(
                1.0, [Letter(1, random_contraction(rng, 2)), Letter(2, random_contraction(rng, 2))]
            )
            for _ in range(3)
        ]
        build = staged_build(M2, M2, [((1,), (1,))] * 2, 0.5, probe, seed=7)
        for stage in build.stages:
            assert len(stage.probe_residuals) == 3
            for moved, allowed in zip(stage.probe_residuals, stage.probe_bounds):
                assert moved <= allowed + 1e-9

    def test_probe_residuals_are_the_moves_of_each_element(self):
        # the stacked check against each element evaluated alone at the
        # single-segment stage 1 of C^2 * C^2, where evaluate sees the same
        # layout; the identity is reducible there, so u moves
        rng = np.random.default_rng(5)
        a, b = random_contraction(rng, 2), random_contraction(rng, 2)
        probe = [
            FreeElement.word(1.0, [Letter(2, b)]),
            FreeElement.unit(0.5),
            FreeElement(((2.0, (Letter(1, a), Letter(2, b))), (1j, (Letter(2, a), Letter(1, b))))),
        ]
        (stage,) = staged_build(C2, C2, [((1, 1), (1, 1))], 0.5, probe, seed=7).stages
        assert stage.tries > 0
        rep = RepPair(C2, (1, 1), C2, (1, 1), np.eye(2))
        moves = [
            np.linalg.norm(evaluate(with_unitary(rep, stage.u), x) - evaluate(rep, x), 2)
            for x in probe
        ]
        assert stage.probe_residuals == tuple(moves)
        assert stage.probe_residuals[1] == 0.0

    def test_probe_moving_past_its_bound_raises(self, monkeypatch):
        # with every Lipschitz bound 0 the first element that moves raises
        rng = np.random.default_rng(6)
        probe = [FreeElement.unit(), FreeElement.word(1.0, [Letter(2, random_contraction(rng, 2))])]
        monkeypatch.setattr(subalg.freeprod, "lipschitz_bound", lambda x: 0.0)
        with pytest.raises(NumericalInstabilityError, match="Lipschitz bound") as info:
            staged_build(C2, C2, [((1, 1), (1, 1))], 0.5, probe, seed=7)
        assert info.value.defect > 1e-9

    def test_balancing_inserted_when_needed(self):
        # start from the unbalanced worked instance; the builder must pad it
        build = staged_build(C2, M2, [((1, 3), (2,))], 0.5, [], seed=15, max_tries=96)
        (stage,) = build.stages
        assert stage.balance is not None
        assert stage.balance.s == 3
        assert stage.dim == 6
        assert stage.irreducible

    def test_multiplicity_two_control_exhausts(self):
        stages = [((1, 1), (1, 1))] * 2
        with pytest.raises(SearchExhaustedError) as exc_info:
            staged_build(C2, C2, stages, 0.5, [], seed=3, max_tries=48)
        err = exc_info.value
        assert err.dim == 4
        assert err.stage == 2
        assert err.best_dim == 2
        assert err.tries == 48

    def test_budget_past_float_range_of_powers_of_two(self):
        # 1,022 stages that add nothing after stage 1: the budget
        # epsilon / ((k + 1)(k + 2)) of stage 1023 is a normal float, where
        # 2^(k + 1) would be past float range
        stages = [((1, 1), (1,))] + [((0, 0), (0,))] * 1022
        build = staged_build(C2, M2, stages, 0.5, [], seed=1)
        assert len(build.stages) == 1023
        assert all(stage.dim == 2 and stage.irreducible for stage in build.stages)

    def test_stage_after_a_thousand_empty_stages_adds_dimension(self):
        # stage 1002's budget 0.5 / (1003 * 1004) is still resolvable: the
        # stage builds within it, and the total stays below epsilon / 2
        stages = [((1, 1), (1,))] + [((0, 0), (0,))] * 1000 + [((1, 1), (1,))]
        build = staged_build(C2, M2, stages, 0.5, [], seed=1)
        last = build.stages[-1]
        assert [s.dim for s in build.stages] == [2] * 1001 + [4]
        assert last.irreducible and last.tries > 0
        assert 0.0 < last.bound < 0.5 / (1003 * 1004)
        assert build.total_bound < 0.25

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_epsilon_not_finite_raises(self, epsilon):
        # refused before any stage: a NaN or infinite budget would reach the draws
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            staged_build(C2, M2, [((1, 1), (1,))] * 2, epsilon, [], 1)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-310, math.nextafter(LEAST_EPSILON, 0)])
    def test_epsilon_whose_search_radius_underflows_raises(self, epsilon):
        # stage k searches at radius (epsilon / ((k + 1)(k + 2))) / 2, which
        # sample_dims refuses when the search starts: stage 1's radius is 0.0
        # for 5e-324 and unresolved at N = 2 for 1e-310; from the float below
        # the least accepted epsilon stage 1 decides, and stage 2's radius,
        # the bound itself, is unresolved at N = 4
        stages = [((1, 1), (1, 1))] * 2
        message = {
            5e-324: "positive finite radius, got 0.0",
            1e-310: "is below resolution: a local step at dimension 2 ",
        }.get(epsilon, f"radius {resolution(4)!r} is below resolution: a local step at dimension 4 ")
        with pytest.raises(ValueError, match=message):
            staged_build(C2, C2, stages, epsilon, [], 5)

    def test_least_epsilon_is_accepted(self):
        # the three empty stages after stage 2 search nothing, and stage 2
        # searches at a resolved radius: it exhausts or raises as unstable,
        # but is never refused as unresolved
        stages = [((1, 1), (1, 1))] * 2 + [((0, 0), (0, 0))] * 3
        assert LEAST_EPSILON / 12 / 2 > resolution(4) == math.nextafter(LEAST_EPSILON, 0) / 12 / 2
        with pytest.raises((SearchExhaustedError, NumericalInstabilityError)):
            staged_build(C2, C2, stages, LEAST_EPSILON, [], 5, max_tries=4)

    def test_unresolved_stage_of_a_build_raises(self):
        # C^2 (1, 1) against M2 (1) in three stages at epsilon 1e-14: stage 2
        # searches at 1e-14 / 24 = 4.17e-16, below the bound 3.553e-14 at
        # N = 4, where no draw can be told from rounding.  It exhausted its
        # tries (or ran 20,000 undecidable ones) before the radius rule
        stages = [((1, 1), (1,))] * 3
        with pytest.raises(ValueError, match="radius 4.1666666666666665e-16 is below resolution: "
                           "a local step at dimension 4 must exceed 3.553e-14"):
            staged_build(C2, M2, stages, 1e-14, [], 3, max_tries=20000)

    def test_fractional_multiplicity_raises(self):
        # int() would truncate 1.8 to 1 and build a dimension-2 stage
        with pytest.raises(ValueError, match="integers"):
            staged_build(M2, M2, [((1.8,), (1,))], 0.5, [], 1)

    @pytest.mark.parametrize("max_tries", [0, -1])
    def test_max_tries_below_one_raises(self, max_tries):
        with pytest.raises(ValueError, match="max_tries"):
            staged_build(C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], 1, max_tries=max_tries)

    def test_empty_stages_write_no_segment(self):
        # 200 stages that add nothing leave the pair of stage 1 as it was
        stages = [((1, 1), (1,))] + [((0, 0), (0,))] * 200
        layouts = subalg.freeprod.stage_layouts(C2, M2, stages)
        assert [(len(s1), len(s2)) for _, s1, s2, *_ in layouts] == [(1, 1)] * 201
        build = staged_build(C2, M2, stages, 0.5, [], seed=1)
        assert [stage.dim for stage in build.stages] == [2] * 201

    def test_empty_stages_build_no_kernel(self, monkeypatch):
        # a stage that adds nothing keeps the pair the stage before accepted:
        # no kernel, no decision, u = I with no tries, and its probe check
        # still runs (every element stays put)
        kernel = subalg.freeprod._joint_dim_kernel
        dims = []

        def spy(alg1, segs1, alg2, segs2):
            dims.append(sum(map(sum, segs1)))
            return kernel(alg1, segs1, alg2, segs2)

        monkeypatch.setattr(subalg.freeprod, "_joint_dim_kernel", spy)
        empty = ((0, 0), (0,))
        stages = [((1, 1), (1,)), empty, empty, ((1, 1), (1,)), empty, ((2, 0), (1,)), empty]
        rng = np.random.default_rng(123)
        probe = [
            FreeElement.word(
                1.0, [Letter(1, random_contraction(rng, 2)), Letter(2, random_contraction(rng, 2))]
            )
            for _ in range(3)
        ]
        build = staged_build(C2, M2, stages, 0.5, probe, seed=3)
        # stage 6 is padded to N = 8 (RCP), and the empty stage 7 keeps that pair
        assert dims == [2, 4, 8]
        assert [stage.dim for stage in build.stages] == [2, 2, 2, 4, 4, 8, 8]
        for stage, (m1, _) in zip(build.stages, stages):
            assert stage.irreducible and stage.probe_residuals
            if m1 == empty[0]:
                assert (stage.tries, stage.bound) == (0, 0.0)
                assert np.array_equal(stage.u, np.eye(stage.dim))
                assert stage.probe_residuals == (0.0,) * len(probe)
        use_sequential_search(monkeypatch)
        want = build_outcome(C2, M2, stages, 0.5, probe, seed=3)
        assert_same_build([(s.tries, s.u, s.dim, s.bound) for s in build.stages], want)

    def test_stage_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            staged_build(M2, M2, [((1,), (2,))], 0.5, [], seed=0)


# The sequential reference: the free-product decisions as they were made one
# unitary at a time, from numpy calls on single matrices only, each system
# from dense products.  It shares the layout helpers (amplified_commutant, the
# segment units) with the library, not its draws, systems or rank decisions.
# Its rank decisions read the singular values alone, as the library's do, so
# the defects of unstable decisions compare exactly.


def sequential_haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sequential_local(center, radius, rng):
    n = center.shape[0]
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    lam, v = np.linalg.eigh((z - z.conj().T) / 2j)
    lam = lam * (radius / np.abs(lam).max())
    return center @ ((v * np.exp(1j * lam)) @ v.conj().T)


def sequential_nullity(system, n, what):
    if system.shape[0] > system.shape[1]:
        system = np.linalg.qr(system, mode="r")
    s = np.linalg.svd(system, compute_uv=False)
    scale = max(float(s[0]), 1.0)
    cutoff = subalg.numeric.default_tolerance(n, scale)  # as fixed_cutoff sets it
    floor = 8.0 * max(n, 4) * EPS * scale
    lo_cut, hi_cut = max(cutoff / 10.0, floor), max(10.0 * cutoff, floor)
    ambiguous = s[(s > lo_cut) & (s <= hi_cut)]
    if ambiguous.size:
        raise NumericalInstabilityError(
            f"rank decision for {what} is unstable at tolerance {cutoff:.3e}",
            float(ambiguous.max()),
        )
    return system.shape[1] - int(np.count_nonzero(s > max(cutoff, floor)))


def sequential_kernel(alg1, segs1, alg2, segs2):
    """u -> joint commutant dimension, one unitary per call."""
    dim1 = sum(m * m for m in map(sum, zip(*segs1)))
    dim2 = sum(m * m for m in map(sum, zip(*segs2)))
    swap = dim1 > dim2
    if swap:
        alg1, segs1, alg2, segs2 = alg2, segs2, alg1, segs1
    within = amplified_commutant(alg1.blocks, segs1)
    units = amplified_units(alg2.blocks, segs2)[:-1]

    def decide(u):
        if not len(units):
            return within.dimension
        inv = np.linalg.inv(u)
        gens = inv @ units @ u if swap else u @ units @ inv
        system = dense_commutator_system(gens[None], within)[0]
        return sequential_nullity(system, within.n, "commutant system")

    return decide


def sequential_stage_kernel(alg1, segs1, alg2, segs2):
    """``sequential_kernel`` in the shape of ``_joint_dim_kernel``: stacks of one item."""
    decide = sequential_kernel(alg1, segs1, alg2, segs2)
    return (lambda us: map(decide, us)), 1


def sequential_search(decide, cap, prev_u, budget, seed, stage, max_tries, best):
    """The search one attempt at a time, every attempt at half the budget."""
    eye = np.eye(len(prev_u), dtype=complex)
    for attempt in range(max_tries):
        w = sequential_local(eye, budget / 2.0, sample_stream(seed, stage, attempt))
        d = next(decide((w @ prev_u)[None]))
        best = min(best, d)
        if d == 1:
            return w, attempt + 1, 1
    return None, max_tries, best


def use_sequential_search(monkeypatch):
    """Make staged builds decide and draw as the sequential reference does."""
    monkeypatch.setattr(subalg.freeprod, "_joint_dim_kernel", sequential_stage_kernel)
    monkeypatch.setattr(subalg.freeprod, "_search_stage_unitary", sequential_search)


def sequential_dpi(rep, samples, seed, radius=None):
    decide = sequential_kernel(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2])
    eye = np.eye(rep.dim, dtype=complex)
    dims = []
    for i in range(samples):
        rng = sample_stream(seed, i)
        if radius is None:
            w = sequential_haar(rep.dim, rng)
        else:
            w = sequential_local(eye, radius, rng)
        dims.append(decide(w @ rep.u))
    return tuple(dims)


def outcome(fn, *args, **kwargs):
    """fn's result, or the (message, defect) of the NumericalInstabilityError it raises."""
    try:
        return fn(*args, **kwargs)
    except NumericalInstabilityError as exc:
        return str(exc), exc.defect


# Byte budgets: the default, one item per stack, and a few items of the N = 4
# exhausted search (one unit inside an 8-dimensional commutant of 8 entries:
# stack_size's count of DRAW_MATRICES + 2 + g + 2 d g matrices and 8 more for
# the gather temporaries and the triangle, with 1 KiB per item), which leaves
# a partial last stack there and in the small dpi runs.
BUDGETS = [None, 1, 3 * (16 * 4 * 4 * (DRAW_MATRICES + 2 + 1 + 8 + 2 * 8 * 1) + 1024)]


@pytest.fixture(params=BUDGETS, ids=["default", "one", "small"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(subalg.numeric, "CHUNK_BYTES", request.param)
    return request.param


def build_outcome(*args, **kwargs):
    """Per-stage (tries, u, dim) of a staged build, or its SearchExhaustedError fields."""
    try:
        build = staged_build(*args, **kwargs)
    except SearchExhaustedError as exc:
        return ("exhausted", exc.stage, exc.dim, exc.best_dim, exc.tries)
    return [(s.tries, s.u, s.dim, s.bound) for s in build.stages]


def assert_same_build(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for (tries, u, dim, bound), (tries_ref, u_ref, dim_ref, bound_ref) in zip(got, want):
        assert (tries, dim, bound) == (tries_ref, dim_ref, bound_ref)
        assert np.array_equal(u, u_ref)  # bitwise


class TestStackedDecisions:
    @pytest.mark.parametrize("seed", [1, 7, 61])
    def test_eight_stage_build_matches_sequential_search(self, seed, budget, monkeypatch):
        args = (C2, M2, [((1, 1), (1,))] * 8, 0.5, [], seed)
        got = build_outcome(*args)
        use_sequential_search(monkeypatch)
        assert_same_build(got, build_outcome(*args))

    @pytest.mark.parametrize("seed", [3, 61])
    def test_exhausted_search_matches_sequential_search(self, seed, budget, monkeypatch):
        # 70 tries: stacks 1, 2, 4, ..., 32 end at attempt 62, and the last
        # stack holds attempts 63..69
        draws = []
        stacked = subalg.numeric.local_unitaries

        def spy(n, radius, rngs):
            draws.append(stacked(n, radius, rngs))
            return draws[-1]

        monkeypatch.setattr(subalg.numeric, "local_unitaries", spy)
        args = (C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], seed)
        got = build_outcome(*args, max_tries=70)
        assert got == ("exhausted", 2, 4, 2, 70)
        # every failed draw of stage 2 (budget 0.5 / 12) is the sequential one
        # at half the budget, bit for bit
        want = [sequential_local(np.eye(4), 0.5 / 24, sample_stream(seed, 2, a)) for a in range(70)]
        stage2 = np.concatenate([w for w in draws if w.shape[1:] == (4, 4)])
        assert np.array_equal(stage2, np.stack(want))
        if budget is None:
            assert [len(w) for w in draws if w.shape[1:] == (4, 4)] == [1, 2, 4, 8, 16, 32, 7]
        use_sequential_search(monkeypatch)
        assert got == build_outcome(*args, max_tries=70)

    @staticmethod
    def decided_stacks(monkeypatch):
        """Every stack of unitaries the staged search decides, with its kernel call's number.

        Each stage that adds dimension builds its kernel once, and a stage
        that adds none builds no kernel: without empty stages, stage k makes
        the k-th kernel call.
        """
        seen = []
        kernel = subalg.freeprod._joint_dim_kernel
        stages = count(1)

        def spy(*args):
            decide, stack = kernel(*args)
            stage = next(stages)

            def spying(us):
                seen.append((stage, us))
                return decide(us)

            return spying, stack

        monkeypatch.setattr(subalg.freeprod, "_joint_dim_kernel", spy)
        return seen

    def test_identity_is_decided_only_where_it_can_succeed(self, monkeypatch):
        # stages 2 and 4..9 each add a summand to an irreducible pair, so the
        # identity keeps a direct sum there and is never decided; the
        # zero-dimension stage 3 keeps the pair stage 2 accepted, with the
        # identity and no kernel or decision
        seen = self.decided_stacks(monkeypatch)
        stages = [((1, 1), (1,))] * 2 + [((0, 0), (0,))] + [((1, 1), (1,))] * 6
        build = staged_build(C2, M2, stages, 0.5, [], 7)
        assert [s.dim for s in build.stages] == [2, 4, 4, 6, 8, 10, 12, 14, 16]
        # M2 alone is irreducible on C^2, so the identity ends stage 1 too
        assert [s.tries == 0 for s in build.stages] == [True, False, True] + [False] * 6
        assert np.array_equal(build.stages[2].u, np.eye(4))
        searched = [1, 2, 4, 5, 6, 7, 8, 9]  # the stage of each kernel call
        assert sorted({call for call, _ in seen}) == list(range(1, 9))
        previous = [np.zeros((0, 0))] + list(build.cumulative)
        identity_at = [
            searched[call - 1]
            for call, us in seen
            if len(us) == 1
            and np.array_equal(us[0], _extend(previous[searched[call - 1] - 1], us.shape[-1]))
        ]
        assert identity_at == [1]

    def test_exhausted_search_never_decides_the_identity(self, monkeypatch):
        # stage 2 enlarges the pair, where the identity keeps a direct sum:
        # it decides its 70 attempts and nothing else, and best_dim is the
        # smallest dimension over those attempts
        seen = self.decided_stacks(monkeypatch)
        with pytest.raises(SearchExhaustedError) as info:
            staged_build(C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], 3, max_tries=70)
        assert (info.value.stage, info.value.best_dim, info.value.tries) == (2, 2, 70)
        stage1 = [us for stage, us in seen if stage == 1]
        stage2 = np.concatenate([us for stage, us in seen if stage == 2])
        assert len(stage2) == 70
        # stage 1 ended on its first attempt u, and u + I is none of them
        (u,) = stage1[-1]
        assert not any(np.array_equal(w, _extend(u, 4)) for w in stage2)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("radius", [None, 1e-3])
    def test_dpi_matches_sequential_samples(self, n, radius, budget):
        # C^2 against C^3 (generically irreducible from N = 6 on, reducible below)
        # and C^2 against C^2 (never irreducible with a multiplicity above one)
        rng = sample_stream(404, n)
        thirds = (n // 3, n // 3, n - 2 * (n // 3))
        reps = [
            RepPair(C2, (n // 2, n - n // 2), BlockStructure((1, 1, 1)), thirds, np.eye(n)),
            RepPair(C2, (n - n // 2, n // 2), C2, (n // 2, n - n // 2), haar_unitary(n, rng)),
        ]
        for rep in reps:
            got = outcome(lambda: dpi_probe(rep, 7, n, radius=radius).dims)
            assert got == sequential_dpi(rep, 7, n, radius=radius)

    def test_first_unstable_dpi_sample_raises_as_before(self, budget):
        # at the cutoff 1e-6 and radius 5e-5, samples 2 and 5 of seed 5 are unstable,
        # with different defects; the first in index order is the one raised
        rep = RepPair(C2, (2, 2), C2, (2, 2), np.eye(4))
        decide = sequential_kernel(C2, [(2, 2)], C2, [(2, 2)])
        draws = [sequential_local(np.eye(4), 5e-5, sample_stream(5, i)) for i in range(10)]
        with fixed_cutoff(1e-6):
            outcomes = [outcome(decide, w) for w in draws]
            unstable = {i: o for i, o in enumerate(outcomes) if o != 2}
            assert sorted(unstable) == [2, 5] and unstable[2] != unstable[5]
            assert outcome(dpi_probe, rep, 10, 5, radius=5e-5) == unstable[2]

    @pytest.mark.parametrize(
        "draws, tries",
        [
            # attempt 2 alone would raise at the cutoff 1e-6, but the stack of attempts
            # 1 and 2 succeeds at 1: the sequential search never reached 2
            (["fail", "success", "unstable"], 2),
            (["fail", "unstable", "success"], None),
            # the stack of attempts 3..6 succeeds at 4 and 5; 4 comes first
            (["fail", "fail", "fail", "fail", "success", "other", "fail"], 5),
        ],
    )
    def test_first_success_in_attempt_order_ends_the_search(self, draws, tries, monkeypatch):
        unitaries = {
            "fail": np.eye(2, dtype=complex),
            "success": rotation(1e-2),
            "other": rotation(2e-2),
            "unstable": rotation(1e-6),
        }
        monkeypatch.setattr(subalg.numeric, "default_tolerance", lambda n, smax: 1e-6)
        with pytest.raises(NumericalInstabilityError):
            joint_commutant_dim(RepPair(C2, (1, 1), C2, (1, 1), unitaries["unstable"]))
        queue = iter(draws)

        def fake_local_unitaries(n, radius, rngs):
            return np.stack([unitaries[next(queue)] for _ in rngs])

        monkeypatch.setattr(subalg.numeric, "local_unitaries", fake_local_unitaries)
        args = (C2, C2, [((1, 1), (1, 1))], 0.5, [], 1)
        if tries is None:
            with pytest.raises(NumericalInstabilityError):
                staged_build(*args)
            return
        (stage,) = staged_build(*args).stages
        assert stage.tries == tries
        assert np.array_equal(stage.u, unitaries["success"])

    @staticmethod
    def searched_radii(monkeypatch, epsilon, max_tries):
        """The radius of each attempt of a stage-1 search with faked draws and decisions.

        Only the search loop runs: every draw is the identity and every
        decision 2, so the search exhausts at stage 1 (budget epsilon / 6).
        """
        radii = []

        def fake_local_unitaries(n, radius, rngs):
            radii.extend([radius] * len(rngs))
            return np.broadcast_to(np.eye(n), (len(rngs), n, n))

        def fake_kernel(*args):
            return (lambda us: iter([2] * len(us))), 4096

        monkeypatch.setattr(subalg.numeric, "local_unitaries", fake_local_unitaries)
        monkeypatch.setattr(subalg.numeric, "sample_stream", lambda *key: None)
        monkeypatch.setattr(subalg.freeprod, "_joint_dim_kernel", fake_kernel)
        with pytest.raises(SearchExhaustedError) as info:
            staged_build(C2, C2, [((1, 1), (1, 1))], epsilon, [], 1, max_tries=max_tries)
        assert (info.value.stage, info.value.best_dim, info.value.tries) == (1, 2, max_tries)
        return radii

    def test_every_attempt_is_drawn_at_half_the_budget(self, monkeypatch):
        # 34,400 failed attempts, as many as once took a halved radius to 0.0:
        # each is drawn at budget / 2 exactly, and the search ends exhausted
        assert self.searched_radii(monkeypatch, 0.5, 34400) == [0.5 / 6 / 2] * 34400

    def test_long_search_exhausts_without_a_rank_error(self):
        # C^2 (1, 1) against C^2 (1, 1) in two stages is never irreducible at
        # stage 2 (epsilon 0.5, seed 5).  With the radius halved after every
        # 32 attempts, attempt 1,187 fell into the cutoff band and raised
        # NumericalInstabilityError; at half the budget it is decided as 2
        with pytest.raises(SearchExhaustedError) as info:
            staged_build(C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], 5, max_tries=1187)
        assert (info.value.stage, info.value.best_dim, info.value.tries) == (2, 2, 1187)

    def test_scalar_factor_decides_through_the_stack(self, monkeypatch):
        # C (4) against C^2 (2, 2): the solve runs inside C^2's commutant, and
        # the scalar side leaves an empty generator stack per item
        shapes = []
        stacked = subalg.freeprod.commutant_basis

        def spy(gens, *args):
            shapes.append(np.shape(gens))
            return stacked(gens, *args)

        monkeypatch.setattr(subalg.freeprod, "commutant_basis", spy)
        rep = RepPair(BlockStructure((1,)), (4,), C2, (2, 2), np.eye(4))
        assert joint_commutant_dim(rep) == 8
        assert dpi_probe(rep, 3, 1).dims == (8, 8, 8)
        assert dpi_probe(rep, 3, 1, radius=1e-3).dims == (8, 8, 8)
        # each dpi run decides its three draws in stacks of 1 and 2
        assert shapes == [(1, 0, 4, 4)] + [(1, 0, 4, 4), (2, 0, 4, 4)] * 2


def counted_from_layouts(alg1, segs1, alg2, segs2):
    """The swap and the per-item matrix count, read off the layouts the kernel builds."""
    dims = [sum(m * m for m in map(sum, zip(*segs))) for segs in (segs1, segs2)]
    swap = dims[0] > dims[1]
    if swap:
        alg1, segs1, alg2, segs2 = alg2, segs2, alg1, segs1
    within = amplified_commutant(alg1.blocks, segs1)
    g, d, n = len(amplified_units(alg2.blocks, segs2)) - 1, within.dimension, within.n
    extra = -(-(2 * g * len(within.support) * n + d * d) // (n * n))
    return swap, DRAW_MATRICES + 2 + g + 2 * d * g + extra


@pytest.mark.parametrize(
    "alg1, alg2, stages",
    [
        (C2, M2, [((1, 1), (1,))] * 3 + [((2, 0), (1,)), ((0, 0), (0,))]),
        (BlockStructure((1, 2)), BlockStructure((1, 1, 1)),
         [((0, 1), (0, 1, 1))] * 2 + [((1, 0), (0, 0, 1))]),
        (BlockStructure((3, 1)), BlockStructure((2, 2)), [((1, 1), (1, 1)), ((0, 2), (1, 0))]),
        (BlockStructure((1,)), C2, [((4,), (2, 2)), ((2,), (0, 2))]),
    ],
    ids=["C2-M2", "CM2-C3", "M3C-M2M2", "C-C2"],
)
def test_decision_size_is_counted_from_integers(alg1, alg2, stages):
    # every stage layout of a build, RCP paddings and zero-copy blocks
    # included: the integer count is the count of the kernel's layouts, and
    # the cap in validate sizes that same count
    dims = []
    for layout in subalg.freeprod.stage_layouts(alg1, alg2, stages):
        segs1, segs2 = layout.segs1, layout.segs2  # grown in place by the next stage
        totals1, totals2 = (tuple(map(sum, zip(*segs))) for segs in (segs1, segs2))
        swap, matrices = subalg.freeprod._decision_size(alg1, totals1, alg2, totals2)
        assert (swap, matrices) == counted_from_layouts(alg1, segs1, alg2, segs2)
        n = layout.dim
        assert subalg.freeprod.decision_bytes(alg1, segs1, alg2, segs2) == 16 * n * n * matrices
        dims.append(n)
    assert len(dims) == len(stages)


@pytest.mark.parametrize(
    "alg1, mult1, mult2",
    [(C2, (6, 6), (6,)), (BlockStructure((1, 1, 1)), (4, 4, 4), (6,))],
    ids=["C2-M2", "C3-M2"],
)
def test_decision_stacks_stay_within_the_byte_budget(alg1, mult1, mult2, monkeypatch):
    # dpi at N = 12 against M2 (6) under a 2 MiB budget: three stacks and a bit
    # of draws and decisions peak below the budget.  The systems and their QR
    # copies dominate; a count without the copy stacks 2.7 to 4 times as many
    # items and peaks at about twice the budget.
    monkeypatch.setattr(subalg.numeric, "CHUNK_BYTES", 1 << 21)
    rep = RepPair(alg1, mult1, M2, mult2, np.eye(12))
    _, stack = _joint_dim_kernel(alg1, [mult1], M2, [mult2])
    samples = 3 * stack + 2
    dpi_probe(rep, 1, 1)  # the first draw imports numpy.random's generator modules
    tracemalloc.start()
    try:
        stats = dpi_probe(rep, samples, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.trivial_count == samples
    assert peak < 1 << 21


def test_dpi_working_set_at_the_default_budget():
    # C^2 (12, 12) against M2 (12) at N = 24: one item is about 3 MiB, past
    # the budget, so the four samples are decided one at a time and the run
    # holds one item and at most a budget more.  Stacks of two items peaked
    # at 6.1 MiB, past the bound of 4.2 MiB.
    rep = RepPair(C2, (12, 12), M2, (12,), np.eye(24))
    dpi_probe(rep, 1, 1)  # the first draw imports numpy.random's generator modules
    tracemalloc.start()
    try:
        stats = dpi_probe(rep, 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.dims == (1,) * 4
    bound = decision_bytes(C2, [(12, 12)], M2, [(12,)]) + subalg.numeric.CHUNK_BYTES
    assert peak < bound, (peak, bound)
