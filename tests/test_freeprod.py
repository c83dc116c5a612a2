"""Tests for free-product representation machinery: evaluation, RCP, DPI, staged builds."""

import numpy as np
import pytest

from subalg.algebra import BlockStructure, EmbeddedAlgebra, enumerate_embedded_algebras
from subalg.errors import SearchExhaustedError, ShapeMismatchError
from subalg.freeprod import (
    FreeElement,
    Letter,
    RepPair,
    dpi_probe,
    evaluate,
    irreducibility_check,
    joint_commutant_dim,
    lipschitz_bound,
    pad_multiplicities,
    rcp_balance,
    rcp_check,
    rcp_check_pair,
    staged_build,
)
from subalg.numeric import (
    amplify,
    commutant_basis,
    density_experiment,
    haar_unitary,
    intersect,
    local_unitary,
    model_matrix_units,
    realize,
    sample_stream,
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
            # below N = 22 the bound is the absolute 1e-12 (defect = 2 * d * sqrt(N))
            (4, 1 + 2e-13, True),
            (4, 1 + 3e-13, False),
            # at N = 24 it is validate's 10 * N^2 * eps = 1.279e-12
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


class TestEvaluate:
    def setup_method(self):
        self.rep = RepPair(M2, (2,), M2, (2,), haar_unitary(4, 8))

    def test_side1_letter_ignores_u(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        x = FreeElement.word(1.0, [Letter(1, a)])
        expected = self.rep.factor(1, a)
        assert np.allclose(evaluate(self.rep, x), expected)

    def test_empty_word_is_identity(self):
        assert np.allclose(evaluate(self.rep, FreeElement.unit()), np.eye(4))

    def test_two_letter_word_product(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        b = np.array([[1, 0], [0, -1]], dtype=complex)
        rep = self.rep.with_unitary(np.eye(4))
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
                evaluate(rep0.with_unitary(u), x) - evaluate(rep0.with_unitary(v), x), 2
            )
            if dev > lipschitz_bound(x) * np.linalg.norm(u - v, 2):
                violations += 1
        assert violations == 0


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
        rep2 = rep1.with_unitary(rotation(0.3))
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
        assert irreducibility_check(rep)

    def test_common_diagonal_reducible(self):
        rep = RepPair(C2, (1, 1), C2, (1, 1), np.eye(2))
        assert not irreducibility_check(rep)

    def test_rotated_projections_irreducible(self):
        rep = RepPair(C2, (1, 1), C2, (1, 1), rotation(np.pi / 4))
        assert irreducibility_check(rep)

    def test_joint_commutant_equals_commutant_intersection(self):
        # same answer through the two-commutants route
        rep = RepPair(C2, (2, 2), C2, (2, 2), haar_unitary(4, 13))
        e = EmbeddedAlgebra(4, C2, (2, 2))
        r = realize(e)
        c1 = commutant_basis(list(r.basis))
        conj_gens = [rep.u @ g @ rep.u.conj().T for g in r.basis]
        c2 = commutant_basis(conj_gens)
        assert joint_commutant_dim(rep) == intersect(c1, c2).dimension


def kronecker_joint_dim(rep):
    """The oracle: the N^2-column Kronecker commutant of the units of both sides."""
    units1 = amplify(model_matrix_units(rep.algebra1), rep.algebra1.blocks, [rep.mult1])
    units2 = amplify(model_matrix_units(rep.algebra2), rep.algebra2.blocks, [rep.mult2])
    return commutant_basis([*units1, *(rep.u @ units2 @ rep.u.conj().T)]).dimension


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
        base = rep.with_unitary(np.eye(2))
        for i in range(10):
            w = haar_unitary(2, sample_stream(9, i))
            manual.append(joint_commutant_dim(base.with_unitary(w @ u0)))
        assert stats.dims == tuple(manual)

    def test_local_mode(self):
        rep = RepPair(M2, (2,), M2, (2,), haar_unitary(4, 3))
        stats = dpi_probe(rep, 10, seed=2, local_radius=1e-3)
        assert stats.trivial_count == 10
        assert stats.radius == 1e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [0.0, -1e-3, float("nan"), float("inf")])
@pytest.mark.parametrize("probe", ["density", "dpi"])
def test_radius_not_positive_finite_raises(probe, radius):
    # both probes draw through one sampler, which rejects the radius before
    # any numpy work: a NaN or infinite radius would end in LinAlgError
    with pytest.raises(ValueError, match="positive finite radius"):
        if probe == "density":
            b = EmbeddedAlgebra(4, M2, (2,))
            density_experiment(b, b, 2, seed=1, local=(None, radius))
        else:
            dpi_probe(RepPair(C2, (1, 1), C2, (1, 1), np.eye(2)), 2, 1, local_radius=radius)


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
            assert stage.bound < 0.5 / 2 ** (k + 1)
        assert build.total_bound < 0.25

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

    def test_stage_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            staged_build(M2, M2, [((1,), (2,))], 0.5, [], seed=0)
