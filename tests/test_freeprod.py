"""Tests for free-product representation machinery: evaluation, RCP, DPI, staged builds."""

import tracemalloc

import numpy as np
import pytest

import subalg
from subalg.algebra import BlockStructure, EmbeddedAlgebra, enumerate_embedded_algebras
from subalg.errors import NumericalInstabilityError, SearchExhaustedError, ShapeMismatchError
from subalg.freeprod import (
    FreeElement,
    Letter,
    RepPair,
    dpi_probe,
    evaluate,
    joint_commutant_dim,
    lipschitz_bound,
    pad_multiplicities,
    rcp_balance,
    rcp_check,
    staged_build,
    _extend,
    _joint_dim_kernel,
    _segment_generators,
    _total_mult,
)
from subalg.numeric import (
    DRAW_MATRICES,
    EPS,
    amplified_commutant,
    amplify,
    default_tolerance,
    density_experiment,
    haar_unitary,
    local_unitary,
    model_matrix_units,
    realize,
    sample_stream,
)

from oracles import (
    dense_commutator_system,
    dense_intersect,
    kronecker_commutant,
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
    k = (z - z.conj().T) / 2.0
    k = radius * (k / np.linalg.norm(k, 2))
    lam, v = np.linalg.eigh(-1j * k)
    return center @ ((v * np.exp(1j * lam)) @ v.conj().T)


def sequential_nullity(system, n, tol, what):
    if system.shape[0] > system.shape[1]:
        system = np.linalg.qr(system, mode="r")
    s = np.linalg.svd(system, compute_uv=False)
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
    return system.shape[1] - int(np.count_nonzero(s > max(cutoff, floor)))


def sequential_kernel(alg1, segs1, alg2, segs2, tol):
    """u -> joint commutant dimension, one unitary per call."""
    dim1 = sum(m * m for m in _total_mult(segs1, alg1.num_blocks))
    dim2 = sum(m * m for m in _total_mult(segs2, alg2.num_blocks))
    swap = dim1 > dim2
    if swap:
        alg1, segs1, alg2, segs2 = alg2, segs2, alg1, segs1
    within = amplified_commutant(alg1.blocks, segs1)
    units = _segment_generators(alg2, segs2)[:-1]

    def decide(u):
        if not len(units):
            return within.dimension
        inv = np.linalg.inv(u)
        gens = inv @ units @ u if swap else u @ units @ inv
        system = dense_commutator_system(gens[None], within)[0]
        return sequential_nullity(system, within.ambient_dim, tol, "commutant system")

    return decide


def halving_radii(budget, tries):
    """The radius of each attempt: half the budget, halved after every 32 attempts."""
    radius, radii = budget / 2.0, []
    for attempt in range(tries):
        radii.append(radius)
        if (attempt + 1) % 32 == 0:
            radius /= 2.0
    return radii


def sequential_search(
    alg1, segs1, alg2, segs2, prev_u, dim, budget, seed, stage, max_tries, tol, identity_first
):
    """The search as it was: the identity first at every stage, whatever ``identity_first`` says."""
    decide = sequential_kernel(alg1, segs1, alg2, segs2, tol)
    eye = np.eye(dim, dtype=complex)
    best = decide(eye @ prev_u)
    if best == 1:
        return eye, 0, 1
    radius = budget / 2.0
    for attempt in range(max_tries):
        w = sequential_local(eye, radius, sample_stream(seed, stage, attempt))
        d = decide(w @ prev_u)
        best = min(best, d)
        if d == 1:
            return w, attempt + 1, 1
        if (attempt + 1) % 32 == 0:
            radius /= 2.0
    return None, max_tries, best


def sequential_dpi(rep, samples, seed, local_radius=None, tol=None):
    decide = sequential_kernel(rep.algebra1, [rep.mult1], rep.algebra2, [rep.mult2], tol)
    eye = np.eye(rep.dim, dtype=complex)
    dims = []
    for i in range(samples):
        rng = sample_stream(seed, i)
        if local_radius is None:
            w = sequential_haar(rep.dim, rng)
        else:
            w = sequential_local(eye, local_radius, rng)
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
        monkeypatch.setattr(subalg.numeric, "STACK_BYTES", request.param)
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
        monkeypatch.setattr(subalg.freeprod, "_search_stage_unitary", sequential_search)
        assert_same_build(got, build_outcome(*args))

    @pytest.mark.parametrize("seed", [3, 61])
    def test_exhausted_search_matches_sequential_search(self, seed, budget, monkeypatch):
        # 70 tries: stacks 1, 2, 4, ..., 32 end at attempt 62, and the last
        # stack holds attempts 63..69, so stacks cross the halvings at 32 and 64
        draws = []
        stacked = subalg.freeprod.local_unitaries

        def spy(center, radii, rngs):
            draws.append(stacked(center, radii, rngs))
            return draws[-1]

        monkeypatch.setattr(subalg.freeprod, "local_unitaries", spy)
        args = (C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], seed)
        got = build_outcome(*args, max_tries=70)
        assert got == ("exhausted", 2, 4, 2, 70)
        # every failed draw of stage 2 (budget 0.5 / 8) is the sequential one, bit for bit
        want = [
            sequential_local(np.eye(4), radius, sample_stream(seed, 2, a))
            for a, radius in enumerate(halving_radii(0.5 / 8, 70))
        ]
        stage2 = np.concatenate([w for w in draws if w.shape[1:] == (4, 4)])
        assert np.array_equal(stage2, np.stack(want))
        if budget is None:
            assert [len(w) for w in draws if w.shape[1:] == (4, 4)] == [1, 2, 4, 8, 16, 32, 7]
        monkeypatch.setattr(subalg.freeprod, "_search_stage_unitary", sequential_search)
        assert got == build_outcome(*args, max_tries=70)

    @staticmethod
    def decided_stacks(monkeypatch):
        """Every stack of unitaries the staged search decides, with the stage it belongs to.

        Without padding, the pair of stage k has k segments per side.
        """
        seen = []
        kernel = subalg.freeprod._joint_dim_kernel

        def spy(alg1, segs1, *args):
            decide, stack = kernel(alg1, segs1, *args)
            stage = len(segs1)

            def spying(us):
                seen.append((stage, us))
                return decide(us)

            return spying, stack

        monkeypatch.setattr(subalg.freeprod, "_joint_dim_kernel", spy)
        return seen

    def test_identity_is_decided_only_where_it_can_succeed(self, monkeypatch):
        # stages 2..8 each add a summand to an irreducible pair, so the
        # identity keeps a direct sum there and is never decided; the
        # zero-dimension stage 3 keeps its pair, and the identity ends it
        seen = self.decided_stacks(monkeypatch)
        stages = [((1, 1), (1,))] * 2 + [((0, 0), (0,))] + [((1, 1), (1,))] * 6
        build = staged_build(C2, M2, stages, 0.5, [], 7)
        assert [s.dim for s in build.stages] == [2, 4, 4, 6, 8, 10, 12, 14, 16]
        # M2 alone is irreducible on C^2, so the identity ends stage 1 too
        assert [s.tries == 0 for s in build.stages] == [True, False, True] + [False] * 6
        assert np.array_equal(build.stages[2].u, np.eye(4))
        assert sorted({stage for stage, _ in seen}) == list(range(1, 10))
        previous = [np.zeros((0, 0))] + list(build.cumulative)
        identity_at = [
            stage
            for stage, us in seen
            if len(us) == 1 and np.array_equal(us[0], _extend(previous[stage - 1], us.shape[-1]))
        ]
        assert identity_at == [1, 3]

    def test_exhausted_search_decides_the_identity_last(self, monkeypatch):
        # stage 2 enlarges the pair: its 70 attempts come first, then the
        # identity, so best_dim still counts it
        seen = self.decided_stacks(monkeypatch)
        with pytest.raises(SearchExhaustedError) as info:
            staged_build(C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], 3, max_tries=70)
        assert (info.value.stage, info.value.best_dim, info.value.tries) == (2, 2, 70)
        stage1 = [us for stage, us in seen if stage == 1]
        stage2 = [us for stage, us in seen if stage == 2]
        assert sum(map(len, stage2)) == 71
        # stage 1 ended on its first attempt u, and the last stack of stage 2 is u + I
        (u,) = stage1[-1]
        assert len(stage2[-1]) == 1 and np.array_equal(stage2[-1][0], _extend(u, 4))

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
            got = outcome(lambda: dpi_probe(rep, 7, n, local_radius=radius).dims)
            assert got == sequential_dpi(rep, 7, n, local_radius=radius)

    def test_first_unstable_dpi_sample_raises_as_before(self, budget):
        # at tol 1e-6 and radius 5e-5, samples 2 and 5 of seed 5 are unstable,
        # with different defects; the first in index order is the one raised
        rep = RepPair(C2, (2, 2), C2, (2, 2), np.eye(4))
        decide = sequential_kernel(C2, [(2, 2)], C2, [(2, 2)], 1e-6)
        draws = [sequential_local(np.eye(4), 5e-5, sample_stream(5, i)) for i in range(10)]
        outcomes = [outcome(decide, w) for w in draws]
        unstable = {i: o for i, o in enumerate(outcomes) if o != 2}
        assert sorted(unstable) == [2, 5] and unstable[2] != unstable[5]
        assert outcome(dpi_probe, rep, 10, 5, local_radius=5e-5, tol=1e-6) == unstable[2]

    @pytest.mark.parametrize(
        "draws, tries",
        [
            # attempt 2 alone would raise at tol 1e-6, but the stack of attempts
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
        with pytest.raises(NumericalInstabilityError):
            joint_commutant_dim(RepPair(C2, (1, 1), C2, (1, 1), unitaries["unstable"]), tol=1e-6)
        queue = iter(draws)

        def fake_local_unitaries(center, radii, rngs):
            return np.stack([unitaries[next(queue)] for _ in rngs])

        monkeypatch.setattr(subalg.freeprod, "local_unitaries", fake_local_unitaries)
        args = (C2, C2, [((1, 1), (1, 1))], 0.5, [], 1)
        if tries is None:
            with pytest.raises(NumericalInstabilityError):
                staged_build(*args, tol=1e-6)
            return
        (stage,) = staged_build(*args, tol=1e-6).stages
        assert stage.tries == tries
        assert np.array_equal(stage.u, unitaries["success"])

    def test_radius_halves_past_the_range_of_a_float(self, monkeypatch):
        # 34,400 tries halve the radius 1,075 times: from 1/16 it is subnormal
        # from attempt 32,608 on (where 2.0 ** (a // 32) overflows, at
        # attempt 32,768, it is 2^-1028) and 0.0 from attempt 34,272 on, and
        # the search still ends exhausted.  Draws and decisions are faked, so
        # only the search loop runs.
        radii = []

        def fake_local_unitaries(center, rs, rngs):
            radii.extend(rs)
            return np.broadcast_to(center, (len(rs), *center.shape))

        def fake_kernel(*args):
            return (lambda us: iter([2] * len(us))), 4096

        monkeypatch.setattr(subalg.freeprod, "local_unitaries", fake_local_unitaries)
        monkeypatch.setattr(subalg.freeprod, "sample_stream", lambda *key: None)
        monkeypatch.setattr(subalg.freeprod, "_joint_dim_kernel", fake_kernel)
        with pytest.raises(SearchExhaustedError) as info:
            staged_build(C2, C2, [((1, 1), (1, 1))], 0.5, [], 1, max_tries=34400)
        assert (info.value.stage, info.value.best_dim, info.value.tries) == (1, 2, 34400)
        assert radii == halving_radii(0.5 / 4, 34400)
        assert radii[32768] == 2.0**-1028 and radii[34271] > 0.0 == radii[34272]

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
        assert dpi_probe(rep, 3, 1, local_radius=1e-3).dims == (8, 8, 8)
        assert shapes == [(1, 0, 4, 4), (3, 0, 4, 4), (3, 0, 4, 4)]


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
    monkeypatch.setattr(subalg.numeric, "STACK_BYTES", 1 << 21)
    rep = RepPair(alg1, mult1, M2, mult2, np.eye(12))
    _, stack = _joint_dim_kernel(alg1, [mult1], M2, [mult2], None)
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
