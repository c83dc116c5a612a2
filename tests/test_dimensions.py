"""Tests for the dimension formulas, the hypothesis audit, and the optimization bounds.

The dimension examples are cross-checked numerically (against realized
commutants) in test_acceptance; here the frozen integers from worked small
cases are asserted, together with the structural invariants of the module.
"""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalg import dimensions
from subalg.algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    MultiplicityMatrix,
    canonical_embedding_key,
    compose_multiplicities,
    enumerate_embedded_algebras,
    enumerate_subalgebra_classes,
    relative_commutant,
)
from subalg.dimensions import (
    ClassVerdict,
    HypothesisAudit,
    SimpleClassComparison,
    audit_density_hypotheses,
    box_max,
    class_dim,
    classify_pair,
    d_value,
    dim_report,
    lagrange_min,
    orbit_dims,
    stab_dim,
)

M2 = BlockStructure((2,))


def classes_of(b1):
    return {c.structure.blocks: c for c in enumerate_subalgebra_classes(b1)}


class TestStabAndClassDims:
    def setup_method(self):
        self.b1 = EmbeddedAlgebra(4, M2, (2,))
        self.classes = classes_of(self.b1)

    def test_c2_values(self):
        c2 = self.classes[(1, 1)]
        assert stab_dim(self.b1, c2) == 2
        assert class_dim(self.b1, c2) == 2

    def test_full_class(self):
        full = self.classes[(2,)]
        assert stab_dim(self.b1, full) == self.b1.structure.algebra_dim()
        assert class_dim(self.b1, full) == 0

    def test_trivial_class(self):
        triv = self.classes[(1,)]
        assert stab_dim(self.b1, triv) == self.b1.structure.algebra_dim()
        assert class_dim(self.b1, triv) == 0

    def test_quotient_identity_exhaustive(self):
        # class dimension + stabilizer dimension = dim U(B1), for every class at N <= 6
        for n in range(1, 7):
            for b1 in enumerate_embedded_algebras(n):
                u1 = b1.structure.algebra_dim()
                for cls in enumerate_subalgebra_classes(b1):
                    assert class_dim(b1, cls) + stab_dim(b1, cls) == u1
                    assert class_dim(b1, cls) >= 0
                    assert stab_dim(b1, cls) >= 0


class TestOrbitAndD:
    def setup_method(self):
        self.b1 = EmbeddedAlgebra(4, M2, (2,))
        self.classes = classes_of(self.b1)

    def test_c2_orbit_and_d(self):
        c2 = self.classes[(1, 1)]
        assert orbit_dims(self.b1, c2, self.b1) == [10]
        assert d_value(self.b1, c2, self.b1) == 12

    def test_trivial_gives_ambient_square(self):
        triv = self.classes[(1,)]
        assert orbit_dims(self.b1, triv, self.b1) == [16]
        assert d_value(self.b1, triv, self.b1) == 16

    def test_incompatible_case_absent(self):
        b1 = EmbeddedAlgebra(6, BlockStructure((3,)), (2,))
        b2 = EmbeddedAlgebra(6, M2, (3,))
        c2 = classes_of(b1)[(1, 1)]
        assert orbit_dims(b1, c2, b2) == []
        assert d_value(b1, c2, b2) is None

    def test_trivial_class_boundary_for_every_pair(self):
        for n in range(2, 6):
            algebras = enumerate_embedded_algebras(n)
            for b1 in algebras:
                triv = next(
                    c for c in enumerate_subalgebra_classes(b1) if c.is_trivial()
                )
                for b2 in algebras:
                    assert d_value(b1, triv, b2) == n * n

    def test_orbit_monotone_sanity(self):
        for n in range(2, 6):
            algebras = enumerate_embedded_algebras(n)
            for b1 in algebras:
                for cls in enumerate_subalgebra_classes(b1):
                    for b2 in algebras:
                        u2 = b2.structure.algebra_dim()
                        for dim in orbit_dims(b1, cls, b2):
                            assert u2 <= dim <= n * n

    def test_dim_report_consistency(self):
        c2 = self.classes[(1, 1)]
        rep = dim_report(self.b1, c2, self.b1)
        assert rep.orbit_dims_histogram == ((10, 1),)
        assert rep.d_value == rep.class_dim + max(dim for dim, _ in rep.orbit_dims_histogram)
        assert rep.ambient_sq == 16


class TestClassifyPair:
    def test_case1(self):
        b = EmbeddedAlgebra(4, M2, (2,))
        assert classify_pair(b, b) == 1

    def test_case2(self):
        b1 = EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1))
        b2 = EmbeddedAlgebra(4, M2, (2,))
        assert classify_pair(b1, b2) == 2

    def test_case3(self):
        b1 = EmbeddedAlgebra(8, BlockStructure((4, 4)), (1, 1))
        b2 = EmbeddedAlgebra(8, BlockStructure((4, 2)), (1, 2))
        assert classify_pair(b1, b2) == 3

    def test_case4(self):
        b1 = EmbeddedAlgebra(6, BlockStructure((3, 3)), (1, 1))
        b2 = EmbeddedAlgebra(6, BlockStructure((2, 2, 2)), (1, 1, 1))
        assert classify_pair(b1, b2) == 4

    def test_not_covered(self):
        b = EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1))
        assert classify_pair(b, b) is None

    def test_full_algebra_not_covered(self):
        full = EmbeddedAlgebra(4, BlockStructure((4,)), (1,))
        b = EmbeddedAlgebra(4, M2, (2,))
        assert classify_pair(full, b) is None
        assert classify_pair(b, full) is None


class TestHypothesisAudit:
    def test_case1_values(self):
        b = EmbeddedAlgebra(4, M2, (2,))
        audit = audit_density_hypotheses(b, b)
        assert audit.case == 1
        assert audit.all_pass
        (row,) = audit.rows
        assert row.cls.structure.blocks == (1, 1)
        assert row.report.d_value == 12
        assert row.verdict == "ok"
        (cmp,) = audit.comparisons
        assert cmp.d_simple == 7 and cmp.d_c2 == 12 and cmp.ok

    def test_case4_instance(self):
        b1 = EmbeddedAlgebra(6, BlockStructure((3, 3)), (1, 1))
        b2 = EmbeddedAlgebra(6, BlockStructure((2, 2, 2)), (1, 1, 1))
        audit = audit_density_hypotheses(b1, b2)
        assert audit.case == 4
        assert audit.all_pass
        for row in audit.rows:
            if row.report.d_value is not None:
                assert row.report.d_value < 36

    def test_not_covered_reported_not_raised(self):
        b = EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1))
        audit = audit_density_hypotheses(b, b)
        assert not audit.covered
        assert audit.to_json_dict()["status"] == "not covered"

    def test_sweep_covered_pairs_small(self):
        # every covered ordered pair at N <= 6: abelian classes with orbits all
        # satisfy the strict inequality
        for n in range(2, 7):
            algebras = enumerate_embedded_algebras(n)
            for b1 in algebras:
                for b2 in algebras:
                    audit = audit_density_hypotheses(b1, b2)
                    if audit.covered:
                        assert audit.all_pass, (str(b1), str(b2))

    @pytest.mark.parametrize("n", [7, 8])
    def test_sweep_covered_pairs_larger(self, n):
        # same sweep at N = 7, 8 over every ordered pair, C^8 against C^8 included
        algebras = enumerate_embedded_algebras(n)
        covered = 0
        for b1 in algebras:
            for b2 in algebras:
                audit = audit_density_hypotheses(b1, b2)
                if audit.covered:
                    covered += 1
                    assert audit.all_pass, (str(b1), str(b2))
        assert covered == {7: 3, 8: 26}[n]


def audit_per_pair(b1, b2):
    """The audit recomputed from the public per-class helpers, every value per pair."""
    case = classify_pair(b1, b2)
    n_sq = b1.ambient_dim**2
    if case is None:
        return HypothesisAudit(None, n_sq, ())
    classes = enumerate_subalgebra_classes(b1)
    rows = []
    for cls in classes:
        if not cls.is_abelian() or cls.is_trivial():
            continue
        report = dim_report(b1, cls, b2)
        if report.d_value is None:
            verdict = "no-embedding"
        else:
            verdict = "ok" if report.d_value < n_sq else "violated"
        rows.append(ClassVerdict(cls, report, verdict))
    comparisons = []
    if b1.structure.algebra_dim() + b2.structure.algebra_dim() <= n_sq:
        d_by_key = {row.cls.key(): row.report.d_value for row in rows}
        c2 = BlockStructure((1, 1))
        for cls in classes:
            if not cls.structure.is_simple() or cls.is_abelian():
                continue
            d_b = d_value(b1, cls, b2)
            if d_b is None:
                continue
            k = cls.structure.blocks[0]
            seen = set()
            for x in range(1, k):
                split = MultiplicityMatrix(c2, cls.structure, ((x, k - x),))
                composed = compose_multiplicities(cls.embedding, split)
                key = canonical_embedding_key(c2, composed.entries)
                if key in seen:
                    continue
                seen.add(key)
                d_c = d_by_key[key]
                ok = d_c is not None and d_b <= d_c
                comparisons.append(
                    SimpleClassComparison(cls.structure.blocks, (x, k - x), d_b, d_c, ok)
                )
    return HypothesisAudit(case, n_sq, tuple(rows), tuple(comparisons))


class TestClassTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_audit_equals_per_pair_recomputation(self, n):
        # the per-parent table changes where values are computed, never a value
        algebras = enumerate_embedded_algebras(n)
        for b1 in algebras:
            for b2 in algebras:
                assert audit_density_hypotheses(b1, b2) == audit_per_pair(b1, b2), (
                    str(b1),
                    str(b2),
                )

    def test_clearing_module_caches_empties_the_table(self):
        # the benchmark starts each pass cold by clearing every cache_clear-able
        # callable of the subalg modules; the class table must be one of them
        b = EmbeddedAlgebra(4, M2, (2,))
        audit_density_hypotheses(b, b)
        assert dimensions._class_table.cache_info().currsize > 0
        for name, module in list(sys.modules.items()):
            if name.startswith("subalg."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
        assert dimensions._class_table.cache_info().currsize == 0


def class_table_reference(b1):
    """``_class_table`` rebuilt through relative_commutant and compose_multiplicities."""
    abelian, simple = [], []
    c2 = BlockStructure((1, 1))
    u1 = b1.structure.algebra_dim()
    for cls in enumerate_subalgebra_classes(b1):
        structure = cls.structure
        stab = (
            structure.algebra_dim()
            + relative_commutant(cls.embedding).algebra_dim()
            - structure.center_dim()
        )
        if cls.is_abelian() and not cls.is_trivial():
            abelian.append((cls, cls.ambient_mult(), stab, u1 - stab, cls.key()))
        elif structure.is_simple() and not cls.is_abelian():
            k = structure.blocks[0]
            splits = {}  # C^2 key -> first split with that key
            for x in range(1, k):
                split = MultiplicityMatrix(c2, structure, ((x, k - x),))
                composed = compose_multiplicities(cls.embedding, split)
                splits.setdefault(canonical_embedding_key(c2, composed.entries), (x, k - x))
            pairs = tuple((split, key) for key, split in splits.items())
            simple.append((cls, cls.ambient_mult(), u1 - stab, pairs))
    return tuple(abelian), tuple(simple)


class TestClassTableFromRows:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_reference_through_commutant_and_composition(self, n):
        for b1 in enumerate_embedded_algebras(n):
            abelian, simple = dimensions._class_table(b1)
            assert (tuple(map(tuple, abelian)), tuple(map(tuple, simple))) == (
                class_table_reference(b1)
            ), str(b1)


class TestOrbitHistograms:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_rows_count_every_orbit_dimension(self, n):
        # every covered ordered pair at N <= 6: each row's histogram is the
        # Counter of the per-embedding list, and d reads its largest key
        algebras = enumerate_embedded_algebras(n)
        rows = 0
        for b1 in algebras:
            for b2 in algebras:
                audit = audit_density_hypotheses(b1, b2)
                if not audit.covered:
                    continue
                for row in audit.rows:
                    rows += 1
                    dims = orbit_dims(b1, row.cls, b2)
                    histogram = row.report.orbit_dims_histogram
                    assert histogram == tuple(sorted(Counter(dims).items()))
                    if dims:
                        assert row.report.d_value == row.report.class_dim + max(histogram)[0]
                    else:
                        assert row.report.d_value is None
                    as_json = row.to_json_dict()["orbit_dims_histogram"]
                    assert as_json == {str(d): c for d, c in Counter(dims).items()}
        assert rows > 0


class TestLagrangeMin:
    def test_closed_form_values(self):
        value, minimizer = lagrange_min([1.0, 1.0])
        assert value == pytest.approx(0.5)
        assert minimizer == pytest.approx((0.5, 0.5))
        assert lagrange_min([1.0])[0] == pytest.approx(1.0)
        assert lagrange_min([1.0, 2.0, 3.0])[0] == pytest.approx(1.0 / 6.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lagrange_min([])
        with pytest.raises(ValueError):
            lagrange_min([1.0, -2.0])

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_feasible_points_never_undercut(self, weights, seed):
        value, minimizer = lagrange_min(weights)
        rng = np.random.default_rng(seed)
        r = np.asarray(weights)
        x = rng.standard_normal((200, len(weights)))
        x += (1.0 - x.sum(axis=1, keepdims=True)) / len(weights)
        scores = (x**2 / r).sum(axis=1)
        assert scores.min() >= value - 1e-12
        assert abs(sum(minimizer) - 1.0) < 1e-12


class TestBoxMax:
    def test_closed_form_values(self):
        assert box_max(2) == pytest.approx(3.0 / 16.0)
        assert box_max(3) == pytest.approx(2.0 / 9.0)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            box_max(1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_grid_never_exceeds(self, k):
        xs = np.linspace(0.0, 1.0, 400)
        ys = np.linspace(0.0, 0.5, 400)
        x, y = np.meshgrid(xs, ys)
        h = 2 * x * y - (1 + 1 / k**2) * y**2 - 0.5 * x**2
        assert h.max() <= box_max(k) + 1e-9
        # the maximum is attained at a grid corner, so the grid finds it exactly
        assert h.max() == pytest.approx(box_max(k), abs=1e-9)
