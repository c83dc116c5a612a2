"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion pins its
tolerance and wall-clock budget here; the numerical cross-checks use realized
matrices as the independent oracle for the symbolic dimension formulas.
"""

import itertools
import json
import time

import numpy as np
import pytest

from subalg.algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    enumerate_embedded_algebras,
    enumerate_subalgebra_classes,
    relative_commutant,
)
from subalg.dimensions import (
    audit_density_hypotheses,
    box_max,
    class_dim,
    lagrange_min,
    stab_dim,
)
from subalg.errors import SearchExhaustedError
from subalg.freeprod import (
    FreeElement,
    Letter,
    RepPair,
    dpi_probe,
    evaluate,
    lipschitz_bound,
    rcp_balance,
    rcp_check,
    staged_build,
)
from subalg.numeric import (
    density_experiment,
    haar_unitary,
    realize,
    realize_class,
)
from oracles import (
    ambient_embedding,
    dense_intersect,
    halmos_dim,
    kronecker_commutant,
    with_unitary,
)

M2 = BlockStructure((2,))
C2 = BlockStructure((1, 1))

CASE1 = (EmbeddedAlgebra(4, M2, (2,)), EmbeddedAlgebra(4, M2, (2,)))
CASE2 = (
    EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1)),
    EmbeddedAlgebra(4, M2, (2,)),
)
CASE3 = (
    EmbeddedAlgebra(8, BlockStructure((4, 4)), (1, 1)),
    EmbeddedAlgebra(8, BlockStructure((4, 2)), (1, 2)),
)
CASE4 = (
    EmbeddedAlgebra(6, BlockStructure((3, 3)), (1, 1)),
    EmbeddedAlgebra(6, BlockStructure((2, 2, 2)), (1, 1, 1)),
)
COVERED_INSTANCES = [CASE1, CASE2, CASE3, CASE4]


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool = True) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.seconds else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        assert ok
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s ({elapsed:.1f}s)"


def test_criterion_1_formula_oracle_equivalence():
    budget = Budget("1 formula/oracle equivalence", 60)
    mismatches = 0
    for n in range(1, 7):
        for b1 in enumerate_embedded_algebras(n):
            r1 = realize(b1)
            for cls in enumerate_subalgebra_classes(b1):
                rb = realize_class(b1, cls.embedding)
                comm = kronecker_commutant(list(rb.basis))
                dim_b = rb.dimension
                dim_rel = dense_intersect(r1, comm).dimension
                dim_center = dense_intersect(rb, comm).dimension

                if dim_rel != relative_commutant(cls.embedding).algebra_dim():
                    mismatches += 1
                if comm.dimension != relative_commutant(ambient_embedding(cls)).algebra_dim():
                    mismatches += 1
                if dim_b != cls.structure.algebra_dim():
                    mismatches += 1
                if dim_center != cls.structure.center_dim():
                    mismatches += 1
                numeric_stab = dim_b + dim_rel - dim_center
                if numeric_stab != stab_dim(b1, cls):
                    mismatches += 1
                if r1.dimension - numeric_stab != class_dim(b1, cls):
                    mismatches += 1
    budget.finish(mismatches == 0)


def test_criterion_2_inequality_audit():
    budget = Budget("2 d(B) < N^2 audit", 120)
    ok = True
    for expected_case, (b1, b2) in enumerate(COVERED_INSTANCES, start=1):
        audit = audit_density_hypotheses(b1, b2)
        ok &= audit.case == expected_case
        ok &= audit.all_pass
        for row in audit.rows:
            if row.report.d_value is not None:
                ok &= row.report.d_value < audit.ambient_sq
    case1_audit = audit_density_hypotheses(*CASE1)
    (c2_row,) = [r for r in case1_audit.rows if r.cls.structure.blocks == (1, 1)]
    ok &= c2_row.report.d_value == 12 and case1_audit.ambient_sq == 16
    budget.finish(ok)


def test_criterion_3_density_positive():
    budget = Budget("3 density positive (200/200, global and local)", 30)
    ok = True
    for b1, b2 in COVERED_INSTANCES:
        stats = density_experiment(b1, b2, 200, seed=20240)
        ok &= stats.trivial_count == 200
        local = density_experiment(b1, b2, 200, seed=20241, local=(None, 1e-3))
        ok &= local.trivial_count == 200
    budget.finish(ok)


def test_criterion_4_density_negative_control():
    budget = Budget("4 density negative control (0/200, min dim 2)", 10)
    b = EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1))
    stats = density_experiment(b, b, 200, seed=20242)
    budget.finish(stats.trivial_count == 0 and min(stats.dims) == 2)


def _solve_mult_row(blocks, target, rng):
    for _ in range(200):
        row, remaining = [], target
        for i, b in enumerate(blocks):
            if i == len(blocks) - 1:
                if remaining % b:
                    break
                row.append(remaining // b)
                remaining = 0
            else:
                m = int(rng.integers(0, remaining // b + 1))
                row.append(m)
                remaining -= m * b
        else:
            if remaining == 0:
                return tuple(row)
    return None


def test_criterion_5_rcp_balancer():
    budget = Budget("5 RCP balancer (exact instance + 100 random)", 10)
    bal = rcp_balance(C2, (1, 3), M2, (2,))
    ok = (
        bal.s == 3
        and bal.qhat1 == (2, 0)
        and bal.qhat2 == (1,)
        and bal.final_dim == 6
        and bal.final_mult1 == (3, 3)
        and bal.final_mult2 == (3,)
        and rcp_check(C2, bal.final_mult1).passes
        and rcp_check(M2, bal.final_mult2).passes
    )
    rng = np.random.default_rng(31415)
    done = 0
    while done < 100:
        blocks1 = tuple(int(b) for b in rng.integers(1, 5, size=rng.integers(1, 4)))
        blocks2 = tuple(int(b) for b in rng.integers(1, 5, size=rng.integers(1, 4)))
        dim = int(rng.integers(1, 25))
        m1 = _solve_mult_row(blocks1, dim, rng)
        m2 = _solve_mult_row(blocks2, dim, rng)
        if m1 is None or m2 is None:
            continue
        out = rcp_balance(BlockStructure(blocks1), m1, BlockStructure(blocks2), m2)
        ok &= rcp_check(BlockStructure(blocks1), out.final_mult1).passes
        ok &= rcp_check(BlockStructure(blocks2), out.final_mult2).passes
        done += 1
    budget.finish(ok)


def test_criterion_6_optimization_bounds():
    budget = Budget("6 optimization bounds vs sampling/grid oracles", 30)
    ok = True
    rng = np.random.default_rng(27182)
    instances = [[1.0, 1.0], [1.0], [1.0, 2.0, 3.0]]
    instances += [list(rng.uniform(0.2, 5.0, size=rng.integers(2, 6))) for _ in range(3)]
    for weights in instances:
        value, minimizer = lagrange_min(weights)
        r = np.asarray(weights)
        x = rng.standard_normal((100_000, len(weights)))
        x += (1.0 - x.sum(axis=1, keepdims=True)) / len(weights)
        scores = (x**2 / r).sum(axis=1)
        ok &= scores.min() >= value - 1e-12
        ok &= abs(sum(minimizer) - 1.0) < 1e-12
    for k in (2, 3, 5):
        xs = np.linspace(0.0, 1.0, 1000)
        ys = np.linspace(0.0, 0.5, 1000)
        x, y = np.meshgrid(xs, ys)
        h = 2 * x * y - (1 + 1 / k**2) * y**2 - 0.5 * x**2
        ok &= h.max() <= box_max(k) + 1e-9
        ok &= abs(h.max() - box_max(k)) <= 1e-9
    budget.finish(ok)


def _random_contraction(rng, size):
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return z / (np.linalg.norm(z, 2) * float(rng.uniform(1.0, 2.0)))


def test_criterion_7_lipschitz_contract():
    budget = Budget("7 Lipschitz contract on 10^3 random triples", 30)
    rng = np.random.default_rng(16180)
    rep0 = RepPair(M2, (2,), M2, (2,), np.eye(4))
    violations = 0
    for _ in range(1000):
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            side = int(rng.integers(1, 3))
            word = []
            for _ in range(int(rng.integers(0, 4))):
                word.append(Letter(side, _random_contraction(rng, 2)))
                side = 3 - side
            terms.append((complex(rng.standard_normal(), rng.standard_normal()), tuple(word)))
        x = FreeElement(tuple(terms))
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        deviation = np.linalg.norm(
            evaluate(with_unitary(rep0, u), x) - evaluate(with_unitary(rep0, v), x), 2
        )
        if deviation > lipschitz_bound(x) * np.linalg.norm(u - v, 2):
            violations += 1
    budget.finish(violations == 0)


def test_criterion_8_staged_builder():
    budget = Budget("8 staged builder (3 stages + exhausted control)", 60)
    stages = [((1,), (1,))] * 3
    build = staged_build(M2, M2, stages, 0.5, [], seed=4242)
    ok = [s.dim for s in build.stages] == [2, 4, 6]
    ok &= all(s.irreducible for s in build.stages)
    ok &= build.total_bound < 0.25
    for k, stage in enumerate(build.stages, start=1):
        ok &= stage.bound < 0.5 / 2 ** (k + 1)
    rerun = staged_build(M2, M2, stages, 0.5, [], seed=4242)
    ok &= all(np.array_equal(a.u, b.u) for a, b in zip(build.stages, rerun.stages))
    ok &= json.dumps(build.to_json_dict(), sort_keys=True) == json.dumps(
        rerun.to_json_dict(), sort_keys=True
    )
    try:
        staged_build(C2, C2, [((1, 1), (1, 1))] * 2, 0.5, [], seed=4242, max_tries=64)
        ok = False
    except SearchExhaustedError as exc:
        ok &= exc.dim == 4 and exc.best_dim >= 2
    budget.finish(bool(ok))


def test_hypothesis_boundary_halmos_oracle():
    # C^2 * C^2 is the one pair with nontrivial factors outside the theorem's
    # hypothesis (dim A1 - 1)(dim A2 - 1) >= 2; its dpi dimensions are exact
    budget = Budget("free-product oracle: C^2 * C^2 against Halmos (n <= 10)", 60)
    mismatches = []
    cases = 0
    for n in range(2, 11):
        for p in range(n + 1):
            for q in range(n + 1):
                rep = RepPair(C2, (p, n - p), C2, (q, n - q), np.eye(n))
                stats = dpi_probe(rep, 1, seed=1000 * n + 10 * p + q)
                cases += 1
                if stats.dims != (halmos_dim(n, p, q),):
                    mismatches.append((n, p, q, stats.dims))
    assert cases == 501
    print(f"  {cases} cases, mismatches {mismatches}")
    budget.finish(not mismatches)


def test_rcp_pairs_are_generically_irreducible_under_the_hypothesis():
    # The paper's finite-dimensional core: every unordered pair of RCP layouts
    # (each minimal central projection of a factor of the same rank) at
    # N <= 8, scalar and full factors left out, is irreducible at 2 Haar
    # perturbations exactly when (dim A1 - 1)(dim A2 - 1) >= 2, except C^2 * C^2,
    # which is irreducible only at N = 2.  An observation consistent with the
    # theorem at these N, not a proof of it.
    budget = Budget("free-product core: RCP pairs at N <= 8 against the hypothesis", 30)
    mismatches = []
    pairs = 0
    for n in range(2, 9):
        layouts = [
            a
            for a in enumerate_embedded_algebras(n)
            if len({m * b for m, b in zip(a.mult, a.structure.blocks)}) == 1
            and a.structure.blocks not in ((1,), (n,))
        ]
        for a1, a2 in itertools.combinations_with_replacement(layouts, 2):
            pairs += 1
            rep = RepPair(a1.structure, a1.mult, a2.structure, a2.mult, np.eye(n))
            dims = dpi_probe(rep, 2, seed=11).dims
            hypothesis = (a1.structure.algebra_dim() - 1) * (a2.structure.algebra_dim() - 1) >= 2
            c2c2 = a1.structure.blocks == a2.structure.blocks == (1, 1)
            irreducible = hypothesis or (c2c2 and n == 2)
            if not (dims == (1, 1) if irreducible else min(dims) > 1):
                mismatches.append((str(a1), str(a2), dims))
    assert pairs == 179
    print(f"  {pairs} pairs, mismatches {mismatches}")
    budget.finish(not mismatches)
