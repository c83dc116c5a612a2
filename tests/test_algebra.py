"""Tests for the symbolic layer: block structures, embeddings, class enumeration.

Derived expected values are computed by independent oracles kept in this file
(brute-force enumeration over bounded integer ranges, hand-built concrete
embeddings solved with plain numpy), never by the code paths under test.
"""

import gc
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalg import algebra, dimensions
from subalg.algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    MultiplicityMatrix,
    SubalgebraClass,
    canonical_embedding_key,
    compatible_embeddings,
    compose_multiplicities,
    enumerate_embedded_algebras,
    enumerate_subalgebra_classes,
    enumerate_unital_embeddings,
    relative_commutant,
)
from subalg.dimensions import orbit_dims
from subalg.errors import DomainError, ShapeMismatchError
import oracles
from oracles import all_unital_embeddings, center_restriction, class_leq, gcd_embedding_bound

M2 = BlockStructure((2,))
M3 = BlockStructure((3,))
M6 = BlockStructure((6,))
C1 = BlockStructure((1,))
C2 = BlockStructure((1, 1))
M2M2 = BlockStructure((2, 2))


def brute_force_embeddings(source, target, max_entry=None):
    """Oracle: exhaustive scan of small integer matrices for unital injective ones."""
    if max_entry is None:
        max_entry = max(target.blocks)
    rows, cols = target.num_blocks, source.num_blocks
    found = []
    for flat in itertools.product(range(max_entry + 1), repeat=rows * cols):
        entries = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        unital = all(
            sum(e * c for e, c in zip(row, source.blocks)) == n
            for row, n in zip(entries, target.blocks)
        )
        injective = all(any(entries[i][j] for i in range(rows)) for j in range(cols))
        if unital and injective:
            found.append(tuple(tuple(r) for r in entries))
    return set(found)


def numeric_commutant_dim(gens):
    """Oracle: nullspace dimension of the stacked commutator system, plain numpy."""
    n = gens[0].shape[0]
    eye = np.eye(n)
    system = np.concatenate([np.kron(a, eye) - np.kron(eye, a.T) for a in gens])
    s = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(s < 1e-9))


class TestBlockStructure:
    def test_dims(self):
        b = BlockStructure((2, 3))
        assert b.algebra_dim() == 13
        assert b.center_dim() == 2
        assert b.model_dim() == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((0, 1))

    def test_fractional_size_rejected(self):
        # int() would truncate 2.5 to 2; integral floats and numpy ints still pass
        with pytest.raises(ValueError, match="integers"):
            BlockStructure((2.5,))
        assert BlockStructure((2.0, np.int64(3))).blocks == (2, 3)

    def test_equality_is_order_sensitive(self):
        assert BlockStructure((1, 2)) != BlockStructure((2, 1))
        assert BlockStructure((1, 2)).isomorphic(BlockStructure((2, 1)))


class TestCompose:
    def test_identity_case(self):
        inner = MultiplicityMatrix(C2, M3, ((1, 2),))
        outer = MultiplicityMatrix.identity(M3)
        assert compose_multiplicities(outer, inner).entries == ((1, 2),)

    def test_m6_chain_matches_numeric_block_ranks(self):
        # Oracle: realize M3 -> M6 as a |-> kron(a, I2) and C2 -> M3 as diag(x, y, y);
        # the minimal central projections of the composite have ranks 2 and 4.
        p1 = np.kron(np.diag([1.0, 0.0, 0.0]), np.eye(2))
        p2 = np.kron(np.diag([0.0, 1.0, 1.0]), np.eye(2))
        assert (np.linalg.matrix_rank(p1), np.linalg.matrix_rank(p2)) == (2, 4)

        inner = MultiplicityMatrix(C2, M3, ((1, 2),))
        outer = MultiplicityMatrix(M3, M6, ((2,),))
        composed = compose_multiplicities(outer, inner)
        assert composed.entries == ((2, 4),)

    def test_unitality_preserved_on_chain(self):
        inner = MultiplicityMatrix(C2, M3, ((1, 2),))
        outer = MultiplicityMatrix(M3, M6, ((2,),))
        composed = compose_multiplicities(outer, inner)
        assert composed.unital()
        # independent dot product: [2,4] . [1,1] == 6
        assert 2 * 1 + 4 * 1 == 6

    def test_shape_mismatch(self):
        inner = MultiplicityMatrix(C2, M3, ((1, 2),))
        outer = MultiplicityMatrix(M2, M6, ((3,),))
        with pytest.raises(ShapeMismatchError):
            compose_multiplicities(outer, inner)

    def test_associativity_and_unitality_small_chains(self):
        structures = [BlockStructure(b) for b in [(1,), (1, 1), (2,), (2, 1), (3,), (2, 2), (4,)]]
        checked = 0
        for s1, s2, s3, s4 in itertools.product(structures, repeat=4):
            if not (s1.model_dim() <= s2.model_dim() <= s3.model_dim() <= s4.model_dim() <= 6):
                continue
            for c in all_unital_embeddings(s1, s2):
                for b in all_unital_embeddings(s2, s3):
                    for a in all_unital_embeddings(s3, s4):
                        lhs = compose_multiplicities(a, compose_multiplicities(b, c))
                        rhs = compose_multiplicities(compose_multiplicities(a, b), c)
                        assert lhs.entries == rhs.entries
                        assert lhs.unital()
                        checked += 1
        assert checked > 100


class TestRelativeCommutant:
    def test_m2_inside_m4(self):
        emb = MultiplicityMatrix(M2, BlockStructure((4,)), ((2,),))
        out = relative_commutant(emb)
        assert out.blocks == (2,)
        assert out.algebra_dim() == 4
        # numeric oracle: commutant of a |-> kron(a, I2) inside M4
        gens = [np.kron(e, np.eye(2)) for e in _matrix_units(2)]
        assert numeric_commutant_dim(gens) == 4

    def test_full_center(self):
        emb = MultiplicityMatrix(C2, C2, ((1, 0), (0, 1)))
        assert relative_commutant(emb).blocks == (1, 1)

    def test_c2_mult_22_in_m4(self):
        emb = MultiplicityMatrix(C2, BlockStructure((4,)), ((2, 2),))
        assert relative_commutant(emb).blocks == (2, 2)
        gens = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
        assert numeric_commutant_dim(gens) == 8

    def test_requires_unital(self):
        emb = MultiplicityMatrix(C2, BlockStructure((4,)), ((1, 1),))
        with pytest.raises(DomainError):
            relative_commutant(emb)


def _matrix_units(n):
    units = []
    for p in range(n):
        for q in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[p, q] = 1.0
            units.append(e)
    return units


class TestCenterRestriction:
    def test_mixed_blocks(self):
        e = EmbeddedAlgebra(7, BlockStructure((2, 3)), (2, 1))
        out = center_restriction(e)
        assert out.structure.blocks == (1, 1)
        assert out.mult == (4, 3)
        # oracle: ranks of the realized central projections
        p1 = np.zeros((7, 7))
        p1[:4, :4] = np.eye(4)
        assert np.linalg.matrix_rank(p1) == 4

    def test_abelian_unchanged(self):
        e = EmbeddedAlgebra(5, BlockStructure((1, 1)), (2, 3))
        assert center_restriction(e).mult == (2, 3)

    def test_simple_gives_full_identity(self):
        e = EmbeddedAlgebra(6, BlockStructure((3,)), (2,))
        out = center_restriction(e)
        assert out.structure.blocks == (1,)
        assert out.mult == (6,)


class TestEnumerateEmbeddings:
    def test_unit_into_m2(self):
        embs = enumerate_unital_embeddings(C1, M2)
        assert [e.entries for e in embs] == [((2,),)]

    def test_c2_into_m2(self):
        embs = enumerate_unital_embeddings(C2, M2)
        assert [e.entries for e in embs] == [((1, 1),)]

    def test_c2_into_m2m2_matches_bruteforce(self):
        full = {e.entries for e in all_unital_embeddings(C2, M2M2)}
        assert full == brute_force_embeddings(C2, M2M2)
        assert ((1, 1), (1, 1)) in full
        assert ((2, 0), (0, 2)) in full
        assert ((0, 2), (2, 0)) in full
        assert ((2, 0), (1, 1)) in full
        # the two equal blocks of C2 are relabeled: one member per orbit is kept
        got = {e.entries for e in enumerate_unital_embeddings(C2, M2M2)}
        assert got == {e for e in full if adjacent_equal_columns_sorted(C2, e)}
        assert ((0, 2), (2, 0)) in got and ((2, 0), (0, 2)) not in got

    def test_empty_when_impossible(self):
        assert enumerate_unital_embeddings(C2, C1) == []

    @pytest.mark.parametrize(
        "source,target",
        [
            (C2, BlockStructure((3,))),
            (BlockStructure((2, 1)), BlockStructure((3, 2))),
            (BlockStructure((1, 1, 1)), BlockStructure((2, 2))),
        ],
    )
    def test_agrees_with_bruteforce(self, source, target):
        full = brute_force_embeddings(source, target)
        assert {e.entries for e in all_unital_embeddings(source, target)} == full
        got = {e.entries for e in enumerate_unital_embeddings(source, target)}
        assert got == {e for e in full if adjacent_equal_columns_sorted(source, e)}

    def test_deterministic_lexicographic_order(self):
        embs = enumerate_unital_embeddings(C2, M2M2)
        flats = [tuple(v for row in e.entries for v in row) for e in embs]
        assert flats == sorted(flats)

    @settings(max_examples=150, deadline=None)
    @given(
        source=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        target=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    )
    def test_canonical_is_the_canonical_subsequence(self, source, target):
        source, target = BlockStructure(tuple(source)), BlockStructure(tuple(target))
        full = all_unital_embeddings(source, target)
        canon = enumerate_unital_embeddings(source, target)
        assert [e.entries for e in canon] == [
            e.entries for e in full if adjacent_equal_columns_sorted(source, e.entries)
        ]
        if list(source.blocks) == sorted(source.blocks, reverse=True):
            # for a descending source these are exactly the fixed points of the key
            for e in full:
                fixed = canonical_embedding_key(source, e.entries) == (source.blocks, e.entries)
                assert fixed == adjacent_equal_columns_sorted(source, e.entries)


def adjacent_equal_columns_sorted(source, entries):
    """Oracle: columns of adjacent equal-size source blocks are lexicographically nondecreasing."""
    cols = list(zip(*entries))
    return all(
        cols[j] <= cols[j + 1]
        for j in range(len(cols) - 1)
        if source.blocks[j] == source.blocks[j + 1]
    )


def independent_class_count(parent):
    """Oracle: recount classes by canonicalizing with min-over-permutations."""
    keys = set()
    total = parent.structure.model_dim()

    def structures(remaining, cap):
        if remaining >= 0:
            yield ()
        for first in range(min(cap, remaining), 0, -1):
            for rest in structures(remaining - first, first):
                yield (first,) + rest

    for blocks in set(structures(total, max(parent.structure.blocks))):
        if not blocks:
            continue
        structure = BlockStructure(blocks)
        for emb in all_unital_embeddings(structure, parent.structure):
            best = None
            for perm in itertools.permutations(range(len(blocks))):
                if tuple(blocks[p] for p in perm) != blocks:
                    continue
                arranged = tuple(tuple(row[p] for p in perm) for row in emb.entries)
                if best is None or arranged < best:
                    best = arranged
            keys.add((blocks, best))
    return len(keys)


def deduplicated_classes(parent):
    """Reference: every unital embedding of every descending structure, deduplicated
    by canonical key, keeping the first member of each class met."""

    def structures(remaining, cap):
        for first in range(min(cap, remaining), 0, -1):
            yield (first,)
            for rest in structures(remaining - first, first):
                yield (first,) + rest

    seen = {}
    for blocks in structures(parent.structure.model_dim(), max(parent.structure.blocks)):
        structure = BlockStructure(blocks)
        for emb in all_unital_embeddings(structure, parent.structure):
            key = canonical_embedding_key(structure, emb.entries)
            if key not in seen:
                canon = MultiplicityMatrix(BlockStructure(key[0]), parent.structure, key[1])
                seen[key] = SubalgebraClass(parent, BlockStructure(key[0]), canon)
    return tuple(seen.values())


class TestSubalgebraClasses:
    def test_m2_mult2_classes(self):
        b1 = EmbeddedAlgebra(4, M2, (2,))
        classes = enumerate_subalgebra_classes(b1)
        got = {c.structure.blocks for c in classes}
        assert got == {(1,), (1, 1), (2,)}
        c2 = next(c for c in classes if c.structure.blocks == (1, 1))
        assert c2.embedding.entries == ((1, 1),)

    def test_trivial_parent(self):
        b1 = EmbeddedAlgebra(3, C1, (3,))
        assert len(enumerate_subalgebra_classes(b1)) == 1

    def test_m2m2_matches_independent_recount(self):
        b1 = EmbeddedAlgebra(4, M2M2, (1, 1))
        classes = enumerate_subalgebra_classes(b1)
        assert len(classes) == independent_class_count(b1)
        got = {c.structure.blocks for c in classes}
        for expected in [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (2,), (2, 1), (2, 1, 1), (2, 2)]:
            assert expected in got

    def test_no_duplicate_canonical_forms(self):
        for n in range(2, 6):
            for b1 in enumerate_embedded_algebras(n):
                keys = [c.key() for c in enumerate_subalgebra_classes(b1)]
                assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_deduplicated_full_enumeration(self, n):
        for b1 in enumerate_embedded_algebras(n):
            assert tuple(enumerate_subalgebra_classes(b1)) == deduplicated_classes(b1), str(b1)

    def test_canonical_key_sorts_columns(self):
        blocks, entries = canonical_embedding_key(
            BlockStructure((1, 1)), ((1, 0), (0, 1))
        )
        assert blocks == (1, 1)
        assert entries == ((0, 1), (1, 0))


class TestClassOrder:
    def test_unit_below_everything(self):
        b1 = EmbeddedAlgebra(4, M2, (2,))
        classes = enumerate_subalgebra_classes(b1)
        bottom = next(c for c in classes if c.is_trivial())
        assert all(class_leq(bottom, c) for c in classes)

    def test_c2_below_m2(self):
        b1 = EmbeddedAlgebra(4, M2, (2,))
        classes = {c.structure.blocks: c for c in enumerate_subalgebra_classes(b1)}
        assert class_leq(classes[(1, 1)], classes[(2,)])
        assert not class_leq(classes[(2,)], classes[(1, 1)])

    def test_different_parents_rejected(self):
        b1 = EmbeddedAlgebra(4, M2, (2,))
        b2 = EmbeddedAlgebra(4, M2M2, (1, 1))
        c1 = enumerate_subalgebra_classes(b1)[0]
        c2 = enumerate_subalgebra_classes(b2)[0]
        with pytest.raises(DomainError):
            class_leq(c1, c2)

    def test_poset_axioms_small_parents(self):
        # class_leq and gcd_embedding_bound enumerate canonical embeddings only;
        # both must agree with the full enumeration, then the poset axioms hold
        for n in range(1, 6):
            for b1 in enumerate_embedded_algebras(n):
                classes = enumerate_subalgebra_classes(b1)
                rel = {
                    (i, j): class_leq(a, b)
                    for i, a in enumerate(classes)
                    for j, b in enumerate(classes)
                }
                for (i, j), le in rel.items():
                    assert le == full_class_leq(classes[i], classes[j])
                for cls, k1, k2 in itertools.product(classes, range(1, n + 1), range(1, n + 1)):
                    g = BlockStructure((math.gcd(k1, k2),))
                    expected = bool(all_unital_embeddings(cls.structure, g))
                    assert gcd_embedding_bound(cls.structure, k1, k2) == expected
                for i in range(len(classes)):
                    assert rel[(i, i)]
                for (i, j), le in rel.items():
                    if le and rel[(j, i)]:
                        assert classes[i].key() == classes[j].key()
                for i, j, k in itertools.product(range(len(classes)), repeat=3):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]


def full_class_leq(a, b):
    """Reference class order over every unital embedding, not just canonical ones."""
    return any(
        canonical_embedding_key(a.structure, compose_multiplicities(b.embedding, e).entries)
        == a.key()
        for e in all_unital_embeddings(a.structure, b.structure)
    )


def clear_subalg_caches():
    """Empty every cache of the subalg modules, as a cold benchmark pass does."""
    for name, module in list(sys.modules.items()):
        if name.startswith("subalg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def compatible(cls, other):
    return compatible_embeddings(cls.structure, cls.ambient_mult(), other)


class TestCompatibleEmbeddings:
    def test_unique_c2(self):
        b1 = EmbeddedAlgebra(4, M2, (2,))
        b2 = EmbeddedAlgebra(4, M2, (2,))
        cls = next(
            c for c in enumerate_subalgebra_classes(b1) if c.structure.blocks == (1, 1)
        )
        assert compatible(cls, b2) == (((1, 1),),)

    def test_incompatible_pair_is_empty(self):
        # 3 [b1, b2] = [2, 4] has no integer solution
        b1 = EmbeddedAlgebra(6, M3, (2,))
        b2 = EmbeddedAlgebra(6, M2, (3,))
        cls = SubalgebraClass(b1, C2, MultiplicityMatrix(C2, M3, ((1, 2),)))
        assert compatible(cls, b2) == ()

    def test_unit_always_unique(self):
        b1 = EmbeddedAlgebra(4, M2, (2,))
        b2 = EmbeddedAlgebra(4, M2M2, (1, 1))
        cls = next(c for c in enumerate_subalgebra_classes(b1) if c.is_trivial())
        assert compatible(cls, b2) == (((2,), (2,)),)

    def test_rejects_bad_multiplicities(self):
        masa = EmbeddedAlgebra(4, BlockStructure((1, 1, 1, 1)), (1, 1, 1, 1))
        with pytest.raises(ShapeMismatchError):
            compatible_embeddings(C2, (2, 2, 0), masa)
        with pytest.raises(ValueError):
            compatible_embeddings(C2, (4, 0), masa)
        with pytest.raises(DomainError):
            compatible_embeddings(C2, (2, 1), masa)


class TestCompatibleEmbeddingCache:
    """The orbit-dimension histograms are tabled on (structure, ambient multiplicities, B2)."""

    masa = EmbeddedAlgebra(4, BlockStructure((1, 1, 1, 1)), (1, 1, 1, 1))

    @staticmethod
    def two_parents():
        # C^2 with ambient multiplicities (2, 2), once inside M2 (x) 1_2, once as its own parent
        in_m2 = SubalgebraClass(
            EmbeddedAlgebra(4, M2, (2,)), C2, MultiplicityMatrix(C2, M2, ((1, 1),))
        )
        own = EmbeddedAlgebra(4, C2, (2, 2))
        whole = SubalgebraClass(own, C2, MultiplicityMatrix.identity(C2))
        assert in_m2.ambient_mult() == whole.ambient_mult() == (2, 2)
        return in_m2, whole

    @staticmethod
    def oracle(cls, other):
        """Filter the full enumeration by the induced ambient multiplicities."""
        return [
            e.entries
            for e in all_unital_embeddings(cls.structure, other.structure)
            if e.apply_to_row(other.mult) == cls.ambient_mult()
        ]

    @staticmethod
    def orbit_formula(cls, other, entries):
        """sum m^2 + dim U(B2) - sum mu^2, one entry per compatible embedding."""
        base = sum(m * m for m in cls.ambient_mult()) + other.structure.algebra_dim()
        return [base - sum(e * e for row in mu for e in row) for mu in entries]

    def test_shared_across_parents(self):
        # the reports read the table; orbit_dims streams the list afresh
        dimensions._orbit_dims.cache_clear()
        in_m2, whole = self.two_parents()
        first = dimensions.dim_report(in_m2.parent, in_m2, self.masa).orbit_dims_histogram
        second = dimensions.dim_report(whole.parent, whole, self.masa).orbit_dims_histogram
        assert first == second
        expected = self.orbit_formula(in_m2, self.masa, self.oracle(in_m2, self.masa))
        assert orbit_dims(in_m2.parent, in_m2, self.masa) == expected
        assert len(expected) == 6
        assert first == tuple(sorted(Counter(expected).items()))
        info = dimensions._orbit_dims.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_returns_a_fresh_list(self):
        in_m2, _ = self.two_parents()
        first = orbit_dims(in_m2.parent, in_m2, self.masa)
        expected = list(first)
        first.clear()
        again = orbit_dims(in_m2.parent, in_m2, self.masa)
        assert again is not first
        assert again == expected

    def test_ambient_mismatch_raises_when_warm(self):
        in_m2, _ = self.two_parents()
        other = EmbeddedAlgebra(6, M2, (3,))
        dimensions._orbit_dims.cache_clear()
        with pytest.raises(DomainError):
            orbit_dims(in_m2.parent, in_m2, other)
        orbit_dims(in_m2.parent, in_m2, self.masa)
        for _ in range(2):
            with pytest.raises(DomainError):
                orbit_dims(in_m2.parent, in_m2, other)
            with pytest.raises(DomainError):
                compatible(in_m2, other)

    def test_module_cache_sweep_empties_it(self):
        # the same sweep that a cold benchmark pass makes over every subalg module
        in_m2, _ = self.two_parents()
        dimensions._orbit_dims.cache_clear()
        dimensions.dim_report(in_m2.parent, in_m2, self.masa)
        memos = (dimensions._orbit_dims, algebra._suffix_table, algebra._bounded_rows)
        assert all(memo.cache_info().currsize > 0 for memo in memos)
        clear_subalg_caches()
        assert all(memo.cache_info().currsize == 0 for memo in memos)

    def test_matches_oracle_small_n(self):
        # every class of every embedded algebra at N <= 5, against every B2:
        # the embeddings in order, and the orbit dimensions entry by entry
        for n in range(1, 6):
            algebras = enumerate_embedded_algebras(n)
            for b1 in algebras:
                for cls in enumerate_subalgebra_classes(b1):
                    for b2 in algebras:
                        expected = self.oracle(cls, b2)
                        assert list(compatible(cls, b2)) == expected
                        assert orbit_dims(b1, cls, b2) == self.orbit_formula(cls, b2, expected)


def audit_sweep_keys(sizes, monkeypatch):
    """Every (structure, ambient multiplicities, B2) that a cold audit sweep asks for, in order."""
    keys = []

    def record(*key):
        keys.append(key)
        return compatible_embeddings(*key)

    clear_subalg_caches()
    with monkeypatch.context() as patch:
        patch.setattr(dimensions, "compatible_embeddings", record)
        for n in sizes:
            algebras = enumerate_embedded_algebras(n)
            for b1 in algebras:
                for b2 in algebras:
                    dimensions.audit_density_hypotheses(b1, b2)
    return keys


class TestSuffixTable:
    """One row-suffix table per (structure, B2) gives what a memo per call gives."""

    @staticmethod
    def assert_matches_reference(keys):
        for structure, ambient_mult, b2 in keys:
            got = compatible_embeddings(structure, ambient_mult, b2)
            expected = oracles.compatible_embeddings(structure, ambient_mult, b2)
            assert list(got) == [e.entries for e in expected], (structure, ambient_mult, str(b2))
            # each embedding is a tuple of row tuples, one per block of b2
            assert type(got) is tuple
            for rows in got:
                assert type(rows) is tuple and len(rows) == b2.structure.num_blocks
                assert all(type(row) is tuple and len(row) == structure.num_blocks for row in rows)

    def test_sweep_keys_in_audit_order_and_shuffled(self, monkeypatch):
        # a table keyed too coarsely would leak suffixes between structures,
        # B2s or ambient rows once the keys interleave
        keys = audit_sweep_keys(range(2, 8), monkeypatch)
        assert len(set(keys)) == len(keys) == 377
        clear_subalg_caches()
        self.assert_matches_reference(keys)
        random.Random(20).shuffle(keys)
        clear_subalg_caches()
        self.assert_matches_reference(keys)

    def test_cleared_table_is_freed_without_the_collector(self):
        # C^7 into the masa of M7: the 5,040 permutation matrices.  The table
        # holds no reference back to itself, so clearing the cache frees it
        # at once: with the cyclic collector off, nothing is left for it
        c7 = BlockStructure((1,) * 7)
        masa = EmbeddedAlgebra(7, c7, (1,) * 7)
        algebra._suffix_table.cache_clear()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert len(compatible_embeddings(c7, (1,) * 7, masa)) == 5040
            held = tracemalloc.get_traced_memory()[0]
            algebra._suffix_table.cache_clear()
            left = tracemalloc.get_traced_memory()[0]
            unreachable = gc.collect()
        finally:
            tracemalloc.stop()
            gc.enable()
        # what stays traced is mostly tuples parked on the interpreter's free
        # lists, which only a full collection empties
        assert held - left > 256 << 10, (held, left)
        assert unreachable == 0

    def test_bounded_rows_are_the_rows_within_bounds(self):
        for weights in [(1,), (2, 1), (1, 1, 1), (3, 2, 2, 1)]:
            for total in range(9):
                every = oracles._weighted_rows(weights, total)
                for bounds in itertools.product(range(4), repeat=len(weights)):
                    expected = [r for r in every if all(v <= b for v, b in zip(r, bounds))]
                    assert list(algebra._bounded_rows(weights, total, bounds)) == expected


class TestUnvalidatedClasses:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_pass_validation(self, n):
        # the enumerator skips SubalgebraClass's checks; a validating build of
        # every class must succeed and give an equal class
        for b1 in enumerate_embedded_algebras(n):
            for cls in algebra._cached_classes(b1):
                entries = cls.embedding.entries
                emb = MultiplicityMatrix(cls.structure, b1.structure, entries)
                checked = SubalgebraClass(b1, BlockStructure(cls.structure.blocks), emb)
                assert checked == cls
                assert emb.unital() and emb.injective()
                assert cls.key() == (cls.structure.blocks, entries)


class TestGcdBound:
    def test_examples(self):
        assert not gcd_embedding_bound(C2, 3, 2)
        assert gcd_embedding_bound(C2, 4, 6)
        assert gcd_embedding_bound(M2, 2, 2)

    def test_follows_from_compatibility(self):
        # whenever a class of a simple B1 has a compatible embedding into a
        # simple B2, the class structure must fit inside M_gcd(k1, k2)
        for n in (4, 6):
            for b1 in enumerate_embedded_algebras(n):
                if not b1.structure.is_simple():
                    continue
                for b2 in enumerate_embedded_algebras(n):
                    if not b2.structure.is_simple():
                        continue
                    k1, k2 = b1.structure.blocks[0], b2.structure.blocks[0]
                    for cls in enumerate_subalgebra_classes(b1):
                        if compatible(cls, b2):
                            assert gcd_embedding_bound(cls.structure, k1, k2)


class TestEmbeddedAlgebraValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddedAlgebra(5, M2, (2,))

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            EmbeddedAlgebra(2, C2, (2, 0))

    def test_fractional_multiplicity_rejected(self):
        # int() would truncate 2.9 to 2, which fills M4
        with pytest.raises(ValueError, match="integers"):
            EmbeddedAlgebra(4, M2, (2.9,))

    def test_enumerate_embedded_algebras_n4(self):
        algs = enumerate_embedded_algebras(4)
        as_pairs = {(a.structure.blocks, a.mult) for a in algs}
        assert ((4,), (1,)) in as_pairs
        assert ((2,), (2,)) in as_pairs
        assert ((2, 2), (1, 1)) in as_pairs
        assert ((2, 1, 1), (1, 1, 1)) in as_pairs
        assert ((1, 1, 1, 1), (1, 1, 1, 1)) in as_pairs
        # canonical: no duplicates
        assert len(algs) == len(as_pairs)
