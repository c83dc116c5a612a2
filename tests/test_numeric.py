"""Tests for realizations, Haar sampling, commutants, intersections, and density runs."""

import csv
import dataclasses
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalg.algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    enumerate_embedded_algebras,
    enumerate_subalgebra_classes,
    relative_commutant,
)
import subalg.freeprod
import subalg.numeric
from subalg.errors import NumericalInstabilityError, ShapeMismatchError
from subalg.numeric import (
    EPS,
    ConcreteRealization,
    UnitLayout,
    _commutator_system,
    _copy_indices,
    _null_rows,
    _nullities,
    _triangle,
    amplified_commutant,
    amplify,
    commutant_basis,
    conjugate,
    density_bytes,
    density_experiment,
    haar_unitaries,
    haar_unitary,
    intersect,
    local_unitaries,
    local_unitary,
    realize,
    realize_class,
    sample_dims,
    sample_stream,
)
from subalg.serialize import stats_csv
from oracles import (
    ambient_embedding,
    ambient_row,
    amplified_units,
    cayley_draw,
    commutant_entries,
    contains_identity,
    dense_commutant_basis,
    dense_commutator_system,
    dense_intersect,
    dense_realize,
    dense_realize_class,
    dense_residual,
    dense_within,
    embed_model,
    exact_meet_dim,
    fixed_cutoff,
    halmos_dim,
    kronecker_commutant,
    model_matrix_units,
    random_skew_direction,
    scanned_layout,
    vectors,
)

M2_MULT2 = EmbeddedAlgebra(4, BlockStructure((2,)), (2,))
M2M2 = EmbeddedAlgebra(4, BlockStructure((2, 2)), (1, 1))
M4 = EmbeddedAlgebra(4, BlockStructure((4,)), (1,))
C4 = EmbeddedAlgebra(4, BlockStructure((1,) * 4), (1,) * 4)
SCALAR4 = EmbeddedAlgebra(4, BlockStructure((1,)), (4,))
C8 = EmbeddedAlgebra(8, BlockStructure((1,) * 8), (1,) * 8)
M4_MULT2 = EmbeddedAlgebra(8, BlockStructure((4,)), (2,))
M4M4 = EmbeddedAlgebra(8, BlockStructure((4, 4)), (1, 1))
M6M2 = EmbeddedAlgebra(8, BlockStructure((6, 2)), (1, 1))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def whole(n):
    """All of M_n, the known commutant of the scalars: a ``within`` holding every commutant."""
    return amplified_commutant((1,), [(n,)])


class TestRealize:
    def test_diagonal_projections(self):
        r = realize(EmbeddedAlgebra(2, BlockStructure((1, 1)), (1, 1)))
        assert np.allclose(r.basis[0], np.diag([1.0, 0.0]))
        assert np.allclose(r.basis[1], np.diag([0.0, 1.0]))

    def test_m2_mult2(self):
        r = realize(M2_MULT2)
        assert r.dimension == 4
        assert kronecker_commutant(list(r.basis)).dimension == 4
        assert next(commutant_basis(r.basis[None], within=whole(4))) == 4

    def test_scalars_in_m3(self):
        r = realize(EmbeddedAlgebra(3, BlockStructure((1,)), (3,)))
        assert r.dimension == 1
        assert np.allclose(r.basis[0], np.eye(3) / np.sqrt(3))

    def test_basis_orthonormal_and_closed(self):
        for alg in enumerate_embedded_algebras(4):
            r = realize(alg)
            vecs = vectors(r)
            gram = vecs.conj().T @ vecs
            assert np.allclose(gram, np.eye(r.dimension), atol=1e-12)
            assert r.closure_defect() < 1e-12
            assert contains_identity(r)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_hermitian_basis_spans_the_units(self, n):
        # the basis is built once, Hermitian and orthonormal, and spans the
        # normalized stack of amplified matrix units, rebuilt here
        def check(r, units):
            flat = units.reshape(len(units), n * n)
            flat = flat / np.linalg.norm(flat, axis=1)[:, None]
            vecs = vectors(r)
            assert vecs.shape == flat.T.shape
            assert np.abs(vecs.conj().T @ vecs - np.eye(r.dimension)).max() < 1e-12
            assert np.abs(r.basis - np.swapaxes(r.basis.conj(), 1, 2)).max() < 1e-12
            assert np.abs(flat.T - vecs @ (vecs.conj().T @ flat.T)).max() < 1e-12

        for parent in enumerate_embedded_algebras(n):
            row = ambient_row(parent)
            check(realize(parent), embed_model(row, model_matrix_units(parent.structure)))
            for cls in enumerate_subalgebra_classes(parent):
                units = model_matrix_units(cls.embedding.source)
                units = embed_model(row, embed_model(cls.embedding, units))
                check(realize_class(parent, cls.embedding), units)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bit_identical_to_the_dense_scan(self, n):
        # every realization of an embedded algebra or a class, built from the
        # copy indices, equals the one built from the dense stack of amplified
        # units and its scanned layout: bytes of the basis (signed zeros
        # included), supports, copies and partners
        def check(got, want):
            assert got.basis.tobytes() == want.basis.tobytes()
            for name in ("support", "copies", "partner"):
                assert np.array_equal(getattr(got.layout, name), getattr(want.layout, name))
            assert got.layout.n == want.layout.n == n

        for parent in enumerate_embedded_algebras(n):
            check(realize(parent), dense_realize(parent))
            for cls in enumerate_subalgebra_classes(parent):
                got = realize_class(parent, cls.embedding)
                check(got, dense_realize_class(parent, cls.embedding))

    def test_realize_holds_one_unit_stack(self):
        # M24 + M24 at N = 48: the basis is scattered into one array of zeros
        # from index arrays of the size of the supports; the dense build of
        # the model units, the amplified units and the basis peaks at 3 stacks
        m24m24 = EmbeddedAlgebra(48, BlockStructure((24, 24)), (1, 1))
        stack = m24m24.structure.algebra_dim() * 48**2 * 16
        tracemalloc.start()
        try:
            r = realize(m24m24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.dimension == 1152
        assert peak <= 1.2 * stack, peak / stack

    def test_realize_class_lives_inside_parent(self):
        parent = realize(M2M2)
        for cls in enumerate_subalgebra_classes(M2M2):
            sub = realize_class(M2M2, cls.embedding)
            assert sub.dimension == cls.structure.algebra_dim()
            # every basis element of the subalgebra lies in the parent span
            assert parent.project_residual(sub.basis).max() < 1e-12


def kron_block_diag(a, blocks, rows):
    """Reference amplification of one element: per-block kron, then block-diagonal."""
    offsets = np.concatenate([[0], np.cumsum(blocks)])
    pieces = [
        np.kron(a[offsets[j] : offsets[j + 1], offsets[j] : offsets[j + 1]], np.eye(m))
        for row in rows
        for j, m in enumerate(row)
        if m
    ]
    dim = sum(p.shape[0] for p in pieces)
    out = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for p in pieces:
        out[pos : pos + p.shape[0], pos : pos + p.shape[0]] = p
        pos += p.shape[0]
    return out


class TestAmplify:
    @settings(max_examples=80, deadline=None)
    @given(
        blocks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        data=st.data(),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_kron_block_diag(self, blocks, data, count, seed):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=len(blocks), max_size=len(blocks)),
                min_size=1,
                max_size=3,
            )
        )
        s = sum(blocks)
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((count, s, s)) + 1j * rng.standard_normal((count, s, s))
        out = amplify(stack, blocks, rows)
        ref = np.stack([kron_block_diag(a, blocks, rows) for a in stack])
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)
        assert np.array_equal(amplify(stack[0], blocks, rows), ref[0])

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            amplify(np.eye(3), (1, 1), [(1, 1)])


def random_layouts(seed, count, max_dim=10):
    """Seeded multi-segment layouts (blocks, rows), zero multiplicities included."""
    rng = np.random.default_rng(seed)
    layouts = []
    while len(layouts) < count:
        blocks = tuple(int(b) for b in rng.integers(1, 4, size=rng.integers(1, 4)))
        rows = [
            tuple(int(m) for m in rng.integers(0, 3, size=len(blocks)))
            for _ in range(rng.integers(1, 4))
        ]
        dim = sum(m * b for row in rows for m, b in zip(row, blocks))
        if 1 <= dim <= max_dim:
            layouts.append((blocks, rows))
    return layouts


class TestAmplifiedCommutant:
    def test_spans_the_commutant_of_the_amplified_units(self):
        layouts = random_layouts(41, 80)
        assert any(0 in row for _, rows in layouts for row in rows)
        for blocks, rows in layouts:
            units = amplify(model_matrix_units(BlockStructure(blocks)), blocks, rows)
            known = amplified_commutant(blocks, rows)
            vecs = vectors(dense_within(known))
            # orthonormal, with dimension sum_j (sum_r m_rj)^2
            assert np.abs(vecs.conj().T @ vecs - np.eye(known.dimension)).max() < 1e-15
            totals = [sum(row[j] for row in rows) for j in range(len(blocks))]
            assert known.dimension == sum(m * m for m in totals)
            # same span as the Kronecker commutant of the amplified matrix units
            ref = vectors(kronecker_commutant(list(units)))
            assert ref.shape == vecs.shape, (blocks, rows)
            assert np.linalg.norm(ref - vecs @ (vecs.conj().T @ ref)) < 1e-12, (blocks, rows)

    def test_units_scattered_from_the_layout_are_the_amplified_model_units(self):
        # blocks without copies included: their units are zero matrices
        layouts = random_layouts(47, 120)
        assert any(not any(row[j] for row in rows) for b, rows in layouts for j in range(len(b)))
        for blocks, rows in layouts:
            want = amplify(model_matrix_units(BlockStructure(blocks)), blocks, rows)
            assert amplified_units(blocks, rows).tobytes() == want.tobytes(), (blocks, rows)

    def test_kernel_units_are_the_amplified_block_units(self, monkeypatch):
        # the free-product kernel scatters A2's units from its layout, all but
        # the last: at u = I its generators are bit for bit the amplified
        # units of the block model, zero-copy blocks included.  Against M_N
        # with one copy the sides are never swapped
        gens = []
        monkeypatch.setattr(
            subalg.freeprod, "commutant_basis", lambda g, within: gens.append(g) or iter([0])
        )
        layouts = random_layouts(53, 300)
        assert any(not any(row[j] for row in rows) for b, rows in layouts for j in range(len(b)))
        for blocks, rows in layouts:
            n = sum(m * b for row in rows for m, b in zip(row, blocks))
            decide, _ = subalg.freeprod._joint_dim_kernel(
                BlockStructure((n,)), [[1]], BlockStructure(blocks), rows
            )
            next(decide(np.eye(n, dtype=complex)[None]))
            want = amplify(model_matrix_units(BlockStructure(blocks)), blocks, rows)[:-1]
            assert gens.pop()[0].tobytes() == want.tobytes(), (blocks, rows)

    def test_layouts_of_unsorted_blocks_match_the_dense_scan(self):
        # blocks in any order, so runs of one shape may be adjacent or split
        # by another shape: the layouts of the copy indices and of their
        # transposes equal the scans of the amplified model units and of the
        # commutant's units in supports, copies and partners
        adjacent = split = 0
        for blocks, rows in random_layouts(47, 120):
            idx = _copy_indices(blocks, rows)
            known = amplified_commutant(blocks, rows)
            element, row, col, _ = commutant_entries(blocks, rows)
            commutant_units = np.zeros((known.dimension, known.n, known.n))
            commutant_units[element, row, col] = 1.0
            cases = (
                (UnitLayout.of_copies(idx), amplify(model_matrix_units(BlockStructure(blocks)), blocks, rows)),
                (known, commutant_units),
            )
            for got, units in cases:
                copies = np.count_nonzero(units.reshape(len(units), -1), axis=1)
                assert np.array_equal(got.copies, copies), (blocks, rows)
                # the units of a block without copies are zero: no scan pairs them
                paired = np.flatnonzero(copies)
                want = scanned_layout(units[paired])
                assert got.n == want.n
                assert np.array_equal(got.support, want.support), (blocks, rows)
                assert np.array_equal(got.partner[paired], paired[want.partner]), (blocks, rows)
            for shapes in ([i.shape for i in idx], [i.T.shape for i in idx]):
                runs = [shape for shape, _ in itertools.groupby(shapes)]
                adjacent += len(runs) < len(shapes)
                split += len(set(runs)) < len(runs)
        assert (adjacent, split) == (12, 4)

    def test_is_the_layout_of_the_transposed_copy_indices(self):
        # unit k of the layout, scaled by 1/sqrt(copies), has exactly the
        # basis entries of element k written from per-copy index lists
        for blocks, rows in random_layouts(43, 300, 14):
            known = amplified_commutant(blocks, rows)
            element, row, col, scale = commutant_entries(blocks, rows)
            want = np.zeros((known.dimension, known.n, known.n), dtype=complex)
            want[element, row, col] = scale
            assert dense_within(known).basis.tobytes() == want.tobytes(), (blocks, rows)
            # the layout's partners are the transposed units
            assert np.array_equal(dense_within(known).basis[known.partner], want.transpose(0, 2, 1))


class TestConjugate:
    def test_matches_einsum_reference_and_stays_orthonormal(self):
        r = realize(EmbeddedAlgebra(12, BlockStructure((2, 1)), (4, 4)))
        u = haar_unitary(12, 17)
        c = conjugate(r, u)
        ref = np.einsum("ij,ajk,kl->ail", u, r.basis, u.conj().T)
        assert np.abs(c.basis - ref).max() < 1e-13
        vecs = vectors(c)
        assert np.abs(vecs.conj().T @ vecs - np.eye(c.dimension)).max() < 1e-13

    def test_closure_defect_matches_einsum_form(self):
        c24 = EmbeddedAlgebra(24, BlockStructure((1,) * 24), (1,) * 24)
        r = conjugate(realize(c24), haar_unitary(24, 5))
        adj = np.transpose(r.basis.conj(), (0, 2, 1))
        prods = np.einsum("aij,bjk->abik", r.basis, r.basis).reshape(-1, 24, 24)
        ref = float(r.project_residual(np.concatenate([adj, prods])).max())
        assert abs(r.closure_defect() - ref) < 1e-13
        assert ref < 1e-12

    @pytest.mark.parametrize("chunk", [1, 5, 7, 18, 36, 512])
    def test_chunked_closure_defect_finds_the_worst_product(self, monkeypatch, chunk):
        # an orthonormal span that is not an algebra: its worst residual sits
        # in one chunk or another, and the running max must find it.  A
        # chunk holds at most ``chunk`` 6 x 6 products' bytes
        rng = np.random.default_rng(3)
        z = rng.standard_normal((36, 9)) + 1j * rng.standard_normal((36, 9))
        q, _ = np.linalg.qr(z)
        r = ConcreteRealization(6, q.T.reshape(9, 6, 6))
        adj = np.transpose(r.basis.conj(), (0, 2, 1))
        prods = np.einsum("aij,bjk->abik", r.basis, r.basis).reshape(-1, 6, 6)
        ref = float(r.project_residual(np.concatenate([adj, prods])).max())
        monkeypatch.setattr(subalg.numeric, "CHUNK_BYTES", chunk * 16 * 6 * 6)
        rows = []
        residual = ConcreteRealization.project_residual
        monkeypatch.setattr(
            ConcreteRealization, "project_residual", lambda r, m: rows.append(len(m)) or residual(r, m)
        )
        assert abs(r.closure_defect() - ref) < 1e-13
        # the 9 adjoints, then the products of 1, 2, 4 or all 9 left factors per chunk
        step = {1: 1, 5: 1, 7: 1, 18: 2, 36: 4, 512: 9}[chunk]
        assert rows == [9] + [9 * step] * (9 // step) + [9 * (9 % step)] * (9 % step > 0)
        assert ref > 0.1

    def test_closure_defect_memory_is_bounded(self):
        # M12 against a local conjugate of itself meets in all of M12 (d = 144):
        # the d^2 products at once peaked near 276 MiB, chunks stay under 32 MiB
        m12 = realize(EmbeddedAlgebra(12, BlockStructure((12,)), (1,)))
        u = local_unitary(np.eye(12, dtype=complex), 1e-3, sample_stream(3, 0))
        r = intersect(m12, m12, u)
        assert r.dimension == 144
        tracemalloc.start()
        try:
            defect = r.closure_defect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect < 1e-9
        assert peak < 32 * 2**20, peak / 2**20


class TestExpSkew:
    """Local steps exp(r K / ||K||_2) from one eigendecomposition (``local_unitaries``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 32),
        radius=st.floats(1e-6, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_expm_and_is_unitary(self, n, radius, seed):
        from scipy.linalg import expm

        e = local_unitaries(n, radius, [np.random.default_rng(seed)])[0]
        k = radius * random_skew_direction(n, np.random.default_rng(seed))
        assert np.linalg.norm(e - expm(k), 2) <= 1e-13
        assert np.linalg.norm(e.conj().T @ e - np.eye(n)) <= 1e-13

    @pytest.mark.parametrize("radius", [1e-12, 1e-6, 1e-3, 0.5, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 48])
    def test_step_contract(self, n, radius):
        # ||w - I||_2 = 2 sin(r / 2) for r <= pi, w is unitary, and a stack
        # of draws is the draws made one at a time, bit for bit
        streams = [sample_stream(29, n, i) for i in range(5)]
        stack = local_unitaries(n, radius, streams)
        for i, w in enumerate(stack):
            dist = np.linalg.norm(w - np.eye(n), 2)
            assert abs(dist - 2.0 * np.sin(radius / 2.0)) <= 1e-13
            assert np.linalg.norm(w.conj().T @ w - np.eye(n)) <= 1e-13
            assert np.array_equal(w, local_unitaries(n, radius, [sample_stream(29, n, i)])[0])


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(5, 123), haar_unitary(5, 123))

    def test_unitarity(self):
        for seed in range(5):
            u = haar_unitary(6, seed)
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-12

    def test_first_moment_vanishes(self):
        # Haar mean is zero; the empirical mean of U[0,0] over 10^4 draws is tiny
        total = 0.0
        for i in range(10_000):
            total += haar_unitary(3, sample_stream(2024, i))[0, 0]
        assert abs(total / 10_000) < 0.05


class TestCommutant:
    def test_full_matrix_units_give_scalars(self):
        gens = realize(EmbeddedAlgebra(3, BlockStructure((3,)), (1,))).basis
        assert kronecker_commutant(list(gens)).dimension == 1
        assert next(commutant_basis(gens[None], within=whole(3))) == 1

    def test_identity_gives_everything(self):
        eye = np.eye(3, dtype=complex)
        assert kronecker_commutant([eye]).dimension == 9
        assert next(commutant_basis(eye[None, None], within=whole(3))) == 9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rounded_identity_gives_everything(self, n):
        # u I u* is the identity up to rounding, so the commutator system is pure
        # noise (s_max near eps); the rank floor keeps the scale of unit inputs
        rng = sample_stream(3, n)
        for u in (haar_unitary(n, rng), local_unitary(np.eye(n), 1e-3, rng)):
            gens = np.stack([np.eye(n, dtype=complex), u @ np.eye(n) @ u.conj().T])
            assert kronecker_commutant(list(gens)).dimension == n * n
            assert next(commutant_basis(gens[None], within=whole(n))) == n * n

    def test_matches_multiplicity_formula(self):
        # numeric commutant dimension == sum of squared entries, for every
        # enumerated subalgebra class at N <= 4 (N <= 6 runs in acceptance)
        for n in range(2, 5):
            for parent in enumerate_embedded_algebras(n):
                for cls in enumerate_subalgebra_classes(parent):
                    sub = realize_class(parent, cls.embedding)
                    expected = relative_commutant(ambient_embedding(cls)).algebra_dim()
                    assert kronecker_commutant(list(sub.basis)).dimension == expected
                    assert next(commutant_basis(sub.basis[None], within=whole(n))) == expected

    def test_within_without_generators_is_within(self):
        known = amplified_commutant((1, 1), [(2, 1)])
        # a scalar factor leaves an empty generator set on every item of a stack
        assert list(commutant_basis(np.empty((3, 0, 4, 4)), within=known)) == [5] * 3
        for got in dense_commutant_basis(np.empty((3, 0, 4, 4)), known):
            assert np.array_equal(got.basis, dense_within(known).basis)

    @pytest.mark.parametrize("seed", range(6))
    def test_within_matches_the_kronecker_system(self, seed):
        # joint commutant of C^2 (2, 2) and u (M2 (2)) u*, solved inside C^2's commutant
        rng = sample_stream(seed)
        u = haar_unitary(4, rng) if seed % 2 else local_unitary(np.eye(4), 1e-2, rng)
        gens1 = amplify(model_matrix_units(BlockStructure((1, 1))), (1, 1), [(2, 2)])
        gens2 = u @ amplify(model_matrix_units(BlockStructure((2,))), (2,), [(2,)]) @ u.conj().T
        ref = vectors(kronecker_commutant([*gens1, *gens2]))
        known = amplified_commutant((1, 1), [(2, 2)])
        assert next(commutant_basis(gens2[None], within=known)) == ref.shape[1]
        got = next(dense_commutant_basis(gens2[None], known))
        assert got.dimension == ref.shape[1]
        vecs = vectors(got)
        assert np.abs(vecs.conj().T @ vecs - np.eye(got.dimension)).max() < 1e-12
        assert np.linalg.norm(ref - vecs @ (vecs.conj().T @ ref)) < 1e-10

    def test_commutant_is_an_algebra(self):
        r = realize(M2_MULT2)
        assert next(commutant_basis(r.basis[None], whole(4))) == 4
        solved = next(dense_commutant_basis(r.basis[None], whole(4)))
        for comm in (kronecker_commutant(list(r.basis)), solved):
            assert comm.dimension == 4
            assert comm.closure_defect() < 1e-10
            assert contains_identity(comm)


class TestSvdRight:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 14),
        cols=st.integers(1, 14),
        rank_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_svd_and_spans_nullspace(self, rows, cols, rank_frac, seed):
        # m = U diag(s) V* with a known rank and singular values in [0.1, 10]
        rng = np.random.default_rng(seed)
        rank = round(rank_frac * min(rows, cols))
        svals = np.sort(rng.uniform(0.1, 10.0, rank))[::-1]
        u = haar_unitary(rows, rng)[:, :rank]
        v = haar_unitary(cols, rng)[:, :rank]
        m = (u * svals) @ v.conj().T

        s = np.linalg.svd(_triangle(m), compute_uv=False)
        ref = np.linalg.svd(m, compute_uv=False)
        scale = max(float(ref[0]), 1.0)
        assert np.max(np.abs(s - ref)) <= 1e-12 * scale

        null = _null_rows(m, max(rows, cols), "test matrix").conj()
        assert null.shape == (cols - rank, cols)
        assert np.allclose(null @ null.conj().T, np.eye(cols - rank), atol=1e-12)
        # backward error of the SVD: a small multiple of max(rows, cols) * eps * s_max
        bound = 32 * max(rows, cols) * EPS * float(ref[0]) if rank else 0.0
        assert np.linalg.norm(m @ null.T, 2) <= bound


class TestStacks:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stacked_draws_equal_single_draws(self, n):
        # each item depends on its own stream alone, bit for bit
        keys = range(5)
        haar = haar_unitaries(n, [sample_stream(4, i) for i in keys])
        center = haar_unitary(n, 9)
        local = local_unitaries(n, 1e-3, [sample_stream(5, i) for i in keys])
        for i in keys:
            assert np.array_equal(haar[i], haar_unitary(n, sample_stream(4, i)))
            single = local_unitary(center, 1e-3, sample_stream(5, i))
            assert np.array_equal(center @ local[i], single)

    def test_commutant_stack_matches_single_solves(self):
        # C^2 (2, 2) inside M_4 against a stack of conjugated M2 (2) units
        within = amplified_commutant((1, 1), [(2, 2)])
        units = amplify(model_matrix_units(BlockStructure((2,))), (2,), [(2,)])
        local = local_unitary(np.eye(4), 1e-2, sample_stream(2))
        us = np.stack([np.eye(4), haar_unitary(4, 1), local])
        gens = us[:, None] @ units @ np.swapaxes(us.conj(), -1, -2)[:, None]
        gens1 = amplify(model_matrix_units(BlockStructure((1, 1))), (1, 1), [(2, 2)])
        kronecker = [kronecker_commutant([*gens1, *g]).dimension for g in gens]
        assert list(commutant_basis(gens, within=within)) == kronecker == [4, 1, 1]
        assert [next(commutant_basis(g[None], within=within)) for g in gens] == kronecker
        # the null rows of a stack are those of its items alone, bit for bit
        for g, c in zip(gens, dense_commutant_basis(gens, within)):
            assert np.array_equal(c.basis, next(dense_commutant_basis(g[None], within)).basis)


def known_rank_stack(rng, rows, cols, svals):
    """A stack of rows x cols matrices U diag(s) V*, item i with the singular values svals[i]."""
    items = []
    for s in svals:
        u = haar_unitary(rows, rng)[:, : len(s)]
        v = haar_unitary(cols, rng)[:, : len(s)]
        items.append((u * np.asarray(s)) @ v.conj().T)
    return np.stack(items)


class TestGatheredSystem:
    @settings(max_examples=80, deadline=None)
    @given(
        layout=st.integers(0, 2**32 - 1).map(lambda seed: random_layouts(seed, 1, 12)[0]),
        k=st.integers(1, 3),
        g=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_dense_system_bitwise(self, layout, k, g, seed):
        # E_j A - A E_j by gathers, against the dense products over the basis;
        # half the generators have structural zeros, as conjugated units can.
        # Equal as values: where neither product has a term the gather leaves
        # +0, and the dense sum of zero terms may be -0.
        known = amplified_commutant(*layout)
        n = known.n
        rng = np.random.default_rng(seed)
        gens = rng.standard_normal((k, g, n, n)) + 1j * rng.standard_normal((k, g, n, n))
        gens[:, ::2] *= rng.integers(0, 2, size=(k, len(range(0, g, 2)), n, n))
        got = _commutator_system(gens, known)
        want = dense_commutator_system(gens, known)
        assert got.shape == want.shape == (k, g * n * n, known.dimension)
        assert np.array_equal(got, want)


class TestValuesOnly:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        rows=st.integers(1, 14),
        cols=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nullity_equals_the_null_row_count(self, k, rows, cols, seed):
        # known ranks, singular values in [0.1, 10]: one nullity per item
        rng = np.random.default_rng(seed)
        ranks = rng.integers(0, min(rows, cols) + 1, size=k)
        svals = [np.sort(rng.uniform(0.1, 10.0, r))[::-1] for r in ranks]
        stack = known_rank_stack(rng, rows, cols, svals)
        n = max(rows, cols)
        got = list(_nullities(stack, n, "test stack"))
        assert got == [len(_null_rows(item, n, "test stack")) for item in stack]
        assert got == [cols - r for r in ranks]

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 4),
        unstable=st.integers(0, 3),
        ambiguous=st.floats(0.2, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unstable_items_raise_with_the_same_message(self, k, unstable, ambiguous, seed):
        # at the cutoff 1e-6 a singular value of ambiguous * 1e-6 lies in the band
        # (1e-7, 1e-5]: both routines decide the items before it and raise there
        rng = np.random.default_rng(seed)
        svals = [(3.0, 1.0, 0.0)] * k
        if unstable < k:
            svals[unstable] = (3.0, ambiguous * 1e-6, 0.0)
        stack = known_rank_stack(rng, 7, 4, svals)

        def run(items):
            got = []
            try:
                got.extend(items)
            except NumericalInstabilityError as exc:
                return got, str(exc), exc.defect
            return got, None, None

        with fixed_cutoff(1e-6):
            values = run(_nullities(stack, 7, "test stack"))
            rows = run(_null_rows(item, 7, "test stack") for item in stack)
        assert values[0] == [len(null) for null in rows[0]] == [2] * min(unstable, k)
        assert values[1] == rows[1]
        if unstable < k:
            assert values[1].startswith(
                "rank decision for test stack is unstable at tolerance 1.000e-06 (defect "
            )
            assert values[2] == pytest.approx(rows[2], rel=1e-12)

    def test_commutant_dimensions_form_no_right_factor(self, monkeypatch):
        # the joint-commutant decisions read singular values only: no vh is formed
        def refuse(*args):
            raise AssertionError("commutant_basis formed a right singular factor")

        monkeypatch.setattr(subalg.numeric, "_null_rows", refuse)
        within = amplified_commutant((1, 1), [(2, 2)])
        units = amplify(model_matrix_units(BlockStructure((2,))), (2,), [(2,)])
        us = np.stack([np.eye(4), haar_unitary(4, 1)])
        gens = us[:, None] @ units @ np.swapaxes(us.conj(), -1, -2)[:, None]
        assert list(commutant_basis(gens, within=within)) == [4, 1]


class TestIntersect:
    def test_self_intersection(self):
        r = realize(M2M2)
        out = intersect(r, r)
        assert out.dimension == r.dimension

    def test_rotated_diagonal(self):
        r = realize(EmbeddedAlgebra(2, BlockStructure((1, 1)), (1, 1)))
        out = intersect(r, r, rotation(np.pi / 4))
        assert out.dimension == 1

    def test_two_projections_leave_dim_two(self):
        r = realize(M2M2)
        u = haar_unitary(4, 99)
        out = intersect(r, r, u)
        assert out.dimension >= 2

    def test_symmetric_in_dimension(self):
        # dim(B1 meet u B2 u*) = dim(B2 meet u* B1 u)
        r1, r2, u = realize(M2M2), realize(M2_MULT2), haar_unitary(4, 5)
        assert intersect(r1, r2, u).dimension == intersect(r2, r1, u.conj().T).dimension

    def test_invariant_under_stabilizing_unitaries(self):
        # w ranging over unitaries of B1 leaves dim(B1 meet (wu) B2 (wu)*) unchanged
        r1 = realize(M2M2)
        r2 = realize(M2M2)
        u = haar_unitary(4, 17)
        base = intersect(r1, r2, u).dimension
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = np.block(
                [
                    [haar_unitary(2, rng), np.zeros((2, 2))],
                    [np.zeros((2, 2)), haar_unitary(2, rng)],
                ]
            )
            assert intersect(r1, r2, w @ u).dimension == base

    def test_always_contains_identity(self):
        r1 = realize(M2_MULT2)
        for seed in range(8):
            out = intersect(r1, r1, haar_unitary(4, seed))
            assert out.dimension >= 1
            assert contains_identity(out)

    def test_wide_paired_system(self):
        # the former paired system [M4, M2+M2] was wide (16 rows, 16 + 8
        # columns); the gathered complement of the larger M4 is empty, and the
        # dense oracle's residual of M2+M2 is 16 x 8, QR-reduced to 8 x 8
        m4 = realize(M4)
        for out in (intersect(m4, realize(M2M2)), dense_intersect(m4, realize(M2M2))):
            assert out.dimension == 8
            assert contains_identity(out)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8),
        picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        radius=st.one_of(st.none(), st.floats(1e-4, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dimension_matches_stacked_rank(self, n, picks, radius, seed):
        # dim(V meet W) = dim V + dim W - rank [V, W], with the rank of the
        # stacked span taken from a plain SVD here
        algebras = enumerate_embedded_algebras(n)
        b1, b2 = (algebras[k % len(algebras)] for k in picks)
        rng = np.random.default_rng(seed)
        u = haar_unitary(n, rng) if radius is None else local_unitary(np.eye(n), radius, rng)
        r1, r2 = realize(b1), realize(b2)
        stacked = np.concatenate([vectors(r1), vectors(conjugate(r2, u))], axis=1)
        s = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.count_nonzero(s > n * n * EPS * s[0]))
        assert intersect(r1, r2, u).dimension == r1.dimension + r2.dimension - rank

    def test_second_projection_keeps_local_decisions_stable(self):
        # density gathers against the full unconjugated M4, an empty complement.
        # In the dense oracle one projection leaves rounding noise up to 35 eps
        # in the residual of M4 against a nearby conjugate, above the noise
        # floor of 32 eps and so inside the stability band; the second
        # projection takes it far below
        stats = density_experiment(M4, M4, 8, seed=11, local=(None, 1e-3))
        assert stats.dims == (16,) * 8
        r = realize(M4)
        oracle = sample_dims(
            4, 8, 11, 1e-3, lambda ws: [dense_intersect(r, conjugate(r, w)).dimension for w in ws],
            stack=1,
        )
        assert tuple(d for _, d in oracle) == stats.dims

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("case", ["M3+M1 over M2+M2", "M2+M2 over C4"])
    def test_output_lies_in_both_spans(self, case, swap):
        # the smaller side is conjugated in either argument position: by u as
        # the second, by u* as the first; in the first case the intersection
        # is a proper subspace of both spans
        rng = sample_stream(23)
        if case == "M3+M1 over M2+M2":
            m3m1 = EmbeddedAlgebra(4, BlockStructure((3, 1)), (1, 1))
            u = haar_unitary(4, rng)
            big, small, dim = realize(m3m1), realize(M2M2), 3
        else:
            # a block-diagonal u keeps u C4 u* inside M2+M2
            u = np.zeros((4, 4), dtype=complex)
            u[:2, :2], u[2:, 2:] = haar_unitary(2, rng), haar_unitary(2, rng)
            big, small, dim = realize(M2M2), realize(C4), 4
        if swap:  # small meet u* big u
            a, b, u = small, big, u.conj().T
        else:  # big meet u small u*
            a, b = big, small
        out = intersect(a, b, u)
        b = conjugate(b, u)
        assert out.dimension == dim
        assert a.project_residual(out.basis).max() < 1e-10
        assert b.project_residual(out.basis).max() < 1e-10
        vecs = vectors(out)
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() < 1e-12

    def test_large_nontrivial_intersection(self):
        # M16+M16 against its Haar conjugate at N = 32: the rank and closure
        # contracts hold for a 512-dimensional realization
        m16m16 = realize(EmbeddedAlgebra(32, BlockStructure((16, 16)), (1, 1)))
        out = intersect(m16m16, m16m16, haar_unitary(32, 5))
        assert out.dimension == 16
        assert contains_identity(out)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_paired_system_oracle(self, n):
        # the former primitive: dim(V meet W) is the nullity of [V, -W],
        # decided by the same rank routine
        def paired_nullity(r1, r2):
            system = np.concatenate([vectors(r1), -vectors(r2)], axis=1)
            return len(_null_rows(system, n, "paired system"))

        algebras = enumerate_embedded_algebras(n)
        rng = sample_stream(29, n)
        for _ in range(6):
            b1, b2 = (algebras[k] for k in rng.integers(len(algebras), size=2))
            r1 = realize(b1)
            for u in (np.eye(n), haar_unitary(n, rng), local_unitary(np.eye(n), 1e-3, rng)):
                r2 = realize(b2)
                want = paired_nullity(r1, conjugate(r2, u))
                assert intersect(r1, r2, u).dimension == want, (b1, b2)

    def test_instability_error_on_absurd_tolerance(self):
        r = realize(M2M2)
        with fixed_cutoff(0.5), pytest.raises(NumericalInstabilityError):
            intersect(r, r, haar_unitary(4, 1))

    def test_pairs_without_a_gathered_side_raise(self):
        # intersect gathers one side against the complement of the other's
        # layout; a pair without two layouts is refused, and a conjugated
        # realization has none
        r = realize(M2M2)
        c = conjugate(r, haar_unitary(4, 1))
        comm = next(dense_commutant_basis(r.basis[None], whole(4)))  # no layout
        for a, b in ((c, c), (r, c), (c, r), (r, comm), (comm, r), (comm, comm), (c, comm)):
            with pytest.raises(ValueError, match="layout"):
                intersect(a, b)


def dense(a, b, u):
    """The dense oracle of ``intersect(a, b, u)``: a meet the formed u b u*."""
    return dense_intersect(a, conjugate(b, u))


def attempt(a, b, u, how=intersect):
    """how(a, b, u), or None when it raises NumericalInstabilityError."""
    try:
        return how(a, b, u)
    except NumericalInstabilityError:
        return None


def decide(a, b, u, how=intersect):
    out = attempt(a, b, u, how)
    return "unstable" if out is None else out.dimension


@pytest.fixture
def null_systems(monkeypatch):
    """The systems that intersect hands to the rank routine, in call order."""
    seen = []

    def spy(system, n, what):
        seen.append(system)
        return _null_rows(system, n, what)

    monkeypatch.setattr(subalg.numeric, "_null_rows", spy)
    return seen


class TestGatherPath:
    def test_conjugate_forms_its_basis_and_drops_the_layout(self):
        # a realization is its basis and, when realized, its layout; conjugate
        # forms u B u* at once, and intersect takes u as an argument instead
        assert [f.name for f in dataclasses.fields(ConcreteRealization)] == [
            "ambient_dim", "basis", "layout",
        ]
        r = realize(M2_MULT2)
        u = haar_unitary(4, 1)
        c = conjugate(r, u)
        assert r.layout is not None and c.layout is None
        assert c.basis.tobytes() == (u @ r.basis @ u.conj().T).tobytes()
        assert intersect(r, r, u).dimension == 1
        assert np.array_equal(r.layout.copies, [2] * 4)
        # units (p, q) of M2: e11 and e22 are their own partners, e12 <-> e21
        assert list(r.layout.partner) == [0, 2, 1, 3]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_dense_path_on_every_ordered_pair(self, n):
        # oracle: the projected dense residual over the smaller side, against
        # the formed u B2 u*; intersect conjugates the smaller side and gathers
        # it against the other's layout.  Neither orthonormalizes its output
        # by QR.
        algebras = enumerate_embedded_algebras(n)
        unitaries = [
            haar_unitary(n, 1),
            haar_unitary(n, 2),
            local_unitary(np.eye(n), 1e-3, sample_stream(1, n)),
        ]
        for b1 in algebras:
            r1 = realize(b1)
            for b2 in algebras:
                r2 = realize(b2)
                for u in unitaries:
                    fast = attempt(r1, r2, u)
                    slow = attempt(r1, r2, u, dense)
                    assert (fast is None) == (slow is None), (b1, b2)
                    if fast is None:
                        continue
                    assert fast.dimension == slow.dimension, (b1, b2)
                    for out in (fast, slow):
                        vecs = vectors(out)
                        gram = vecs.conj().T @ vecs
                        assert np.abs(gram - np.eye(out.dimension)).max() < 1e-12, (b1, b2)
                        assert contains_identity(out)
                    basis = fast.basis
                    assert np.abs(basis - np.swapaxes(basis.conj(), 1, 2)).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    def test_realize_class_layouts_match_dense_path(self, n):
        # classes embed twice (into the parent's model, then into M_N): their
        # layouts drive the gathers both as the solved and as the residual side
        u = haar_unitary(n, 3)
        for parent in enumerate_embedded_algebras(n):
            whole = realize(parent)
            for cls in enumerate_subalgebra_classes(parent):
                sub = realize_class(parent, cls.embedding)
                for a, b in ((sub, sub), (whole, sub)):
                    assert decide(a, b, u) == decide(a, b, u, dense)

    @pytest.mark.parametrize("n", [4, 6])
    def test_gathered_system_has_the_sines_of_the_principal_angles(self, n, null_systems):
        # the real gathered system and the complex projected residual have the
        # same singular values, so a tolerance bounds the same sines on both
        # paths; the local conjugate puts some of them near 1e-3
        algebras = enumerate_embedded_algebras(n)
        for u in (haar_unitary(n, 1), local_unitary(np.eye(n), 1e-3, sample_stream(2, n))):
            for b1 in algebras:
                r1 = realize(b1)
                for b2 in algebras:
                    r2 = realize(b2)
                    if r2.dimension > r1.dimension:
                        continue
                    null_systems.clear()
                    if decide(r1, r2, u) == "unstable":
                        continue
                    # a full side (B1 = M_N) leaves an empty complement and no system
                    gathered = [s for s in null_systems if s.dtype == np.float64]
                    assert len(gathered) == len(null_systems) == (r1.dimension < n * n)
                    residual = dense_residual(conjugate(r2, u), r1)
                    want = np.linalg.svd(residual, compute_uv=False)
                    padded = np.zeros_like(want)
                    if gathered:
                        sines = np.linalg.svd(gathered[0], compute_uv=False)
                        padded[: len(sines)] = sines
                    assert np.abs(padded - want).max() < 1e-12, (b1, b2)

    @pytest.mark.parametrize("elements", [1, 3, None])
    def test_conjugated_chunks_gather_the_whole_basis_system(self, elements, monkeypatch, null_systems):
        # chunks of 1 or 3 elements, or all 8 at once, gather bit for bit the
        # coordinates of the whole conjugated basis of the smaller side b
        # (dim 8 against 10), and the intersection's basis is the conjugate
        # of the null combinations of b's elements
        m3m1 = realize(EmbeddedAlgebra(6, BlockStructure((3, 1)), (1, 3)))
        b = realize(EmbeddedAlgebra(6, BlockStructure((2, 2)), (1, 2)))
        u = haar_unitary(6, 19)
        if elements is not None:
            monkeypatch.setattr(subalg.numeric, "CHUNK_BYTES", elements * 16 * 6 * 6)
        out = intersect(m3m1, b, u)
        c = conjugate(b, u)
        want = m3m1.layout.complement_coordinates(c.basis.reshape(c.dimension, 36))
        assert [s.tobytes() for s in null_systems] == [want.T.tobytes()]
        null = _null_rows(want.T, 6, "projected system")
        span = null @ b.basis.reshape(-1, 36)
        assert out.basis.tobytes() == (u @ span.reshape(-1, 6, 6) @ u.conj().T).tobytes()

    @pytest.mark.parametrize("radius", [None, 1e-3], ids=["haar", "local"])
    @pytest.mark.parametrize(
        "a, b",
        [
            (M4_MULT2, C8),
            (M4M4, M4M4),
            (C8, M4_MULT2),
            (M6M2, M4M4),
            (M4M4, M6M2),
        ],
        ids=["a>b", "tie", "a<b", "a>b meet 10", "a<b meet 10"],
    )
    def test_either_side_conjugated_gives_a_meet_u_b_u_star(self, a, b, radius):
        # d_a > d_b and the tie conjugate b by u, d_a < d_b conjugates a by
        # u*: each returns a basis of a meet u b u* itself, as the dense
        # oracle on the formed u b u* decides it.  Against C8 the meet is the
        # scalars, which lie in any span; M6 + M2 (40) and M4 + M4 (32) meet
        # in 10 dimensions, so a basis of the wrong intersection shows
        rng = sample_stream(37)
        u = haar_unitary(8, rng) if radius is None else local_unitary(np.eye(8), radius, rng)
        ra, rb = realize(a), realize(b)
        out = intersect(ra, rb, u)
        cb = conjugate(rb, u)
        assert out.dimension == dense_intersect(ra, cb).dimension
        assert ra.project_residual(out.basis).max() <= 1e-10
        assert cb.project_residual(out.basis).max() <= 1e-10

    def test_full_side_has_an_empty_complement(self, null_systems):
        # M4 is all of M_4: every sample keeps all of u (M2 x 1_2) u*, with no SVD
        stats = density_experiment(M4, M2_MULT2, 5, seed=3)
        assert stats.dims == (4,) * 5
        assert null_systems == []

    @pytest.mark.parametrize("b1", [SCALAR4, M2M2, C4])
    def test_scalar_side_decides_one(self, b1, null_systems):
        assert density_experiment(b1, SCALAR4, 4, seed=2).dims == (1,) * 4
        # the scalar side is the smaller (or tied) conjugated side: real systems
        # of N^2 - dim B1 rows, plus one mean-free row for each unit of B1 with
        # several copies (the 4 copies of the scalar unit: 16 rows), one column
        layout = realize(b1).layout
        rows = 16 - layout.dimension + int(np.count_nonzero(layout.copies > 1))
        assert rows == {SCALAR4: 16, M2M2: 8, C4: 12}[b1]
        assert [s.shape for s in null_systems] == [(rows, 1)] * 4
        assert all(s.dtype == np.float64 for s in null_systems)

    @pytest.mark.parametrize("swap", [False, True])
    def test_tie_solves_over_the_conjugated_side(self, swap, null_systems):
        # C4 and M2 x 1_2 both have dimension 4: the second argument is
        # conjugated and the solve runs over it, against the gathered
        # complement of the first: 16 - 4 rows for C4, and 16 - 4 plus one
        # mean-free row per unit of M2 x 1_2 (two copies each) for M2 x 1_2
        u = haar_unitary(4, 7)
        pair = (realize(C4), realize(M2_MULT2))
        out = intersect(*(pair[::-1] if swap else pair), u)
        assert out.dimension == 1
        rows = 16 if swap else 12
        assert [(s.shape, s.dtype) for s in null_systems] == [((rows, 4), np.float64)]

    def test_smaller_side_is_conjugated_and_gathered(self, null_systems):
        # dim B1 = 4 < dim B2 = 8: density conjugates B1 by u* and gathers its
        # residual against the unconjugated B2, real systems of 16 - 8 rows
        stats = density_experiment(M2_MULT2, M2M2, 6, seed=5)
        assert [(s.shape, s.dtype) for s in null_systems] == [((8, 4), np.float64)] * 6
        r1, r2 = realize(M2_MULT2), realize(M2M2)
        oracle = sample_dims(
            4, 6, 5, None, lambda ws: [dense_intersect(r1, conjugate(r2, w)).dimension for w in ws],
            stack=1,
        )
        assert stats.dims == tuple(d for _, d in oracle) == (1,) * 6

    def test_density_with_a_center(self):
        # a non-identity center, parsed and checked for unitarity as a config
        # value is, conjugates the second side by center @ w
        from subalg.cli import _parse_unitary
        from subalg.serialize import matrix_to_json

        center, diagnostics = _parse_unitary(matrix_to_json(haar_unitary(4, 3)), "/center", 4)
        assert diagnostics == []
        stats = density_experiment(M2M2, M2M2, 6, seed=5, local=(center, 1e-3))
        r = realize(M2M2)
        oracle = sample_dims(
            4, 6, 5, 1e-3,
            lambda ws: [dense_intersect(r, conjugate(r, center @ w)).dimension for w in ws],
            stack=1,
        )
        assert stats.dims == tuple(d for _, d in oracle)
        assert min(stats.dims) >= 2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_ill_conditioned_local_control(self, seed):
        # M8 + M8 against a local conjugate at N = 16: at radius 1e-4 the
        # intersection is 8; at 1e-6 the closure check measures a defect of a
        # few 1e-9 (6.7e-9 and 4.1e-9 for seeds 1 and 2, on either path) and
        # raises instead of returning the basis; the 1e-9 bound is unchanged
        m8m8 = EmbeddedAlgebra(16, BlockStructure((8, 8)), (1, 1))
        assert density_experiment(m8m8, m8m8, 2, seed, local=(None, 1e-4)).dims == (8, 8)
        with pytest.raises(NumericalInstabilityError, match="not closed") as info:
            density_experiment(m8m8, m8m8, 2, seed, local=(None, 1e-6))
        assert 1e-9 < info.value.defect < 1e-7


def _embedded(blocks, mult):
    return EmbeddedAlgebra(sum(b * m for b, m in zip(blocks, mult)), BlockStructure(blocks), mult)


# Pairs at N <= 8 and their exact dim(B1 meet u B2 u^-1) at Cayley unitaries
# near the identity
EXACT_MEETS = [
    (_embedded((2, 2), (1, 1)), _embedded((2, 2), (1, 1)), 2),
    (_embedded((1,) * 4, (1,) * 4), _embedded((2,), (2,)), 1),
    (_embedded((2,), (2,)), _embedded((2,), (2,)), 1),
    (_embedded((3, 1), (1, 1)), _embedded((2, 2), (1, 1)), 3),
    (_embedded((1,) * 8, (1,) * 8), _embedded((4,), (2,)), 1),
    (_embedded((4, 4), (1, 1)), _embedded((4, 4), (1, 1)), 4),
    (_embedded((2,), (3,)), _embedded((1,) * 6, (1,) * 6), 1),
    (_embedded((2, 1), (2, 2)), _embedded((3,), (2,)), 1),
]


class TestExactMeetNearIdentity:
    @pytest.mark.parametrize(
        "b1, b2, expected", EXACT_MEETS,
        ids=["M2+M2", "C4-M2x1_2", "M2x1_2", "M3+M1-M2+M2", "C8-M4x1_2", "M4+M4", "M2x1_3-C6",
             "M2+M1x1_2-M3x1_2"],
    )
    def test_intersect_is_exact_or_raises(self, b1, b2, expected):
        # two Cayley draws with ||u - I||_2 about 10^-e for e = 1..13, checked
        # against the rank of the stacked units over Q(i) mod two primes:
        # every decision is exact, and every draw with e <= 6 decides.  The
        # first raises come at e = 7 (M3+M1 against M2+M2) and the first wrong
        # answers at e = 14, past the sweep.
        n = b1.ambient_dim
        r1, r2 = realize(b1), realize(b2)
        for e in range(1, 14):
            for draw in range(2):
                g, s, u = cayley_draw(n, 10.0**-e, np.random.default_rng([n, e, draw, 7]))
                assert exact_meet_dim(b1, b2, g, s) == expected
                try:
                    assert intersect(r1, r2, u).dimension == expected
                except NumericalInstabilityError:
                    assert e > 6

    def test_local_control_has_exact_answer_8(self):
        # M8+M8 against itself at N = 16 and ||u - I|| about 1e-6, the local
        # control whose closure check raises on local steps of radius 1e-6
        # (TestGatherPath.test_ill_conditioned_local_control): a closure
        # bound derived from the rank decision must reach this answer there.
        # On these two Cayley draws intersect decides it already.
        m8m8 = _embedded((8, 8), (1, 1))
        r = realize(m8m8)
        for draw in range(2):
            g, s, u = cayley_draw(16, 1e-6, np.random.default_rng([16, 6, draw, 7]))
            assert exact_meet_dim(m8m8, m8m8, g, s) == 8
            assert intersect(r, r, u).dimension == 8


# Haar draws, then local steps of the sweep's radii; the first two decide every run
HALMOS_RADII = [None, 1e-3, 1e-6, 1e-8, 1e-10, 1e-12]


class TestHalmosOracle:
    """density on M_p+M_{n-p} against M_q+M_{n-q} against ``halmos_dim``."""

    @pytest.mark.parametrize("radius", HALMOS_RADII, ids=str)
    def test_density_is_exact_or_raises(self, radius):
        # 2 samples at seed 7 for every 1 <= p, q < n <= 10: each run gives
        # the exact answer on both samples or raises NumericalInstabilityError
        local = None if radius is None else (None, radius)
        wrong, raised = [], []
        for n in range(2, 11):
            for p, q in itertools.product(range(1, n), repeat=2):
                b1, b2 = _embedded((p, n - p), (1, 1)), _embedded((q, n - q), (1, 1))
                try:
                    dims = density_experiment(b1, b2, 2, 7, local).dims
                except NumericalInstabilityError:
                    raised.append((n, p, q))
                    continue
                if dims != (halmos_dim(n, p, q),) * 2:
                    wrong.append((n, p, q, dims))
        assert wrong == []
        if radius in HALMOS_RADII[:2]:
            assert raised == []

    @pytest.mark.parametrize("radius", HALMOS_RADII[:2], ids=str)
    @pytest.mark.parametrize("n, p, q, want", [(16, 8, 8, 8), (32, 10, 20, 114)])
    def test_density_at_large_n(self, n, p, q, want, radius):
        assert halmos_dim(n, p, q) == want
        b1, b2 = _embedded((p, n - p), (1, 1)), _embedded((q, n - q), (1, 1))
        local = None if radius is None else (None, radius)
        assert density_experiment(b1, b2, 1, 7, local).dims == (want,)


class TestDensityExperiment:
    def test_equal_sides_are_realized_once(self, monkeypatch):
        calls = []
        real = subalg.numeric.realize
        monkeypatch.setattr(subalg.numeric, "realize", lambda b: calls.append(b) or real(b))
        assert density_experiment(M2M2, M2M2, 3, seed=7).dims == (2,) * 3
        assert calls == [M2M2]
        calls.clear()
        density_experiment(M2M2, M2_MULT2, 3, seed=7)
        assert calls == [M2M2, M2_MULT2]

    def test_one_large_sample_holds_one_realization(self):
        # M16 + M16 against itself at N = 32: one realized basis (8 MiB), the
        # 512 x 512 real system and chunks of conjugated elements.  Holding
        # the basis twice and the whole conjugated basis with its product
        # temporary peaked at 49.6 MiB
        m16m16 = EmbeddedAlgebra(32, BlockStructure((16, 16)), (1, 1))
        density_experiment(m16m16, m16m16, 1, seed=3)  # caches and imports
        tracemalloc.start()
        try:
            stats = density_experiment(m16m16, m16m16, 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.dims == (16,)
        assert peak < 24 * 2**20, peak / 2**20

    @pytest.mark.parametrize(
        "b1, b2",
        [
            (EmbeddedAlgebra(16, BlockStructure((8, 8)), (1, 1)),) * 2,
            (
                EmbeddedAlgebra(24, BlockStructure((1,) * 24), (1,) * 24),
                EmbeddedAlgebra(24, BlockStructure((4,)), (6,)),
            ),
        ],
        ids=["M8+M8", "C24-M4x1_6"],
    )
    def test_peak_within_the_density_count(self, b1, b2):
        # the count validate refuses a pair by, with the stack of draws and
        # a chunk of conjugated elements and of closure products on top
        density_experiment(b1, b2, 2, seed=3)  # caches and imports
        tracemalloc.start()
        try:
            density_experiment(b1, b2, 2, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = density_bytes(b1, b2) + 3 * subalg.numeric.CHUNK_BYTES
        assert peak < bound, (peak, bound)

    def test_generic_trivial_for_simple_blocks(self):
        stats = density_experiment(M2_MULT2, M2_MULT2, 25, seed=7)
        assert stats.trivial_count == 25
        assert stats.dims_histogram == {1: 25}

    def test_never_trivial_for_two_projections(self):
        stats = density_experiment(M2M2, M2M2, 25, seed=7)
        assert stats.trivial_count == 0
        assert min(stats.dims) == 2

    def test_local_mode_near_identity(self):
        stats = density_experiment(
            M2_MULT2, M2_MULT2, 25, seed=7, local=(None, 1e-3)
        )
        assert stats.trivial_count == 25
        assert stats.radius == 1e-3

    def test_reproducible_and_order_independent_streams(self):
        a = density_experiment(M2_MULT2, M2_MULT2, 10, seed=42)
        b = density_experiment(M2_MULT2, M2_MULT2, 10, seed=42)
        assert a.dims == b.dims
        # stream for sample i does not depend on the number of samples drawn
        c = density_experiment(M2_MULT2, M2_MULT2, 5, seed=42)
        assert c.dims == a.dims[:5]

    def test_histogram_invariants(self):
        stats = density_experiment(M2M2, M2_MULT2, 12, seed=3)
        assert sum(stats.dims_histogram.values()) == stats.samples
        assert stats.trivial_count == stats.dims_histogram.get(1, 0)

    def test_stats_csv(self):
        # the bytes the csv module writes: the header, then one row per sample
        stats = density_experiment(M2_MULT2, M2_MULT2, 4, seed=0)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("sample", "intersection_dim"), *enumerate(stats.dims)]
        )
        assert stats_csv(stats.dims) == buf.getvalue()
        assert stats_csv((1, 12, 3)) == "sample,intersection_dim\n0,1\n1,12\n2,3\n"


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("radius", [None, 1e-3])
def test_draw_stacks_stay_within_the_byte_budget(n, radius, monkeypatch):
    # three stacks and a bit of draws under a 4 MiB budget peak below the
    # budget; one stack of all of them would peak at about 4 to 5 times it.
    # At N = 2 the RNG streams outweigh the matrices: the allowance counts
    # each one, and a stack's streams are freed before the next stack draws
    monkeypatch.setattr(subalg.numeric, "CHUNK_BYTES", 1 << 22)
    stack = subalg.numeric.stack_size(subalg.numeric.DRAW_MATRICES, n)
    samples = 3 * stack + 5
    tracemalloc.start()
    try:
        draws = sample_dims(n, samples, 1, radius, lambda ws: [1] * len(ws), stack)
        dims = tuple(d for _, d in draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == (1,) * samples
    assert peak < 1 << 22
