"""ILU(k) factorisation: symbolic fill levels, numeric accuracy."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, ilu_bsr, ilu_csr, ilu_symbolic
from repro.sparse.bsr import BSRMatrix


def diag_dominant(n, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[np.abs(a) < np.quantile(np.abs(a), 1 - density)] = 0.0
    a += np.eye(n) * (np.abs(a).sum(axis=1).max() + 1)
    return a


class TestSymbolic:
    def test_ilu0_pattern_is_input_pattern(self):
        a = diag_dominant(20, 0.2, 0)
        m = CSRMatrix.from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 0)
        assert pat.nnz == m.nnz
        assert np.all(pat.l_levels == 0)
        assert np.all(pat.u_levels == 0)

    def test_fill_monotone_in_level(self):
        a = diag_dominant(25, 0.15, 1)
        m = CSRMatrix.from_dense(a)
        sizes = [ilu_symbolic(m.indptr, m.indices, k).nnz for k in range(4)]
        assert all(s2 >= s1 for s1, s2 in zip(sizes, sizes[1:]))

    def test_full_fill_matches_dense_lu_pattern(self):
        """With level n the pattern must contain the exact LU fill."""
        a = diag_dominant(12, 0.25, 2)
        m = CSRMatrix.from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 12)
        import scipy.linalg as sla
        p, l, u = sla.lu(a)
        assert np.allclose(p, np.eye(12))  # diag dominance: no pivoting
        for i in range(12):
            cols = set(pat.l_indices[pat.l_indptr[i]:pat.l_indptr[i+1]].tolist())
            lu_cols = set(np.nonzero(np.abs(l[i, :i]) > 1e-13)[0].tolist())
            assert lu_cols <= cols

    def test_levels_bounded(self):
        a = diag_dominant(20, 0.2, 3)
        m = CSRMatrix.from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 2)
        assert pat.l_levels.max(initial=0) <= 2
        assert pat.u_levels.max(initial=0) <= 2

    def test_missing_diagonal_inserted(self):
        a = np.array([[0.0, 1.0], [1.0, 3.0]])
        # Structurally missing (0,0); symbolic must insert it.
        rows, cols = np.nonzero(a)
        m = CSRMatrix.from_coo(rows, cols, a[rows, cols], (2, 2))
        pat = ilu_symbolic(m.indptr, m.indices, 0)
        assert pat.nnz == m.nnz + 1


class TestNumericCSR:
    def test_full_fill_equals_direct_solve(self, rng):
        a = diag_dominant(25, 0.2, 4)
        m = CSRMatrix.from_dense(a)
        f = ilu_csr(m, 25)
        b = rng.random(25)
        assert np.allclose(a @ f.solve(b), b, atol=1e-9)

    def test_ilu0_product_matches_a_on_pattern(self):
        """The defining ILU(0) property: (L U)_ij = a_ij on the pattern."""
        a = diag_dominant(15, 0.25, 5)
        m = CSRMatrix.from_dense(a)
        f = ilu_csr(m, 0)
        n = 15
        L = np.eye(n)
        U = np.zeros((n, n))
        p = f.pattern
        for i in range(n):
            L[i, p.l_indices[p.l_indptr[i]:p.l_indptr[i+1]]] = \
                f.l_data[p.l_indptr[i]:p.l_indptr[i+1]]
            U[i, p.u_indices[p.u_indptr[i]:p.u_indptr[i+1]]] = \
                f.u_data[p.u_indptr[i]:p.u_indptr[i+1]]
            U[i, i] = 1.0 / f.inv_diag[i]
        prod = L @ U
        mask = a != 0
        assert np.allclose(prod[mask], a[mask], atol=1e-10)

    def test_preconditioner_quality_improves_with_fill(self, rng):
        a = diag_dominant(40, 0.15, 6)
        m = CSRMatrix.from_dense(a)
        b = rng.random(40)
        errs = []
        for k in range(3):
            f = ilu_csr(m, k)
            errs.append(np.linalg.norm(a @ f.solve(b) - b))
        assert errs[2] <= errs[0] + 1e-12

    def test_zero_pivot_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        rows, cols = np.nonzero(a)
        m = CSRMatrix.from_coo(rows, cols, a[rows, cols], (2, 2))
        with pytest.raises(ZeroDivisionError):
            ilu_csr(m, 0)

    def test_reuse_pattern(self, rng):
        a = diag_dominant(20, 0.2, 7)
        m = CSRMatrix.from_dense(a)
        pat = ilu_symbolic(m.indptr, m.indices, 1)
        f1 = ilu_csr(m, 1)
        f2 = ilu_csr(m, fill_level=99, pattern=pat)  # pattern wins
        b = rng.random(20)
        assert np.allclose(f1.solve(b), f2.solve(b))

    def test_fp32_storage_close_and_smaller(self, rng):
        a = diag_dominant(20, 0.2, 8)
        m = CSRMatrix.from_dense(a)
        f64 = ilu_csr(m, 1)
        f32 = ilu_csr(m, 1, storage_dtype=np.float32)
        b = rng.random(20)
        assert f32.factor_bytes * 2 == f64.factor_bytes
        rel = (np.linalg.norm(f32.solve(b) - f64.solve(b))
               / np.linalg.norm(f64.solve(b)))
        assert rel < 1e-5
        # Arithmetic stays double: the result is float64.
        assert f32.solve(b).dtype == np.float64


class TestNumericBSR:
    def _bsr_from_mesh(self, mesh, bs, seed):
        from repro.sparse import assemble_bsr, block_structure_from_edges
        rng = np.random.default_rng(seed)
        st = block_structure_from_edges(mesh.num_vertices, mesh.edges)
        n, ne = mesh.num_vertices, mesh.num_edges
        diag = rng.standard_normal((n, bs, bs)) + 20 * np.eye(bs)
        return assemble_bsr(st, bs, diag,
                            off_ij=rng.standard_normal((ne, bs, bs)),
                            off_ji=rng.standard_normal((ne, bs, bs)))

    def test_full_fill_equals_direct(self, tiny_mesh, rng):
        a = self._bsr_from_mesh(tiny_mesh, 2, 0)
        f = ilu_bsr(a, tiny_mesh.num_vertices)
        b = rng.random(a.shape[0])
        assert np.allclose(a.to_csr() @ f.solve(b), b, atol=1e-8)

    def test_block_ilu0_good_preconditioner(self, tiny_mesh, rng):
        a = self._bsr_from_mesh(tiny_mesh, 3, 1)
        f = ilu_bsr(a, 0)
        b = rng.random(a.shape[0])
        x = f.solve(b)
        rel = np.linalg.norm(a.to_csr() @ x - b) / np.linalg.norm(b)
        assert rel < 0.5  # strong diagonal: ILU(0) is a decent inverse

    def test_fp32_storage(self, tiny_mesh, rng):
        a = self._bsr_from_mesh(tiny_mesh, 2, 2)
        f64 = ilu_bsr(a, 0)
        f32 = ilu_bsr(a, 0, storage_dtype=np.float32)
        assert f32.factor_bytes * 2 == f64.factor_bytes
        b = rng.random(a.shape[0])
        assert np.allclose(f32.solve(b), f64.solve(b), rtol=1e-4, atol=1e-5)

    def test_matches_scalar_ilu_when_bs1(self, rng):
        a = diag_dominant(18, 0.25, 9)
        m = CSRMatrix.from_dense(a)
        bsr1 = BSRMatrix(indptr=m.indptr, indices=m.indices,
                         data=m.data.reshape(-1, 1, 1), nbcols=18)
        b = rng.random(18)
        assert np.allclose(ilu_bsr(bsr1, 1).solve(b),
                           ilu_csr(m, 1).solve(b), atol=1e-12)


class TestFp32Storage:
    def test_ilu_storage_error_scales_with_eps(self, wing_jacobian):
        """fp32 factor storage (Table 2) perturbs the solve by
        O(eps_fp32) relative to the fp64 factor — not more."""
        jac, _x, b = wing_jacobian
        pat = ilu_symbolic(jac.indptr, jac.indices, 1)
        f64 = ilu_bsr(jac, pattern=pat)
        f32 = ilu_bsr(jac, pattern=pat, storage_dtype=np.float32)
        assert f32.storage_dtype == np.float32
        ref = f64.solve(b)
        err = np.abs(f32.solve(b) - ref)
        scale = float(np.abs(ref).max())
        # Triangular solves amplify storage rounding by a modest
        # condition-dependent factor; 100x eps absorbs it.
        assert float(err.max()) <= 100 * np.finfo(np.float32).eps * scale
