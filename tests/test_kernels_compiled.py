"""The compiled kernel tier against its numpy oracles.

Equivalence comes in two strengths, and each test pins the right one:

* **bitwise** — the scatter and scalar-CSR kernels (edge_scatter2,
  spmv_csr, CSR trisolve in both f64 and f32 factor storage, the
  Jacobian assembly scatter) accumulate in exactly the oracle's order
  (``np.bincount`` sums sequentially in occurrence order, and so do
  the compiled loops), so ``np.array_equal`` must hold;
* **normwise** — the block kernels (spmv_bsr, block trisolve, the
  SPMD gather-SpMV) sum block columns sequentially where ``np.einsum``
  uses SIMD pairwise order.  Raw ULP distance inflates on near-zero
  entries through cancellation, so the bound is relative to the result
  norm (machine-epsilon scale), not per-element.

On a machine without cffi+cc the dispatchers return
None/False and every "compiled" path below collapses onto the oracle;
the equivalence assertions then hold trivially and the dedicated
degradation tests pin that behaviour explicitly.
"""

import json
import warnings

import numpy as np
import pytest

from repro import kernels
from repro.core.config import (KrylovConfig, PreconditionerConfig,
                               SolverConfig)
from repro.core.driver import NKSSolver
from repro.euler import wing_problem
from repro.kernels import capability
from repro.parallel import SPMDLayout, distributed_matvec
from repro.partition import kway_partition
from repro.solvers.ptc import PTCConfig
from repro.sparse.ilu import ilu_bsr, ilu_csr
from repro.sparse.trisolve import _row_dot, _row_dot_blocks

HAS_BACKEND = capability.available_backends() != ()

needs_backend = pytest.mark.skipif(
    not HAS_BACKEND, reason="no compiled backend (cffi+cc) available")


def assert_norm_close(got, ref):
    """Normwise machine-epsilon agreement (block-kernel contract)."""
    scale = max(1.0, float(np.abs(ref).max()))
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale)


@pytest.fixture(scope="module")
def wing():
    """A perturbed tiny wing state plus its first-order Jacobian."""
    prob = wing_problem(7, 5, 4)
    rng = np.random.default_rng(7)
    q = prob.initial.flat() + 0.02 * rng.standard_normal(
        prob.disc.num_unknowns)
    jac = prob.disc.assemble_jacobian(q)
    return prob, q, jac


@pytest.fixture
def bare_machine(monkeypatch):
    """Fake a machine with no C toolchain."""
    capability.invalidate()
    monkeypatch.setattr(capability, "probe_c", lambda: False)
    yield
    capability.invalidate()


class TestCapability:
    def test_numpy_resolves_to_itself(self):
        assert capability.resolve_engine("numpy") == "numpy"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            capability.resolve_engine("cuda")

    def test_disable_env_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        assert capability.available_backends() == ()
        assert capability.resolve_engine("compiled") == "numpy"

    def test_bare_machine_degrades_to_numpy(self, bare_machine):
        assert capability.available_backends() == ()
        assert capability.resolve_engine("compiled") == "numpy"

    def test_mark_unavailable_skips_backend(self):
        capability.invalidate()
        try:
            for name in capability.available_backends():
                capability.mark_unavailable(name)
            with warnings.catch_warnings():
                # Marking a working backend broken legitimately warns.
                warnings.simplefilter("ignore", RuntimeWarning)
                assert capability.resolve_engine("compiled") == "numpy"
        finally:
            capability.invalidate()

    def test_solver_config_validates_engine(self):
        with pytest.raises(ValueError, match="engine"):
            SolverConfig(engine="fortran")


@pytest.fixture
def broken_c_build(monkeypatch):
    """C toolchain present but the build fails."""
    from repro.kernels import cbackend
    capability.invalidate()
    monkeypatch.setattr(cbackend, "_SOURCE", "#error deliberately broken\n")
    monkeypatch.setattr(kernels, "_BACKENDS", {})
    yield
    capability.invalidate()


class TestQuarantine:
    """Silent degradation is gone: broken backends carry their reason."""

    def test_broken_c_build_quarantined_and_warns(self, broken_c_build):
        if not capability.probe_c():
            pytest.skip("no C toolchain to break")
        with pytest.warns(RuntimeWarning, match="fell back to the numpy"):
            assert kernels.backend_for("compiled") is None
        rep = capability.capability_report()
        assert rep["resolved"] == "numpy"
        assert "c" in rep["broken"]
        q = rep["quarantine"]["c"]
        assert q["stage"] == "build"
        assert q["exc_type"] not in (None, "ModuleNotFoundError",
                                     "FileNotFoundError")
        assert q["message"]
        assert q["traceback_tail"]

    def test_fallback_warns_only_once(self, broken_c_build):
        if not capability.probe_c():
            pytest.skip("no C toolchain to break")
        with pytest.warns(RuntimeWarning):
            kernels.backend_for("compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert capability.resolve_engine("compiled") == "numpy"

    def test_bare_machine_stays_silent(self, bare_machine):
        # Not-installed is the documented contract, not a failure.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert capability.resolve_engine("compiled") == "numpy"
        assert capability.capability_report()["broken"] == []

    def test_missing_compiler_recorded_as_benign(self, monkeypatch):
        capability.invalidate()
        monkeypatch.setattr(capability.shutil, "which", lambda cc: None)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert capability.resolve_engine("compiled") == "numpy"
            q = capability.capability_report()["quarantine"]["c"]
            assert q["stage"] == "probe"
            assert q["exc_type"] == "FileNotFoundError"
        finally:
            capability.invalidate()

    def test_cli_prints_json_report(self, capsys):
        assert capability.main() == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep) >= {"disabled", "available", "resolved",
                            "broken", "quarantine"}


class TestDispatchGuards:
    """Inputs outside a kernel's contract must fall back, not crash."""

    def test_bare_machine_dispatch_returns_none(self, bare_machine):
        e = np.array([0, 1], dtype=np.int64)
        w = np.ones((2, 3))
        assert kernels.edge_scatter2(e, e, w, w, 2, "compiled") is None

    def test_f32_weights_refused(self):
        e = np.array([0, 1], dtype=np.int64)
        w = np.ones((2, 3), dtype=np.float32)
        assert kernels.edge_scatter2(e, e, w, w, 2, "compiled") is None

    def test_f32_spmv_data_refused(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        data = np.ones(1, dtype=np.float32)
        x = np.ones(1)
        assert kernels.spmv_csr(indptr, indices, data, x, "compiled") is None

    def test_mismatched_factor_dtypes_refused(self):
        indptr = np.array([0, 0], dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float32)
        inv_diag = np.ones(1, dtype=np.float64)
        x = np.ones(1)
        assert kernels.upper_solve_csr(indptr, indices, data, inv_diag, x,
                                       [np.array([0])], "compiled") is False

    def test_oversized_block_refused(self):
        nb, bs = 2, kernels.MAX_BS + 1
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        data = np.ones((2, bs, bs))
        x = np.ones(nb * bs)
        assert kernels.spmv_bsr(indptr, indices, data, x, nb,
                                "compiled") is None


class TestBitwiseKernels:
    """The scatter/scalar-CSR family: compiled == numpy exactly."""

    def test_jacobian_assembly(self, wing):
        prob, q, jac = wing
        disc = prob.disc
        disc.engine = "compiled"
        try:
            got = disc.assemble_jacobian(q)
        finally:
            disc.engine = "numpy"
        assert np.array_equal(got.data, jac.data)
        assert np.array_equal(got.indptr, jac.indptr)

    def test_timestep_shift(self, wing):
        prob, q, jac = wing
        disc = prob.disc
        ref = disc.shifted_jacobian(q, cfl=25.0)
        disc.engine = "compiled"
        try:
            got = disc.shifted_jacobian(q, cfl=25.0)
        finally:
            disc.engine = "numpy"
        assert np.array_equal(got.data, ref.data)

    def test_spmv_csr(self, wing):
        _, q, jac = wing
        a = jac.to_csr()
        ac = a.copy()
        ac.engine = "compiled"
        rng = np.random.default_rng(3)
        x = rng.standard_normal(a.ncols)
        assert np.array_equal(ac.matvec(x), a.matvec(x))

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_ilu_trisolve_csr(self, wing, storage):
        _, q, jac = wing
        a = jac.to_csr()
        ref = ilu_csr(a, fill_level=1, storage_dtype=storage)
        fac = ilu_csr(a, fill_level=1, storage_dtype=storage,
                      engine="compiled")
        rng = np.random.default_rng(5)
        b = rng.standard_normal(a.nrows)
        assert np.array_equal(fac.solve(b), ref.solve(b))


class TestNormwiseKernels:
    """The block family: sequential vs pairwise j-summation."""

    def test_residual_first_and_second_order(self, wing):
        """The fused Rusanov kernel computes the whole face flux —
        wave speed, left/right fluxes, dissipation — per edge in C,
        where the numpy oracle vectorises each sub-expression across
        all edges; the operation *order* inside one flux differs, so
        equivalence is normwise (it was bitwise when only the scatter
        was compiled)."""
        prob, q, _ = wing
        disc = prob.disc
        assert disc.engine == "numpy"
        for second in (False, True):
            ref = disc.residual(q, second_order=second)
            disc.engine = "compiled"
            try:
                got = disc.residual(q, second_order=second)
            finally:
                disc.engine = "numpy"
            assert_norm_close(got, ref)

    def test_spmv_bsr(self, wing):
        _, q, jac = wing
        jc = jac.copy()
        jc.engine = "compiled"
        rng = np.random.default_rng(11)
        x = rng.standard_normal(jac.shape[1])
        assert_norm_close(jc.matvec(x), jac.matvec(x))

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_ilu_trisolve_bsr(self, wing, storage):
        _, q, jac = wing
        ref = ilu_bsr(jac, fill_level=1, storage_dtype=storage)
        fac = ilu_bsr(jac, fill_level=1, storage_dtype=storage,
                      engine="compiled")
        rng = np.random.default_rng(13)
        b = rng.standard_normal(jac.shape[0])
        got, want = fac.solve(b), ref.solve(b)
        if storage is np.float32:
            # f32 factors bound accuracy at f32 epsilon, engine aside.
            np.testing.assert_allclose(
                got, want, rtol=0.0,
                atol=1e-5 * max(1.0, float(np.abs(want).max())))
        else:
            assert_norm_close(got, want)

    def test_distributed_matvec(self, wing):
        prob, q, jac = wing
        labels = kway_partition(prob.mesh.vertex_graph(), 3, seed=0)
        layout = SPMDLayout.build(prob.mesh.edges, labels)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(jac.shape[1])
        ref = distributed_matvec(jac, layout, x, executor="seq")
        jc = jac.copy()
        jc.engine = "compiled"
        got = distributed_matvec(jc, layout, x, executor="seq")
        assert_norm_close(got, ref)


class TestRowDotOracle:
    """_row_dot/_row_dot_blocks against explicit per-row accumulation."""

    @staticmethod
    def _csr(n, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 6, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = rng.integers(0, n, indptr[-1]).astype(np.int64)
        data = rng.standard_normal(indptr[-1]).astype(dtype)
        return indptr, indices, data

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_dot_matches_sequential_loop(self, dtype):
        n = 40
        indptr, indices, data = self._csr(n, 23, dtype)
        rng = np.random.default_rng(29)
        x = rng.standard_normal(n)
        rows = np.arange(0, n, 3, dtype=np.int64)
        ref = np.zeros(rows.size)
        for k, i in enumerate(rows):
            acc = 0.0
            for t in range(indptr[i], indptr[i + 1]):
                acc += float(data[t]) * x[indices[t]]
            ref[k] = acc
        got = _row_dot(indptr, indices, data, x, rows)
        assert np.array_equal(got, ref)
        got_c = _row_dot(indptr, indices, data, x, rows, engine="compiled")
        if dtype is np.float64:
            # f64 subset-SpMV is in the bitwise family.
            assert np.array_equal(got_c, ref)
        else:
            # f32 data is refused by the dispatcher -> numpy path.
            assert np.array_equal(got_c, ref)

    def test_row_dot_blocks_matches_sequential_loop(self):
        n, bs = 20, 3
        rng = np.random.default_rng(31)
        counts = rng.integers(0, 4, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = rng.integers(0, n, indptr[-1]).astype(np.int64)
        data = rng.standard_normal((indptr[-1], bs, bs))
        x = rng.standard_normal((n, bs))
        rows = np.arange(1, n, 2, dtype=np.int64)
        ref = np.zeros((rows.size, bs))
        for k, i in enumerate(rows):
            for t in range(indptr[i], indptr[i + 1]):
                ref[k] += data[t] @ x[indices[t]]
            # matmul accumulation order differs from einsum's: normwise.
        got = _row_dot_blocks(indptr, indices, data, x, rows, bs)
        assert_norm_close(got, ref)

    def test_empty_rows(self):
        indptr = np.zeros(5, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0)
        rows = np.arange(4, dtype=np.int64)
        got = _row_dot(indptr, indices, data, np.ones(4), rows,
                       engine="compiled")
        assert np.array_equal(got, np.zeros(4))


@needs_backend
class TestBackendPresent:
    """On this host a backend exists: the compiled path must actually
    run (returning arrays, not the None/False fallback signal)."""

    def test_backend_resolves(self):
        assert capability.resolve_engine("compiled") == "c"
        assert kernels.backend_for("compiled") is not None

    def test_dispatch_returns_result(self):
        e0 = np.array([0, 1, 1], dtype=np.int64)
        e1 = np.array([1, 2, 0], dtype=np.int64)
        w = np.arange(6, dtype=np.float64).reshape(3, 2)
        out = kernels.edge_scatter2(e0, e1, w, 2.0 * w, 3, "compiled")
        assert out is not None
        a, b = out
        assert a.shape == b.shape == (3, 2)

    def test_levels_order_concatenates(self):
        levels = [np.array([0, 2]), np.array([1])]
        order = kernels.levels_order(levels)
        assert np.array_equal(order, [0, 2, 1])
        assert kernels.levels_order(levels) is order  # memoised


def _solver_cfg(engine, executor="local", max_steps=3):
    """Branch-free config: fixed Krylov work (rtol=0 runs every
    iteration), unreachable target, no order switching — so the only
    engine-visible difference is ULP-level block-kernel rounding."""
    return SolverConfig(
        ptc=PTCConfig(cfl0=10.0),
        max_steps=max_steps,
        target_reduction=1e-300,
        matrix_free=True,
        jacobian_lag=2,
        krylov=KrylovConfig(rtol=0.0, max_iterations=6, restart=6),
        precond=PreconditionerConfig(nparts=2, fill_level=1),
        executor=executor,
        nworkers=2 if executor == "proc" else None,
        engine=engine,
    )


def _run(prob, cfg):
    solver = NKSSolver(prob.disc, cfg)
    try:
        report = solver.solve(prob.initial.flat())
    finally:
        prob.disc.engine = "numpy"    # solver mutated the shared disc
    return report


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("executor", ["local", "seq", "proc"])
    def test_engines_agree(self, executor):
        prob = wing_problem(7, 5, 4)
        rep_np = _run(prob, _solver_cfg("numpy", executor))
        rep_c = _run(prob, _solver_cfg("compiled", executor))
        # Integer outputs are identical (branch-free config).
        assert len(rep_c.steps) == len(rep_np.steps)
        assert ([s.linear_iterations for s in rep_c.steps]
                == [s.linear_iterations for s in rep_np.steps])
        # Float outputs agree to accumulated-rounding level: the
        # block kernels differ at machine epsilon per apply, and ILU
        # conditioning amplifies that over steps (measured ~5e-9 rel
        # after 3 steps on this mesh).
        for sc, sn in zip(rep_c.steps, rep_np.steps):
            np.testing.assert_allclose(sc.fnorm, sn.fnorm,
                                       rtol=1e-6)

    def test_forced_fallback_is_bitwise(self, bare_machine):
        """Satellite: with no backend available, engine='compiled'
        must be the *same program* as engine='numpy' — bitwise."""
        prob = wing_problem(7, 5, 4)
        rep_np = _run(prob, _solver_cfg("numpy"))
        rep_c = _run(prob, _solver_cfg("compiled"))
        assert ([s.fnorm for s in rep_c.steps]
                == [s.fnorm for s in rep_np.steps])
        assert ([s.linear_iterations for s in rep_c.steps]
                == [s.linear_iterations for s in rep_np.steps])

    def test_disable_env_is_bitwise(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "1")
        capability.invalidate()
        prob = wing_problem(7, 5, 4)
        rep_np = _run(prob, _solver_cfg("numpy"))
        rep_c = _run(prob, _solver_cfg("compiled"))
        monkeypatch.delenv("REPRO_KERNELS_DISABLE")
        capability.invalidate()
        assert ([s.fnorm for s in rep_c.steps]
                == [s.fnorm for s in rep_np.steps])
