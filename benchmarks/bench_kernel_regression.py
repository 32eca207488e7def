"""Kernel-regression bench: time the per-Newton-step kernels.

Times the kernels the paper's Table 2 prices — numeric ILU
refactorisation, triangular solves, SpMV, residual/flux assembly, and
a full GMRES(30) cycle — on a wing mesh, and writes the medians to
``BENCH_kernels.json`` (schema in :mod:`repro.perf.regress`).

Where a pre-optimisation reference implementation is preserved
(``ilu_bsr_ref``/``ilu_csr_ref`` row loops, ``gmres_ref`` with
per-restart allocation and per-refresh symbolic ILU), both legs are
timed and the speedup recorded; the remaining kernels are recorded as
single timings so successive reports can be diffed.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_regression.py \
        --size 18 --repeats 5 --out BENCH_kernels.json

``--size N`` builds ``wing_mesh(N, N, N)`` (N=18 is the ~6k-vertex
case the acceptance numbers quote; CI smoke-runs N=6).
"""

from __future__ import annotations

import argparse
import os

# Pin the BLAS/OpenMP thread pools to one thread BEFORE numpy loads:
# kernel medians must measure the kernels, not whatever implicit
# threading the host's BLAS happens to ship.  setdefault keeps an
# explicit operator override honoured; the realised values are
# recorded in the report meta so runs are comparable.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in _THREAD_ENV:
    os.environ.setdefault(_var, "1")

import numpy as np

from repro.euler.problems import wing_problem
from repro.kernels import capability
from repro.memory import MemoryHierarchy
from repro.parallel.procpool import ProcPool
from repro.parallel.spmd import (SPMDLayout, distributed_matvec,
                                 distributed_residual)
from repro.memory.tlb import tlb_sim
from repro.memory.trace import flux_loop_trace, spmv_bsr_trace
from repro.partition.kway import kway_partition
from repro.perf import compare_kernels, git_sha, time_kernel, write_report
from repro.perfmodel.machines import ORIGIN2000_R10K
from repro.precond.asm import AdditiveSchwarz, ASMConfig
from repro.solvers import KrylovWorkspace, gmres, gmres_ref
from repro.solvers.krylov_base import OperatorFromMatrix
from repro.sparse.ilu import ilu_bsr, ilu_bsr_ref, ilu_csr, ilu_csr_ref, \
    ilu_symbolic

FILL = 1          # the ILU(k) level the acceptance criterion quotes
NPARTS = 8
OVERLAP = 1
GMRES_M = 30
SPMD_RANKS = 4    # ranks and workers of the proc-backend leg
SPMD_WORKERS = 4


def _setup_ref(pc: AdditiveSchwarz, jac) -> None:
    """Pre-PR preconditioner refresh: per-subdomain symbolic ILU redone
    from scratch and the row-loop numeric factorisation."""
    for sd in pc.subdomains:
        sub = jac.submatrix(sd.rows)
        pat = ilu_symbolic(sub.indptr, sub.indices, sd.fill_level)
        sd.factor = ilu_bsr_ref(sub, pattern=pat)


def run(size: int, repeats: int, out: str | None) -> dict:
    problem = wing_problem(size, size, size, seed=0)
    disc = problem.disc
    mesh = problem.mesh
    q = np.asarray(problem.initial.q, dtype=np.float64).ravel()
    jac = disc.shifted_jacobian(q, cfl=50.0)
    csr = jac.to_csr()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(jac.shape[1])

    kernels: dict[str, dict] = {}

    # --- ILU(1) numeric refactorisation (the tentpole metric) ---------
    pat_bsr = ilu_symbolic(jac.indptr, jac.indices, FILL)
    kernels["ilu1_refactor_bsr"] = compare_kernels(
        "ilu1_refactor_bsr",
        lambda: ilu_bsr_ref(jac, pattern=pat_bsr),
        lambda: ilu_bsr(jac, pattern=pat_bsr),
        repeats=repeats)
    pat_csr = ilu_symbolic(csr.indptr, csr.indices, FILL)
    kernels["ilu1_refactor_csr"] = compare_kernels(
        "ilu1_refactor_csr",
        lambda: ilu_csr_ref(csr, pattern=pat_csr),
        lambda: ilu_csr(csr, pattern=pat_csr),
        repeats=repeats)

    # --- triangular solve / SpMV / residual / assembly ----------------
    # With the compiled backend present (cffi+cc) each hot
    # kernel is timed numpy-oracle vs engine="compiled" and the
    # speedup recorded; on a bare machine (CI bench-smoke) the numpy
    # leg is recorded alone so reports stay diffable.
    engine = ("compiled"
              if capability.resolve_engine("compiled") != "numpy"
              else "numpy")
    if engine == "numpy" and not capability.disabled():
        # A machine that simply lacks cffi/cc degrades to the
        # numpy-only report (the documented contract), but a backend
        # that *broke* must fail the bench loudly — a silently
        # quarantined C build would otherwise publish numpy medians as
        # if they were the compiled tier's.
        broken = capability.broken_backends()
        if broken:
            reasons = "; ".join(
                f"{name}: {rec['exc_type']} at {rec['stage']} "
                f"({rec['message']})"
                for name, rec in sorted(broken.items()))
            raise RuntimeError(
                "refusing to record a numpy-only report: a compiled "
                f"backend is quarantined — {reasons}. Run `python -m "
                "repro.kernels.capability` for the full report, or "
                "set REPRO_KERNELS_DISABLE=1 to bench the numpy tier "
                "deliberately.")
    factor = ilu_bsr(jac, pattern=pat_bsr)
    factor_e = ilu_bsr(jac, pattern=pat_bsr, engine=engine)
    jac_e = jac.copy()
    jac_e.engine = engine
    csr_e = csr.copy()
    csr_e.engine = engine
    b = rng.standard_normal(jac.shape[0])

    def eng_residual(second_order):
        disc.engine = engine
        try:
            return disc.residual(q, second_order=second_order)
        finally:
            disc.engine = "numpy"

    def eng_assembly():
        disc.engine = engine
        try:
            return disc.shifted_jacobian(q, cfl=50.0)
        finally:
            disc.engine = "numpy"

    hot_rows = [
        ("ilu1_trisolve_bsr", lambda: factor.solve(b),
         lambda: factor_e.solve(b)),
        ("spmv_bsr", lambda: jac @ x, lambda: jac_e @ x),
        ("spmv_csr", lambda: csr @ x, lambda: csr_e @ x),
        ("residual_first_order",
         lambda: disc.residual(q, second_order=False),
         lambda: eng_residual(False)),
        ("residual_second_order",
         lambda: disc.residual(q, second_order=True),
         lambda: eng_residual(True)),
        ("jacobian_assembly",
         lambda: disc.shifted_jacobian(q, cfl=50.0),
         lambda: eng_assembly()),
    ]
    for name, ref_fn, new_fn in hot_rows:
        if engine == "numpy":
            kernels[name] = time_kernel(name, ref_fn,
                                        repeats=repeats).as_dict()
        else:
            kernels[name] = compare_kernels(name, ref_fn, new_fn,
                                            repeats=repeats)

    # --- Fig. 3 memory-hierarchy simulation: oracle vs fast engine ----
    # The Fig. 3 workload: flux-loop + blocked-SpMV address traces of
    # this mesh through the R10000 cache/TLB models, with capacities
    # scaled to keep the cache-to-working-set ratio of the paper's
    # 22,677-vertex mesh.
    flux_trace = flux_loop_trace(mesh.edges, mesh.num_vertices, disc.ncomp,
                                 interlaced=True)
    spmv_trace = spmv_bsr_trace(jac)
    machine = ORIGIN2000_R10K.scaled_caches(22677 / mesh.num_vertices)

    def sim_hierarchy(engine: str):
        h = MemoryHierarchy(machine.l1, machine.l2, machine.tlb,
                            engine=engine)
        h.run(flux_trace)
        h.run(spmv_trace)
        return h.counters

    kernels["cache_sim_fig3"] = compare_kernels(
        "cache_sim_fig3",
        lambda: sim_hierarchy("ref"),
        lambda: sim_hierarchy("fast"),
        repeats=repeats)

    def sim_tlb(engine: str):
        t = tlb_sim(machine.tlb, engine=engine)
        t.access(flux_trace)
        t.access(spmv_trace)
        return t.misses

    kernels["tlb_sim_fig3"] = compare_kernels(
        "tlb_sim_fig3",
        lambda: sim_tlb("ref"),
        lambda: sim_tlb("fast"),
        repeats=repeats)

    # --- one Newton step's linear work: refresh + GMRES(30) cycle ----
    # Pre-PR leg: full preconditioner re-setup (symbolic + row-loop
    # numeric) and gmres_ref's per-restart allocation.  New leg: the
    # driver path — numeric-only refresh on cached schedules and a
    # reused KrylovWorkspace.  rtol=0 pins both to exactly 30 inner
    # iterations, so the work compared is identical.
    labels = kway_partition(mesh.vertex_graph(), NPARTS, seed=0)
    cfg_ref = ASMConfig(overlap=OVERLAP, fill_level=FILL)
    pc_ref = AdditiveSchwarz(labels, cfg_ref,
                             graph=mesh.vertex_graph()).setup(jac)
    # The new leg runs the whole cycle at the resolved kernel tier:
    # compiled trisolves in the preconditioner, compiled SpMV in the
    # operator (identical numpy path when no backend exists).
    cfg_new = ASMConfig(overlap=OVERLAP, fill_level=FILL, engine=engine)
    pc_new = AdditiveSchwarz(labels, cfg_new,
                             graph=mesh.vertex_graph()).setup(jac_e)
    op_ref = OperatorFromMatrix(jac)
    op_new = OperatorFromMatrix(jac_e)
    ws = KrylovWorkspace()

    def cycle_ref():
        _setup_ref(pc_ref, jac)
        return gmres_ref(op_ref, b, M=pc_ref, rtol=0.0, restart=GMRES_M,
                         maxiter=GMRES_M)

    def cycle_new():
        pc_new.setup(jac_e)
        return gmres(op_new, b, M=pc_new, rtol=0.0, restart=GMRES_M,
                     maxiter=GMRES_M, workspace=ws)

    kernels["gmres30_cycle"] = compare_kernels(
        "gmres30_cycle", cycle_ref, cycle_new, repeats=repeats)

    # --- SPMD backends: sequential rank loop vs shm process pool ------
    # One Newton step's distributed work — the GMRES(30) inner loop: a
    # residual evaluation plus 30 Krylov matvecs — on the
    # acceptance-sized ~22k-vertex wing when the bench itself is
    # full-size.  Both legs return the same vector bitwise; the pool
    # leg amortises ghost-gather rows, edge normals, per-matrix gather
    # structures, and kernel workspaces across calls in its persistent
    # workers.  Dots are excluded from the timed mix: on this host a
    # distributed dot is ~0.5 ms of which the proc round-trip is the
    # larger part (their seq/proc bitwise identity and deterministic
    # tree reduction are pinned by tests/test_parallel_procpool.py).
    spmd_prob = problem if size < 18 else wing_problem(42, 27, 20, seed=0)
    sp_disc = spmd_prob.disc
    sp_q = np.asarray(spmd_prob.initial.q, dtype=np.float64).ravel()
    sp_labels = kway_partition(spmd_prob.mesh.vertex_graph(), SPMD_RANKS,
                               seed=0)
    sp_layout = SPMDLayout.build(spmd_prob.mesh.edges, sp_labels)
    sp_jac = sp_disc.shifted_jacobian(sp_q, cfl=50.0)
    sp_x = rng.standard_normal(sp_jac.shape[1])

    def newton_step_mix(executor):
        distributed_residual(sp_disc, sp_layout, sp_q, executor=executor)
        y = sp_x
        for _ in range(GMRES_M):
            y = distributed_matvec(sp_jac, sp_layout, y,
                                   executor=executor)
            y = y / np.linalg.norm(y)     # local rescale, leg-neutral
        return y

    pool = ProcPool(sp_layout, sp_disc, nworkers=SPMD_WORKERS)
    try:
        kernels["spmd_proc_speedup"] = compare_kernels(
            "spmd_proc_speedup",
            lambda: newton_step_mix("seq"),
            lambda: newton_step_mix("proc"),
            repeats=repeats)
    finally:
        pool.close()

    from repro.service.hashing import mesh_hash

    meta = {
        "mesh": f"wing_mesh({size},{size},{size})",
        "mesh_hash": mesh_hash(mesh),
        "git_sha": git_sha(),
        "num_vertices": int(mesh.num_vertices),
        "num_unknowns": int(disc.num_unknowns),
        "block_size": int(jac.bs),
        "nnz_blocks": int(jac.nnzb),
        "fill_level": FILL,
        "gmres_restart": GMRES_M,
        "asm": {"nparts": NPARTS, "overlap": OVERLAP},
        "spmd": {
            "mesh": spmd_prob.name,
            "num_vertices": int(spmd_prob.mesh.num_vertices),
            "ranks": SPMD_RANKS,
            "nworkers": SPMD_WORKERS,
            "cpu_count": os.cpu_count(),
            # On a single-core host the proc leg cannot win on
            # concurrency; its speedup measures the persistent
            # worker-side caching against the per-call seq rebuilds.
        },
        "repeats": repeats,
        "numpy": np.__version__,
        "compiled_backend": capability.resolve_engine("compiled"),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_ENV},
    }
    if out:
        path = write_report(out, kernels, meta)
        print(f"[bench] report written to {path}")
    return {"meta": meta, "kernels": kernels}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=18,
                    help="wing mesh is size^3 vertices (default 18)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_kernels.json",
                    help="report path ('' to skip writing)")
    args = ap.parse_args(argv)
    doc = run(args.size, args.repeats, args.out or None)
    for name, entry in doc["kernels"].items():
        if "speedup" in entry:
            print(f"{name:24s} ref {entry['ref_median_s'] * 1e3:9.2f} ms   "
                  f"new {entry['new_median_s'] * 1e3:9.2f} ms   "
                  f"speedup {entry['speedup']:6.2f}x")
        else:
            print(f"{name:24s}     {entry['median_s'] * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
