"""Which program calls the traced run wraps, and the per-layer metrics.

Every wrapped callable is public and is replaced from the outside for
the length of one traced run (``install`` / ``Tracer.restore``).  Span
names follow the repository's package names, so a metric names the
layer a later change would touch:

===========================  ===========================================
span                         wrapped callable
===========================  ===========================================
``core.solve``               ``NKSSolver.solve`` (the root of a solve)
``euler.residual``           the problem's ``disc.residual``
``euler.jacobian``           the problem's ``disc.shifted_jacobian``
``precond.setup.cold``       ``AdditiveSchwarz.setup``, first factorisation
``precond.setup.refresh``    ``AdditiveSchwarz.setup``, numeric refresh
``precond.apply``            ``AdditiveSchwarz.solve``
``sparse.ilu_numeric``       ``repro.precond.subdomain.ilu_bsr``
``sparse.ilu_symbolic``      ``repro.sparse.ilu.ilu_symbolic``
``sparse.schedule_compile``  ``repro.sparse.ilu.compile_elimination_schedule``
``solvers.gmres``            ``repro.core.driver.gmres``
``parallel.matvec``          ``repro.core.driver.distributed_matvec``
``parallel.layout_build``    ``SPMDLayout.build``
``parallel.pool``            ``ProcPool.__init__`` and ``ProcPool.close``
``partition.kway``           ``repro.core.driver.kway_partition``
``service.seed``             ``repro.service.service.seed_solver``
``service.harvest``          ``repro.service.service.harvest_context``
===========================  ===========================================

The benchmark opens ``mesh.build``, ``core.setup`` and
``service.request`` itself around its own calls.  Ghost-exchange
time, message and byte counts and implicit-sync waits come from the
program's own ``TraceRecorder``, passed through the public
``recorder=`` argument.
"""

from __future__ import annotations

import statistics

# (metric name, unit); the order is the order BENCHMARK.json lists.
PER_LAYER = [
    ("sparse.ilu_symbolic_s", "s"), ("sparse.ilu_symbolic_calls", "count"),
    ("sparse.schedule_compile_s", "s"),
    ("sparse.schedule_compile_calls", "count"),
    ("sparse.ilu_numeric_s", "s"), ("sparse.ilu_numeric_calls", "count"),
    ("precond.setup_cold_s", "s"), ("precond.setup_cold_calls", "count"),
    ("precond.setup_refresh_s", "s"),
    ("precond.setup_refresh_calls", "count"),
    ("precond.setup_self_s", "s"),
    ("precond.apply_s", "s"), ("precond.apply_calls", "count"),
    ("precond.apply_computed_bytes", "B"), ("precond.apply_gbs", "GB/s"),
    ("parallel.matvec_s", "s"), ("parallel.matvec_calls", "count"),
    ("parallel.matvec_computed_bytes", "B"), ("parallel.matvec_gbs", "GB/s"),
    ("parallel.ghost_exchange_s", "s"), ("parallel.messages", "count"),
    ("parallel.bytes", "B"), ("parallel.wait_s", "s"),
    ("parallel.layout_build_s", "s"), ("parallel.pool_s", "s"),
    ("solvers.gmres_self_s", "s"), ("solvers.linear_iterations", "count"),
    ("euler.residual_s", "s"), ("euler.residual_calls", "count"),
    ("euler.jacobian_s", "s"),
    ("mesh.build_s", "s"), ("partition.kway_s", "s"),
    ("service.queue_wait_p50_s", "s"), ("service.solve_p50_s", "s"),
    ("service.seed_s", "s"), ("service.harvest_s", "s"),
    ("service.latency_p50_s.repeat", "s"),
    ("service.latency_p50_s.jitter", "s"),
    ("service.latency_p50_s.cold", "s"),
    ("service.cache.hit_ratio.partition", "ratio"),
    ("service.cache.hit_ratio.gather", "ratio"),
    ("service.cache.hit_ratio.ilu_symbolic", "ratio"),
    ("service.cache.hit_ratio.level_schedule", "ratio"),
    ("core.steps", "count"), ("core.step_s", "s"),
    ("core.solve_s", "s"),
    ("bench.attributed_s", "s"), ("bench.unattributed_s", "s"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.stream_triad_gbs", "GB/s"),
]

# Phases whose implicit-sync wait the SPMD executors record.
_SPMD_PHASES = ("flux", "matvec", "ghost_exchange", "allreduce")


def _apply_bytes(out, pc, r):
    return {"bytes": sum(sd.factor.factor_bytes for sd in pc.subdomains)}


def _matvec_bytes(out, a, layout, x, *args, **kwargs):
    from repro.perfmodel.spmv_model import spmv_traffic_bytes
    bs = a.bs
    return {"bytes": spmv_traffic_bytes(a.nbrows * bs, a.nnzb * bs * bs,
                                        block_size=bs).total}


def install(tracer, parent_of_disc=None) -> None:
    """Wrap the program's public calls for one traced run.

    ``parent_of_disc(disc)`` returns the span a solve, seed or harvest
    of that discretisation belongs under (the service request span);
    without it a span's parent is the span open in its own thread.
    """
    import repro.core.driver as driver
    import repro.precond.subdomain as subdomain
    import repro.service.service as service
    import repro.sparse.ilu as ilu
    from repro.parallel.procpool import ProcPool
    from repro.parallel.spmd import SPMDLayout
    from repro.precond.asm import AdditiveSchwarz

    by_disc = None
    if parent_of_disc is not None:
        def by_disc(pos, attr):
            def find(args, kwargs):
                obj = args[pos]
                return parent_of_disc(getattr(obj, attr) if attr else obj)
            return find

    w = tracer.wrap
    w(driver.NKSSolver, "solve", "core.solve",
      parent=by_disc and by_disc(0, "disc"))
    w(AdditiveSchwarz, "setup", "precond.setup",
      kind=lambda args: "refresh" if args[0].subdomains else "cold")
    w(AdditiveSchwarz, "solve", "precond.apply", attrs=_apply_bytes)
    w(subdomain, "ilu_bsr", "sparse.ilu_numeric")
    w(ilu, "ilu_symbolic", "sparse.ilu_symbolic")
    w(ilu, "compile_elimination_schedule", "sparse.schedule_compile")
    w(driver, "gmres", "solvers.gmres")
    w(driver, "distributed_matvec", "parallel.matvec", attrs=_matvec_bytes)
    w(driver, "kway_partition", "partition.kway")
    w(SPMDLayout, "build", "parallel.layout_build")
    w(ProcPool, "__init__", "parallel.pool")
    w(ProcPool, "close", "parallel.pool")
    w(service, "seed_solver", "service.seed",
      parent=by_disc and by_disc(1, None))
    w(service, "harvest_context", "service.harvest",
      parent=by_disc and (lambda args, kw: parent_of_disc(
          args[1].solver.disc)))


def wrap_disc(tracer, disc) -> None:
    """Trace the problem's residual and Jacobian assembly (on its class,
    so every copy of the discretisation a service request carries is
    traced too)."""
    tracer.wrap(type(disc), "residual", "euler.residual")
    tracer.wrap(type(disc), "shifted_jacobian", "euler.jacobian")


def _span_bytes(tracer, name) -> float:
    return float(sum(s.attrs.get("bytes", 0) for s in tracer.spans
                     if s.name == name))


def per_layer(tracer, recorder, *, linear_iterations: int, steps: int,
              service: dict | None = None) -> dict:
    """Per-layer metrics of one traced run, all as plain numbers.

    A layer the workload does not exercise reports 0 (the service
    metrics on the solve workloads, for instance).
    """
    st = tracer.self_times()

    def row(name):
        return st.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    solve = row("core.solve")
    attributed = tracer.below("core.solve")
    cold, refresh = row("precond.setup.cold"), row("precond.setup.refresh")
    apply_, matvec = row("precond.apply"), row("parallel.matvec")
    apply_bytes = _span_bytes(tracer, "precond.apply")
    matvec_bytes = _span_bytes(tracer, "parallel.matvec")
    waits = sum(recorder.wait_seconds(p) for p in _SPMD_PHASES)
    m = {
        "sparse.ilu_symbolic_s": row("sparse.ilu_symbolic")["total_s"],
        "sparse.ilu_symbolic_calls": row("sparse.ilu_symbolic")["calls"],
        "sparse.schedule_compile_s": row("sparse.schedule_compile")["total_s"],
        "sparse.schedule_compile_calls":
            row("sparse.schedule_compile")["calls"],
        "sparse.ilu_numeric_s": row("sparse.ilu_numeric")["self_s"],
        "sparse.ilu_numeric_calls": row("sparse.ilu_numeric")["calls"],
        "precond.setup_cold_s": cold["total_s"],
        "precond.setup_cold_calls": cold["calls"],
        "precond.setup_refresh_s": refresh["total_s"],
        "precond.setup_refresh_calls": refresh["calls"],
        "precond.setup_self_s": cold["self_s"] + refresh["self_s"],
        "precond.apply_s": apply_["total_s"],
        "precond.apply_calls": apply_["calls"],
        "precond.apply_computed_bytes": apply_bytes,
        "precond.apply_gbs": _gbs(apply_bytes, apply_["total_s"]),
        "parallel.matvec_s": matvec["total_s"],
        "parallel.matvec_calls": matvec["calls"],
        "parallel.matvec_computed_bytes": matvec_bytes,
        "parallel.matvec_gbs": _gbs(matvec_bytes, matvec["total_s"]),
        "parallel.ghost_exchange_s": recorder.phase_seconds("ghost_exchange"),
        "parallel.messages": recorder.counter("messages"),
        "parallel.bytes": recorder.counter("bytes"),
        "parallel.wait_s": waits,
        "parallel.layout_build_s": row("parallel.layout_build")["total_s"],
        "parallel.pool_s": row("parallel.pool")["total_s"],
        "solvers.gmres_self_s": row("solvers.gmres")["self_s"],
        "solvers.linear_iterations": linear_iterations,
        "euler.residual_s": row("euler.residual")["total_s"],
        "euler.residual_calls": row("euler.residual")["calls"],
        "euler.jacobian_s": row("euler.jacobian")["total_s"],
        "mesh.build_s": row("mesh.build")["total_s"],
        "partition.kway_s": row("partition.kway")["total_s"],
        "service.seed_s": row("service.seed")["total_s"],
        "service.harvest_s": row("service.harvest")["total_s"],
        "core.steps": steps,
        "core.step_s": solve["total_s"] / steps if steps else 0.0,
        "core.solve_s": solve["total_s"],
        "bench.attributed_s": attributed,
        "bench.unattributed_s": solve["self_s"],
        "bench.unattributed_frac": (solve["self_s"] / solve["total_s"]
                                    if solve["total_s"] else 0.0),
    }
    for name, _ in PER_LAYER:
        if name.startswith("service.") and name not in m:
            m[name] = 0.0
    m.update(service or {})
    return m


def _gbs(nbytes: float, seconds: float) -> float:
    return nbytes / seconds / 1e9 if seconds > 0 else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q) -> float:
    """Linear-interpolated percentile (numpy's default), 0 if empty."""
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0
