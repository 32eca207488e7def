"""Regenerate paper tables/figures from the command line.

Usage::

    python -m repro.experiments             # list experiments
    python -m repro.experiments table3      # run one (prints its table)
    python -m repro.experiments all         # run everything (slow)

Measured experiments take the executor knobs::

    python -m repro.experiments table3-measured --executor proc --workers 2
    python -m repro.experiments table5-measured --smoke

``--smoke`` shrinks any experiment to its CI-sized variant (fewer
processor counts, smaller mesh, fewer steps).  Benchmark-grade runs
with shape assertions live in ``benchmarks/``; this entry point is the
quick interactive path.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (run_eq_bounds, run_fig2, run_fig3, run_fig4,
                               run_fig5, run_table1, run_table2, run_table3,
                               run_table3_measured, run_table4, run_table5,
                               run_table5_measured)


def _table1(a):
    # Full-size: the paper's 22,677-vertex mesh (22,680 here) against
    # the unscaled R10000 — routine with the fast trace engine.
    for comp in (False, True):
        yield run_table1(compressible=comp)


def _table3(a):
    yield run_table3(procs=(2, 4, 8, 16, 32), size="medium",
                     max_steps=5).to_table()


def _table3_measured(a):
    # Quickstart-sized: one real first-order solve per processor count
    # on the SPMD kernels; --executor proc runs its rank kernels
    # concurrently in worker processes.
    procs = (2, 4) if a.smoke else (2, 4, 8)
    steps = 2 if a.smoke else 3
    yield run_table3_measured(procs=procs, size="small", max_steps=steps,
                              executor=a.executor,
                              nworkers=a.workers).to_table()


def _table5_measured(a):
    nodes = (2,) if a.smoke else (2, 4)
    sweeps = 2 if a.smoke else 5
    yield run_table5_measured(node_counts=nodes, size="small",
                              sweeps=sweeps, nworkers=a.workers)


def _fig1(a):
    yield run_table3(procs=(2, 4, 8, 16, 32, 64), size="medium",
                     max_steps=5).to_fig1_table()


def _fig5(a):
    result, _histories = run_fig5()
    yield result


def _scaling(a):
    # The measured ranks x threads study (paper Table 5 analogue);
    # writes BENCH_scaling.json next to the working directory.
    from repro.parallel.scaling import run_scaling
    yield run_scaling(smoke=a.smoke, out=a.out or "BENCH_scaling.json")


def _service(a):
    # The solver-service benchmark: cold/warm/jittered request stream
    # through a live SolverService; writes BENCH_service.json.
    from repro.experiments.service_bench import run_service_bench
    yield run_service_bench(smoke=a.smoke,
                            out=a.out or "BENCH_service.json",
                            executor=a.executor, nworkers=a.workers)


EXPERIMENTS = {
    "table1": _table1,
    "table2": lambda a: [run_table2(procs=(4, 8, 16), size="medium",
                                    max_steps=4)],
    "table3": _table3,
    "table3-measured": _table3_measured,
    "table4": lambda a: [run_table4(procs=(4, 8), size="medium",
                                    max_steps=3)],
    "table5": lambda a: [run_table5(node_counts=(4, 8, 16, 32),
                                    size="medium")],
    "table5-measured": _table5_measured,
    "fig1": _fig1,
    "fig2": lambda a: [run_fig2(procs=(2, 4, 8, 16), size="medium",
                                max_steps=4)],
    "fig3": lambda a: [run_fig3()],    # full-size mesh, unscaled caches
    "fig4": lambda a: [run_fig4(procs=(2, 4, 8, 16, 32), size="medium",
                                max_steps=4)],
    "fig5": _fig5,
    "eqbounds": lambda a: [run_eq_bounds()],
    "scaling": _scaling,
    "service": _service,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", nargs="?",
                        help="which experiment to run "
                             "(one of the registered names, or 'all')")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized variant (smaller counts/steps)")
    parser.add_argument("--executor", choices=("seq", "proc"),
                        default="seq",
                        help="SPMD backend for measured experiments: "
                             "in-process rank loop or shared-memory "
                             "worker processes")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for --executor proc "
                             "(default 2)")
    parser.add_argument("--out", default=None,
                        help="report path for experiments that write "
                             "one (scaling -> BENCH_scaling.json)")
    args = parser.parse_args(argv)

    if args.experiment is None or (args.experiment != "all"
                                   and args.experiment not in EXPERIMENTS):
        # Usage error, not success: scripts (and CI) that misspell a
        # subcommand must fail loudly, so the listing goes to stderr
        # and the exit code matches argparse's usage-error convention.
        if args.experiment is not None:
            print(f"unknown experiment: {args.experiment!r}",
                  file=sys.stderr)
        print("available experiments:", file=sys.stderr)
        for name in sorted(EXPERIMENTS):
            print(f"  {name}", file=sys.stderr)
        print("  all", file=sys.stderr)
        return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        t0 = time.perf_counter()
        for result in EXPERIMENTS[name](args):
            print(result.table())
            print()
        print(f"[{name}: {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
