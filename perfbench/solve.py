"""The two single-solve workloads: ``wing22k-cold`` and ``wing4k-converge``.

Each run sets up and solves the same problem ``n`` times, each time
with a fresh problem build and a fresh ``NKSSolver``.  ``n`` is the
number of whole iterations of nominal length (set-up + solve on the
2-CPU reference host) that fit in the run length, at least 2, so a run
does the same work however fast the host is.  The inputs do not depend
on the seed: the stored reference history pins them
(``reference.json``).

End-to-end metrics: ``setup_s`` is the problem build plus ``NKSSolver``
construction (``EXTRA_SETUPS`` more set-ups are timed before the
solves), ``solve_s`` the ``NKSSolver.solve`` wall time (medians over
the run), and a solve's latency is the two together.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

#: Normwise tolerance of a residual history against its reference:
#: ||h - h_ref|| / ||h_ref||.  The compiled block kernels are only
#: normwise-equal to the numpy oracles, so no check here is bitwise.
HISTORY_RTOL = 1e-6
#: Tolerance of the total linear-iteration count: 1% of the reference,
#: at least one iteration.
ITERATIONS_RTOL = 0.01
#: Set-ups timed before the solves.  ``setup_s`` is the median over
#: these and the set-up of each solve, so it rests on more than the
#: few solve iterations (single set-ups of the 4.6k wing take under a
#: second and vary by 30% on a 2-CPU shared host).
EXTRA_SETUPS = 7


@dataclass(frozen=True)
class SolveSpec:
    dims: tuple
    fill: int
    executor: str
    nworkers: int | None
    jacobian_lag: int
    max_steps: int
    nparts: int = 8
    must_converge: bool = False
    nominal_s: float = 1.0          # set-up + solve of one iteration

    def config(self):
        from repro.core.config import PreconditionerConfig, SolverConfig
        return SolverConfig(
            max_steps=self.max_steps, executor=self.executor,
            nworkers=self.nworkers, engine="compiled",
            jacobian_lag=self.jacobian_lag, target_reduction=1e-6,
            precond=PreconditionerConfig(nparts=self.nparts,
                                         fill_level=self.fill))


SPECS = {
    # The paper-size mesh, plain single-process baseline: preconditioner
    # set-up dominates a 3-step solve.
    "wing22k-cold": {
        "full": SolveSpec((42, 27, 20), 1, "seq", None, 1, 3,
                          nominal_s=13.6),
        "smoke": SolveSpec((10, 7, 5), 1, "seq", None, 1, 3, nparts=4,
                           nominal_s=0.5),
    },
    # Time to a stated accuracy: 1e-6 residual reduction on 2 worker
    # processes; Krylov and numeric refresh dominate, set-up amortises.
    "wing4k-converge": {
        "full": SolveSpec((24, 16, 12), 1, "proc", 2, 4, 100,
                          must_converge=True, nominal_s=10.8),
        "smoke": SolveSpec((8, 6, 5), 1, "proc", 2, 4, 100, nparts=4,
                           must_converge=True, nominal_s=0.5),
    },
}


def load_reference(workload: str, size: str) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(f"{workload}/{size}")


def reference_entry(report, mesh_key: str) -> dict:
    return {"mesh_hash": mesh_key,
            "fnorm": [float(s.fnorm) for s in report.steps],
            "linear_iterations": [int(s.linear_iterations)
                                  for s in report.steps]}


def check_solve(spec: SolveSpec, report, mesh_key: str,
                ref: dict | None) -> list[str]:
    """Why this solve is wrong (empty when it is right)."""
    errors = []
    if ref is None:
        return ["no stored reference (run with --write-reference)"]
    if mesh_key != ref["mesh_hash"]:
        errors.append("input mesh differs from the reference mesh")
    if report.final_state is None or not np.all(
            np.isfinite(report.final_state)):
        errors.append("non-finite final state")
    hist = np.array([s.fnorm for s in report.steps])
    href = np.array(ref["fnorm"])
    if hist.shape != href.shape:
        errors.append(f"{hist.size} steps, reference {href.size}")
    else:
        err = float(np.linalg.norm(hist - href) / np.linalg.norm(href))
        if not err <= HISTORY_RTOL:
            errors.append(f"residual history off by {err:.2e} (normwise)")
    its, its_ref = report.total_linear_iterations, sum(
        ref["linear_iterations"])
    if abs(its - its_ref) > max(1, ITERATIONS_RTOL * its_ref):
        errors.append(f"{its} linear iterations, reference {its_ref}")
    if spec.must_converge and not (report.converged
                                   and report.final_reduction <= 1e-6):
        errors.append(f"did not reach 1e-6 (reduction "
                      f"{report.final_reduction:.2e})")
    return errors


def warm_up(spec: SolveSpec) -> None:
    """One tiny solve through the same code paths (imports, compiled
    kernels, worker fork) before anything is timed."""
    from repro.core.driver import NKSSolver
    from repro.euler import wing_problem

    cfg = spec.config()
    cfg.max_steps = 1
    cfg.precond.nparts = 2
    prob = wing_problem(5, 4, 4)
    NKSSolver(prob.disc, cfg).solve(prob.initial.flat())


def run(workload: str, size: str, seconds: float, tracer=None,
        recorder=None, write_reference: bool = False) -> dict:
    """Set up and solve ``n`` times; return metrics, checks and meta."""
    from repro.core.driver import NKSSolver
    from repro.euler import wing_problem
    from repro.service import mesh_hash
    from perfbench import layers

    spec = SPECS[workload][size]
    ref = load_reference(workload, size)
    warm_up(spec)
    setups = []
    for _ in range(EXTRA_SETUPS):
        t0 = time.perf_counter()
        NKSSolver(wing_problem(*spec.dims).disc, spec.config())
        setups.append(time.perf_counter() - t0)
    if tracer is not None:
        layers.install(tracer)
    rows, errors, mesh_keys = [], [], set()
    for i in range(max(2, int(seconds // spec.nominal_s))):
        t0 = time.perf_counter()
        prob = _call(tracer, "mesh.build", wing_problem, *spec.dims)
        if tracer is not None and i == 0:
            layers.wrap_disc(tracer, prob.disc)
        solver = _call(tracer, "core.setup", NKSSolver, prob.disc,
                       spec.config(), recorder=recorder)
        t1 = time.perf_counter()
        try:
            report = solver.solve(prob.initial.flat())
        except Exception as exc:       # noqa: BLE001 - counted as failed
            report, bad = None, [f"{type(exc).__name__}: {exc}"]
        t2 = time.perf_counter()
        key = mesh_hash(prob.mesh)
        mesh_keys.add(key)
        if report is not None:
            if write_reference:
                ref = reference_entry(report, key)
                _store_reference(workload, size, ref)
            bad = check_solve(spec, report, key, ref)
        errors += [f"solve {i}: {e}" for e in bad]
        rows.append({"setup_s": t1 - t0, "solve_s": t2 - t1,
                     "latency_s": t2 - t0, "ok": not bad,
                     "steps": report.num_steps if report else 0,
                     "linear_iterations":
                         report.total_linear_iterations if report else 0})
    lat = [r["latency_s"] for r in rows]
    setups += [r["setup_s"] for r in rows]
    n_ok = sum(r["ok"] for r in rows)
    return {
        "e2e": {"setup_s": layers.median(setups),
                "solve_s": layers.median([r["solve_s"] for r in rows]),
                "throughput_rps": n_ok / sum(lat),
                "latency_p50_s": layers.percentile(lat, 50),
                "latency_p80_s": layers.percentile(lat, 80)},
        "attempted": len(rows), "failed": len(rows) - n_ok,
        "errors": errors,
        "linear_iterations": sum(r["linear_iterations"] for r in rows),
        "steps": sum(r["steps"] for r in rows),
        "service": None,
        "meta": {"solves": len(rows), "mesh_hashes": sorted(mesh_keys),
                 "setup_samples_s": setups,
                 "solve_samples_s": [r["solve_s"] for r in rows],
                 "num_vertices": int(prob.mesh.num_vertices)}}


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, args, kwargs)


def _store_reference(workload: str, size: str, entry: dict) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc[f"{workload}/{size}"] = entry
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
