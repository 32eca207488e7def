#!/usr/bin/env python3
"""The repository benchmark: real ΨNKS solves, traced layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wing4k-converge --seed 1 \\
        --seconds 50 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``wing4k-converge``  — 4,608-vertex wing, ILU(1), proc(2), Jacobian
  lag 4, solved to a 1e-6 residual reduction;
* ``service-closed``   — ``SolverService(workers=1)`` fed by one client in
  a closed loop (repeats, jittered copies, cold meshes);
* ``wing22k-cold``     — 22,680-vertex wing, ILU(1), 8 subdomains, seq,
  3 pseudo-steps, fresh problem and solver per solve.  It runs and is
  checked like the others, but ``BENCHMARK.json`` does not list it: on
  a 2-CPU shared host the middle half of its per-run ``solve_s`` spans
  20-34% of the median, more than the 25% bound allows.  Run it by
  hand to see the set-up-dominated (``sparse.*``) profile at paper size.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload with spans around the program's public calls and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; earlier lines
are a human summary and the run's ``meta`` record (host, load, source
hash, mesh hashes, seed).  Traces and the full record are written to
``.bench_build/perfbench/``.

Exit codes: 0 all outputs correct; 1 some operation failed or a check
did not hold (the result is still printed); 2 the program's source is
not there; 3 the environment is unfit to publish (BLAS threads not
pinned, compiled kernels not on the C backend) — no result printed.

``--size smoke`` runs the same code on small meshes (the benchmark's
own tests); ``--write-reference`` re-records ``reference.json``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS / OpenMP to one thread before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("wing22k-cold", "wing4k-converge", "service-closed")

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"),
              ("throughput_rps", "1/s"), ("latency_p50_s", "s"),
              ("latency_p80_s", "s")]

#: Host L3 when sysfs does not say (the 2-CPU reference host: 105 MiB).
L3_BYTES_DEFAULT = 105 * 2**20


class Refused(Exception):
    """The environment cannot produce publishable numbers."""


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--result-file", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- environment guard -------------------------------------------------
def guard() -> dict:
    """Refuse unless BLAS is pinned and the compiled tier is the C
    backend (a silent numpy fallback is several times slower)."""
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise Refused(f"BLAS/OpenMP threads not pinned: {unpinned}")
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise Refused(f"imported repro from {repro.__file__}, not this "
                      f"checkout")
    from repro.kernels import backend_for, capability
    backend_for("compiled")              # builds the C kernels once
    report = capability.capability_report()
    broken = capability.broken_backends()
    if report["resolved"] != "c" or broken:
        raise Refused(f"compiled kernels resolve to {report['resolved']!r}"
                      f", broken backends {sorted(broken)}; refusing to "
                      f"publish")
    return {"resolved": report["resolved"],
            "available": report["available"]}


def source_sha() -> str:
    """sha1 over the program and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha1()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def l3_bytes() -> int:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
        return int(text.rstrip("K")) * 1024 if text.endswith("K") \
            else int(text)
    except (OSError, ValueError):
        return L3_BYTES_DEFAULT


# -- measurement -------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (the ProcPool
    workers).  The measurement runs in a fresh interpreter, so nothing
    the parent did (the C-kernel build) counts."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def trace_overhead(tracer, recorder) -> float:
    """Tracing cost as a share of the traced solve time: spans recorded
    times the measured cost of one span, for the benchmark's wrappers
    and for the program's ``TraceRecorder`` spans."""
    from perfbench.tracer import Tracer
    from repro.telemetry import TraceRecorder

    def noop():
        return None

    n = 20000
    probe, rec = Tracer(), TraceRecorder()
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        probe.call("x", noop, (), {})
    ours = (time.perf_counter() - t0 - bare) / n
    t0 = time.perf_counter()
    for _ in range(n):
        with rec.span("flux"):
            pass
    theirs = (time.perf_counter() - t0) / n
    rec_spans = sum(recorder.phase_calls(p) for p in recorder.phases())
    cost = len(tracer.spans) * ours + rec_spans * theirs
    solve = sum(s.duration for s in tracer.spans if s.name == "core.solve")
    return cost / solve if solve else 0.0


def stream_triad_gbs(size: str) -> tuple[float, dict]:
    """STREAM triad with arrays of at least 4x L3 (smoke: the library
    default of 4M doubles, which fits in L3)."""
    from repro.perfmodel.stream import measure_stream_triad
    l3 = l3_bytes()
    n = -(-4 * l3 // 8) if size == "full" else 4_000_000
    bw = measure_stream_triad(n=n, repeats=2).triad
    return bw / 1e9, {"triad_array_mib": n * 8 / 2**20,
                      "l3_mib": l3 / 2**20,
                      "library_default_array_mib": 4_000_000 * 8 / 2**20}


def measure(args) -> dict:
    """One run: the workload, its checks, and the metrics to print."""
    from perfbench import layers, solve, stream
    from perfbench.tracer import Tracer
    from repro.telemetry import TraceRecorder

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    recorder = TraceRecorder() if traced else None
    try:
        if args.workload == "service-closed":
            out = stream.run(args.size, args.seed, args.seconds,
                             tracer=tracer, recorder=recorder)
        else:
            out = solve.run(args.workload, args.size, args.seconds,
                            tracer=tracer, recorder=recorder,
                            write_reference=args.write_reference)
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        guard()                          # nothing quarantined mid-run
    except Refused as exc:
        return {"refused": str(exc)}
    meta = dict(out["meta"])
    if traced:
        metrics = layers.per_layer(
            tracer, recorder, linear_iterations=out["linear_iterations"],
            steps=out["steps"], service=out["service"])
        metrics["bench.trace_overhead_frac"] = trace_overhead(tracer,
                                                              recorder)
        metrics["bench.stream_triad_gbs"], meta["stream"] = \
            stream_triad_gbs(args.size)
        units = dict(layers.PER_LAYER)
    else:
        metrics = dict(out["e2e"], peak_rss_mb=peak_rss_mb())
        units = dict(END_TO_END)
    meta["linear_iterations"] = out["linear_iterations"]
    return {"metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()},
            "attempted": out["attempted"], "failed": out["failed"],
            "errors": out["errors"], "meta": meta,
            "spans": ([dataclasses.asdict(sp) for sp in tracer.spans]
                      if traced else None)}


def in_child(argv: list[str]) -> dict:
    """Run ``measure`` in a fresh interpreter and return its result.

    A forked child would inherit the parent's resident pages (and its
    ProcPool workers would inherit them again), so the kernel build
    would show in ``peak_rss_mb``; a new process starts from nothing.
    """
    out = OUT_DIR / f"child-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv,
             "--result-file", str(out)], cwd=ROOT, stdout=sys.stderr)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"measurement process exited with "
                               f"{proc.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def _jsonable(obj):
    """numpy scalars (counts and byte totals) as plain numbers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'repro'} not found; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(ROOT / ".bench_build"
                                            / "repro_kernels")
    if args.result_file:                 # the measuring process
        Path(args.result_file).write_text(
            json.dumps(measure(args), default=_jsonable))
        return 0
    load0 = os.getloadavg()
    try:
        kernels = guard()
        res = in_child(sys.argv[1:] if argv is None else list(argv))
        if "refused" in res:
            raise Refused(res["refused"])
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    from repro.perf.regress import git_sha
    meta = dict(res["meta"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, size=args.size,
                cpu_count=os.cpu_count(), loadavg_start=load0,
                loadavg_end=os.getloadavg(),
                git_sha=git_sha() if (ROOT / ".git").exists() else None,
                source_sha=source_sha(), kernels=kernels,
                thread_env={v: os.environ[v] for v in THREAD_VARS})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": res["metrics"],
              "errors": res["errors"], "spans": res["spans"]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for err in res["errors"]:
        print(f"check failed: {err}")
    for name, m in res["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    correct = not res["errors"] and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
