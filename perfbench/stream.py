"""The ``service-closed`` workload: a closed-loop request stream.

A seeded generator pre-builds the whole stream before anything is
timed.  A run sends ``n`` requests: the run length times the nominal
rate of the 2-CPU reference host, at least ``MIN_SAMPLES`` so that the
p80 latency has at least ten samples beyond it.  Of these, 15% are
cold (a mesh whose topology has not appeared earlier in the run), 25%
send a jittered copy of an earlier mesh (same topology, coordinates
perturbed by 1e-8) and the rest repeat an earlier mesh.  The first two
requests are cold; in the rest each kind is spread evenly, at seeded
offsets, so that no seed bunches the cold requests together.

One client sends the requests, in order, to a ``SolverService(workers=1)``
and sends the next one when the previous answer arrives (a closed loop
of one).  Not two dispatchers with two requests in flight: on 2 CPUs
their solves contend for the GIL, each takes about 2.5x as long (solve
p50 1.1-1.35 s against 0.45-0.5 s alone), throughput is lower (1.3-1.7
against 1.7-1.9 req/s) and the run-to-run spread of the latency
medians reaches a quarter of the median.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

MIN_SAMPLES = 50
COLD_FRAC, JITTER_FRAC = 0.15, 0.25
DEADLINE_S = 120.0
SETUPS = 11
NAMESPACES = ("partition", "gather", "ilu_symbolic", "level_schedule")


@dataclass(frozen=True)
class StreamSpec:
    base: tuple            # the first mesh of every stream
    warmup: tuple          # set-up request mesh, never in the stream
    vertices: tuple        # (lo, hi) vertex range of the cold meshes
    fill: int
    nparts: int
    steps: int
    nominal_rps: float     # requests/s of the reference host
    min_samples: int = MIN_SAMPLES

    def config(self):
        from repro.core.config import PreconditionerConfig, SolverConfig
        return SolverConfig(
            max_steps=self.steps, executor="seq", engine="compiled",
            precond=PreconditionerConfig(nparts=self.nparts,
                                         fill_level=self.fill))

    def requests(self, seconds: float) -> int:
        return max(self.min_samples, round(seconds * self.nominal_rps))

    def shapes(self) -> list[tuple]:
        """Cold-mesh shapes: wings of about the service size.  Permuted
        dimensions give the same topology, so only descending triples
        are used."""
        lo, hi = self.vertices
        out = []
        for a in range(4, 40):
            for b in range(4, a + 1):
                for c in range(3, b + 1):
                    if lo <= a * b * c <= hi and a <= 2.5 * c:
                        out.append((a, b, c))
        return [s for s in out if s not in (self.base, self.warmup)]


SPECS = {
    "full": StreamSpec(base=(16, 10, 8), warmup=(12, 12, 9),
                       vertices=(1230, 1330), fill=2, nparts=8, steps=3,
                       nominal_rps=1.5),
    "smoke": StreamSpec(base=(8, 6, 5), warmup=(7, 6, 6),
                        vertices=(200, 280), fill=1, nparts=4, steps=2,
                        nominal_rps=10.0, min_samples=20),
}


@dataclass
class Request:
    index: int
    kind: str              # cold | repeat | jitter
    mesh: int              # index of the mesh it was derived from
    problem: object


def make_stream(spec: StreamSpec, seed: int, seconds: float,
                tracer=None) -> list[Request]:
    """Pre-build the request stream of one run from the seed."""
    from repro.euler import wing_problem

    rng = np.random.default_rng(seed)
    n = spec.requests(seconds)
    cold = max(2, round(COLD_FRAC * n))
    jitter = round(JITTER_FRAC * n)
    counts = {"cold": cold - 2, "jitter": jitter,
              "repeat": n - cold - jitter}
    # The k-th of c requests of a kind lands (k + u) / c of the way
    # through the stream, u uniform: even spread, seeded order.
    keys = sorted(((k + rng.random()) / c, kind)
                  for kind, c in counts.items() for k in range(c))
    kinds = ["cold", "cold"] + [kind for _, kind in keys]
    shapes = spec.shapes()
    order = [spec.base] + [shapes[i] for i in rng.permutation(len(shapes))]
    if cold > len(order):
        raise ValueError("stream needs more cold meshes than shapes exist")
    bases, out = [], []
    for i, kind in enumerate(kinds):
        if kind == "cold":
            dims = order[len(bases)]
            prob = (wing_problem(*dims) if tracer is None else
                    tracer.call("mesh.build", wing_problem, dims, {}))
            bases.append(prob)
            out.append(Request(i, kind, len(bases) - 1, prob))
            continue
        m = int(rng.integers(len(bases)))
        if kind == "repeat":
            prob = copy.copy(bases[m])
            prob.disc = copy.copy(bases[m].disc)   # its own request object
        else:
            prob = copy.deepcopy(bases[m])
            prob.mesh.coords[:] += 1e-8 * rng.standard_normal(
                prob.mesh.coords.shape)
        out.append(Request(i, kind, m, prob))
    return out


def start_service(spec: StreamSpec, warm_problem):
    """Service start plus one warm-up request (the workload's set-up)."""
    from repro.service import SolveRequest, SolverService

    svc = SolverService(workers=1)
    ticket = svc.submit(SolveRequest(warm_problem.disc,
                                     warm_problem.initial.flat(),
                                     spec.config(), tag="warmup"))
    ticket.result(timeout=DEADLINE_S)
    if ticket.status != "completed":
        svc.close()
        raise RuntimeError(f"warm-up request {ticket.status}")
    return svc


def drive(svc, spec: StreamSpec, stream: list[Request], tracer=None,
          spans: dict | None = None) -> dict:
    """Run the closed loop; return the tickets and the window length.

    With a tracer, every request gets a ``service.request`` span from
    submit to result, registered in ``spans`` under ``id(disc)`` so the
    dispatcher thread's spans can name it as their parent.
    """
    from repro.service import SolveRequest

    cfg = spec.config()
    tickets = []
    t0 = time.perf_counter()
    for req in stream:
        if tracer is not None:
            spans[id(req.problem.disc)] = tracer.open(
                "service.request", kind=req.kind, index=req.index)
        t = svc.submit(SolveRequest(req.problem.disc,
                                    req.problem.initial.flat(), cfg,
                                    tag=req.kind, deadline_s=DEADLINE_S))
        if not t.wait(timeout=2 * DEADLINE_S):
            raise TimeoutError(f"request {req.index} never finished")
        tickets.append(t)
        if tracer is not None:
            sp = spans.pop(id(req.problem.disc))
            sp.start, sp.end = t.submitted_at, t.submitted_at + t.total_s
    return {"tickets": tickets, "window_s": time.perf_counter() - t0}


def check_stream(spec: StreamSpec, stream: list[Request],
                 tickets: list) -> dict[int, str]:
    """Why requests are wrong, by request index: status, steps,
    cold-is-cold, warm-is-warm, and every repeat bitwise equal to the
    first solve of its mesh."""
    first_state: dict[int, np.ndarray] = {}
    for req, t in zip(stream, tickets):
        if req.kind == "cold" and t.report is not None:
            first_state[req.mesh] = t.report.final_state
    errors = {}
    for req, t in zip(stream, tickets):
        why = _request_error(spec, req, t, first_state)
        if why:
            errors[req.index] = f"({req.kind}) {why}"
    return errors


def _request_error(spec, req, t, first_state) -> str | None:
    if t.status != "completed" or t.report is None:
        return f"{t.status} {t.error!r}"
    rep = t.report
    if rep.num_steps != spec.steps and not rep.converged:
        return f"stopped after {rep.num_steps} steps"
    if not np.all(np.isfinite(rep.final_state)):
        return "non-finite state"
    hits = [t.seeded.get(ns) for ns in NAMESPACES]
    if req.kind == "cold" and any(hits):
        return f"cold request hit the cache {t.seeded}"
    if req.kind != "cold" and not all(hits):
        return f"warm request missed the cache {t.seeded}"
    if req.kind == "repeat" and not np.array_equal(
            rep.final_state, first_state.get(req.mesh)):
        return "differs from the first solve of its mesh"
    return None


def run(size: str, seed: int, seconds: float, tracer=None,
        recorder=None) -> dict:
    """Build the stream, set the service up ``SETUPS`` times (the median
    is ``setup_s``), drive the stream through the last one, check it."""
    from repro.euler import wing_problem
    from repro.service import mesh_hash
    from perfbench import layers

    spec = SPECS[size]
    reqs = make_stream(spec, seed, seconds, tracer=tracer)
    warm = wing_problem(*spec.warmup)
    setups, svc = [], None
    for _ in range(SETUPS):
        if svc is not None:
            svc.close()
        t0 = time.perf_counter()
        svc = start_service(spec, warm)
        setups.append(time.perf_counter() - t0)
    spans: dict = {}
    if tracer is not None:
        layers.install(tracer, parent_of_disc=lambda d: getattr(
            spans.get(id(d)), "sid", None))
        layers.wrap_disc(tracer, warm.disc)
    try:
        out = drive(svc, spec, reqs, tracer=tracer, spans=spans)
    finally:
        svc.close()
    tickets = out["tickets"]
    bad = check_stream(spec, reqs, tickets)
    done = [t for t in tickets if t.status == "completed"]
    lat = [t.total_s for t in done]
    kinds = [r.kind for r in reqs]
    pct = layers.percentile
    layer = {"service.queue_wait_p50_s": pct([t.queue_wait_s for t in done],
                                             50),
             "service.solve_p50_s": pct([t.solve_s for t in done], 50)}
    for kind in ("repeat", "jitter", "cold"):
        layer[f"service.latency_p50_s.{kind}"] = pct(
            [t.total_s for t, k in zip(tickets, kinds)
             if k == kind and t.status == "completed"], 50)
    for ns in NAMESPACES:
        layer[f"service.cache.hit_ratio.{ns}"] = (
            sum(bool(t.seeded.get(ns)) for t in tickets) / len(tickets))
    if recorder is not None:
        for t in tickets:
            if t.trace:
                recorder.merge_dict(t.trace)
    p80 = pct(lat, 80)
    reports = [t.report for t in done]
    return {
        "e2e": {"setup_s": layers.median(setups),
                "solve_s": layers.median([t.solve_s for t in done]),
                "throughput_rps": (len(tickets) - len(bad)) / out["window_s"],
                "latency_p50_s": pct(lat, 50),
                "latency_p80_s": p80},
        "attempted": len(tickets), "failed": len(bad),
        "errors": [f"request {i}: {msg}" for i, msg in sorted(bad.items())],
        "linear_iterations": sum(r.total_linear_iterations for r in reports),
        "steps": sum(r.num_steps for r in reports),
        "service": layer,
        "meta": {"requests": len(tickets),
                 "setup_samples_s": setups,
                 "mix": {k: kinds.count(k) for k in sorted(set(kinds))},
                 "samples_beyond_p80": sum(v > p80 for v in lat),
                 "window_s": out["window_s"],
                 "mesh_hashes": sorted({mesh_hash(r.problem.mesh)
                                        for r in reqs if r.kind == "cold"})}}
