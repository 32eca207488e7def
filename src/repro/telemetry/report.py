"""Measured efficiency: eta_overall = eta_alg x eta_impl from traces.

:mod:`repro.parallel.efficiency` factors efficiency from *modelled*
times; this module computes the identical decomposition from what an
instrumented run actually recorded:

* **eta_alg** from the recorded linear-iteration counts (its_ref /
  its_P) — convergence degradation as subdomains multiply;
* the run's wall time from the recorded per-phase, per-rank times:
  for each bulk-synchronous phase, own compute plus accumulated wait
  equals the per-instance max summed over instances, so
  ``wall(phase) = max_r (total_s + wait_s)`` and the run wall is the
  sum over the non-overlapping SPMD phases;
* **eta_impl** as the quotient eta_overall / eta_alg, so the paper's
  factorisation holds *exactly* (to rounding) by construction — the
  Table-3 acceptance identity.

The per-phase percentages (scatter, reductions, implicit-sync wait)
come straight from the same trace, giving a measured analogue of the
modelled Table 3 columns that :func:`repro.experiments.table3.run_table3`
produces.  A real GMRES solve does its reductions on the coordinator
inside ``orthogonalization``; SPMD ``distributed_dot`` calls book
``allreduce``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.recorder import TraceRecorder

__all__ = ["SPMD_PHASES", "MeasuredRow", "measured_wall", "measured_rows",
           "phase_decomposition"]

#: The non-overlapping phases of an instrumented solve; their walls sum
#: to the run's wall time.  ``krylov`` is an envelope span around
#: ``matvec``, ``trisolve`` and ``orthogonalization`` (GMRES's
#: coordinator-side reductions), so it does not belong here.
SPMD_PHASES = ("flux", "jacobian", "precond_setup", "trisolve", "matvec",
               "ghost_exchange", "allreduce", "orthogonalization")


@dataclass
class MeasuredRow:
    """One processor count's measured efficiency decomposition."""

    nprocs: int
    its: int
    time: float                  # measured wall seconds (sum of phase walls)
    speedup: float
    eta_overall: float
    eta_alg: float
    eta_impl: float
    phase_pct: dict = field(default_factory=dict)   # phase -> % of wall
    wait_pct: float = 0.0        # implicit-sync wait, % of wall
    mb_per_it: float = 0.0       # scatter payload per linear iteration
    messages: int = 0


def measured_wall(rec: TraceRecorder, phases=SPMD_PHASES) -> float:
    """Wall seconds of an instrumented run: sum of bulk-phase walls."""
    return sum(rec.phase_wall(p) for p in phases)


def phase_decomposition(rec: TraceRecorder, phases=SPMD_PHASES) -> dict:
    """Per-phase compute/wait split of an instrumented run.

    For every phase with recorded activity: summed-over-ranks compute
    seconds (inclusive span time), implicit-synchronisation wait
    seconds, the phase's wall seconds (``phase_wall``), call count,
    and the wait fraction ``wait / (compute + wait)`` — the scaling
    harness's Table-3-style wait decomposition, pulled straight from
    the merged worker telemetry shards.
    """
    out: dict[str, dict] = {}
    for ph in phases:
        total = rec.phase_seconds(ph)
        wait = rec.wait_seconds(ph)
        if total == 0.0 and wait == 0.0:
            continue
        out[ph] = {
            "total_s": total,
            "wait_s": wait,
            "wall_s": rec.phase_wall(ph),
            "calls": rec.phase_calls(ph),
            "wait_fraction": wait / (total + wait) if total + wait else 0.0,
        }
    return out


def measured_rows(runs: list[tuple[int, int, TraceRecorder]],
                  phases=SPMD_PHASES) -> list[MeasuredRow]:
    """Decompose efficiency from instrumented runs.

    ``runs`` holds (nprocs, recorded linear iterations, trace) tuples
    in any order; the smallest processor count is the reference, as in
    :func:`repro.parallel.efficiency.efficiency_decomposition` (reused
    here so measured and modelled rows share one definition).
    """
    from repro.parallel.efficiency import efficiency_decomposition

    runs = sorted(runs)
    eff = efficiency_decomposition(
        [(p, its, measured_wall(rec, phases)) for p, its, rec in runs])
    out = []
    for (p, its, rec), row in zip(runs, eff):
        wall = max(row.time, 1e-30)
        pct = {ph: 100.0 * rec.phase_wall(ph) / wall for ph in phases}
        wait = sum(rec.wait_seconds(ph) for ph in phases)
        nits = max(its, 1)
        out.append(MeasuredRow(
            nprocs=p, its=its, time=row.time, speedup=row.speedup,
            eta_overall=row.eta_overall, eta_alg=row.eta_alg,
            eta_impl=row.eta_impl, phase_pct=pct,
            wait_pct=100.0 * wait / (p * wall),
            mb_per_it=rec.counter("bytes") / nits / 1e6,
            messages=int(rec.counter("messages")),
        ))
    return out
