"""Solver telemetry: measured phase times, counters, and efficiency.

The observability layer of the ΨNKS stack.  Where
:mod:`repro.parallel` *models* where parallel time goes, this package
*measures* it from instrumented executions — the distinction the
paper's Table 3 lives on (its efficiency factorisation
``eta_overall = eta_alg x eta_impl`` is computed from measured
iteration counts and measured phase times):

* :mod:`repro.telemetry.recorder` — :class:`TraceRecorder` (nestable
  phase spans, per-rank counters, max-over-ranks wait accounting) and
  the :data:`NULL_RECORDER` no-op default every hook substitutes;
* :mod:`repro.telemetry.trace` — the JSON trace document (schema
  validation, atomic writes, CI-diffable like ``BENCH_kernels.json``);
* :mod:`repro.telemetry.report` — the measured efficiency
  decomposition (measured Table 3 records one real solve per
  processor count, :func:`repro.experiments.run_table3_measured`).

Instrumentation hooks live at the call sites —
:class:`repro.core.driver.NKSSolver`, the Krylov solvers, the Schwarz
preconditioner, and the SPMD kernels all take ``recorder=``.
"""

from repro.telemetry.recorder import (KNOWN_PHASES, NULL_RECORDER,
                                      NullRecorder, TraceRecorder)
from repro.telemetry.report import (SPMD_PHASES, MeasuredRow,
                                    measured_rows, measured_wall)
from repro.telemetry.trace import (TRACE_SCHEMA_VERSION, load_trace,
                                   validate_trace, write_trace)

__all__ = [
    "KNOWN_PHASES",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TRACE_SCHEMA_VERSION",
    "validate_trace",
    "write_trace",
    "load_trace",
    "SPMD_PHASES",
    "MeasuredRow",
    "measured_rows",
    "measured_wall",
]
