"""Compiled kernel tier: an optional C backend behind the oracles.

The paper's hot paths — triangular solves, flux-residual scatter,
SpMV, Jacobian-assembly scatter — are memory-bound kernels whose
numpy formulations pay for gather/scatter index arrays and multi-pass
temporaries.  This package provides compiled twins (a cffi-compiled C
library) selected by the ``engine="compiled"`` knob that
:class:`repro.core.SolverConfig` threads through the discretisation,
preconditioners, and SPMD executors, exactly like
``memory.fastsim``'s ``engine=``.

Contract:

* the numpy implementation is always retained and is the oracle —
  scatter/CSR kernels match it **bitwise**, block kernels within a
  few **ULP** (``np.einsum`` uses SIMD pairwise summation the
  compiled loops do not replicate portably);
* no hard dependency: a missing compiler/cffi degrades every
  dispatch below to the numpy path (the functions return ``None`` /
  ``False`` and the caller runs its oracle);
* ``REPRO_KERNELS_DISABLE=1`` forces the numpy path globally.

Every dispatcher takes the *engine knob* (``"numpy"``/``"compiled"``)
and resolves it per call through :mod:`repro.kernels.capability`, so
tests can monkeypatch the capability layer to fake a bare machine.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import capability
from repro.kernels.capability import resolve_engine

__all__ = ["backend_for", "resolve_engine", "edge_scatter2", "spmv_csr",
           "spmv_bsr", "gather_spmv_bsr", "lower_solve_csr",
           "upper_solve_csr", "lower_solve_bsr", "upper_solve_bsr",
           "assemble_scatter", "levels_order", "rusanov_scatter"]

#: Block-size cap of the compiled BSR kernels (C stack buffers).
MAX_BS = 32

_BACKENDS: dict[str, object] = {}


def backend_for(engine: str):
    """The backend instance serving ``engine``, or None for numpy."""
    name = capability.resolve_engine(engine)
    if name == "numpy":
        return None
    backend = _BACKENDS.get(name)
    if backend is None:
        from repro.kernels.cbackend import load_cbackend
        backend = load_cbackend()
        if backend is None:
            # The C build failed: quarantine it, then re-resolve (to
            # numpy).  load_cbackend records its own exception.
            capability.mark_unavailable(name)
            return backend_for(engine)
        # lint: purity-ok (per-process backend memo: a forked worker must build its own cffi handles)
        _BACKENDS[name] = backend
    return backend


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------

def _f64(a: np.ndarray) -> np.ndarray | None:
    if a.dtype != np.float64:
        return None
    return np.ascontiguousarray(a)


def _factor(a: np.ndarray) -> np.ndarray | None:
    """Factor storage: float64 or float32 (Table 2's precision knob)."""
    if a.dtype not in (np.float64, np.float32):
        return None
    return np.ascontiguousarray(a)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


# Concatenated-level solve orders, memoised by list identity (ILU
# factors reuse the same schedule lists every Jacobian refresh).
_ORDER_MEMO: dict[int, tuple[object, np.ndarray]] = {}
_ORDER_MEMO_MAX = 64


def levels_order(levels: list[np.ndarray]) -> np.ndarray:
    """Rows of a level schedule concatenated into one topological order."""
    key = id(levels)
    hit = _ORDER_MEMO.get(key)
    if hit is not None and hit[0] is levels:
        return hit[1]
    order = (np.concatenate(levels).astype(np.int64, copy=False)
             if levels else np.empty(0, dtype=np.int64))
    if len(_ORDER_MEMO) >= _ORDER_MEMO_MAX:
        _ORDER_MEMO.pop(next(iter(_ORDER_MEMO)))
    _ORDER_MEMO[key] = (levels, order)
    return order


# ----------------------------------------------------------------------
# dispatchers — None/False means "run the numpy oracle instead"
# ----------------------------------------------------------------------

def edge_scatter2(e0, e1, wa, wb, n, engine):
    """Fused pair of edge scatters: ``(sum_{e0==i} wa, sum_{e1==i} wb)``.

    Bitwise equal to the ``segment_sum`` pair it replaces; the caller
    combines the two accumulators (residual: a - b, timestep: a + b).
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    wa = _f64(np.asarray(wa))
    wb = _f64(np.asarray(wb))
    if wa is None or wb is None or wa.shape != wb.shape:
        return None
    return backend.edge_scatter2(_i64(e0), _i64(e1), wa, wb, int(n))


def spmv_csr(indptr, indices, data, x, engine, rows=None):
    """Scalar CSR SpMV (full or row subset); bitwise vs the oracle."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _f64(np.asarray(x))
    if data is None or x is None:
        return None
    if rows is None:
        return backend.spmv_csr(_i64(indptr), _i64(indices), data, x)
    return backend.spmv_csr_rows(_i64(indptr), _i64(indices), data, x,
                                 _i64(rows))


def spmv_bsr(indptr, indices, data, x, nbrows, engine):
    """Block SpMV; ULP-bounded vs the einsum/segment-sum oracle."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data = _f64(np.asarray(data))
    x = _f64(np.asarray(x))
    if data is None or x is None or data.shape[1] > MAX_BS:
        return None
    return backend.spmv_bsr(_i64(indptr), _i64(indices), data, x,
                            int(nbrows))


def gather_spmv_bsr(data_blocks, cols, seg, x, n_owned, engine):
    """The SPMD rank SpMV on pre-gathered block rows; ULP-bounded."""
    backend = backend_for(engine)
    if backend is None:
        return None
    data_blocks = _f64(np.asarray(data_blocks))
    x = _f64(np.asarray(x))
    if data_blocks is None or x is None or data_blocks.shape[1] > MAX_BS:
        return None
    return backend.gather_spmv_bsr(data_blocks, _i64(cols), _i64(seg), x,
                                   int(n_owned))


def lower_solve_csr(indptr, indices, data, x, levels, engine) -> bool:
    """In-place unit-lower solve on float64 ``x``; bitwise vs oracle.

    Returns True when the compiled path ran (``x`` now holds the
    solution), False when the caller must run the numpy levels loop.
    """
    backend = backend_for(engine)
    if backend is None:
        return False
    data = _factor(np.asarray(data))
    if data is None:
        return False
    backend.lower_solve_csr(_i64(indptr), _i64(indices), data, x,
                            levels_order(levels))
    return True


def upper_solve_csr(indptr, indices, data, inv_diag, x, levels,
                    engine) -> bool:
    """In-place upper solve (reciprocal diagonal); bitwise vs oracle."""
    backend = backend_for(engine)
    if backend is None:
        return False
    data = _factor(np.asarray(data))
    inv_diag = _factor(np.asarray(inv_diag))
    if data is None or inv_diag is None or data.dtype != inv_diag.dtype:
        return False
    backend.upper_solve_csr(_i64(indptr), _i64(indices), data, inv_diag,
                            x, levels_order(levels))
    return True


def lower_solve_bsr(indptr, indices, data, x, levels, bs, engine) -> bool:
    """In-place block lower solve; ULP-bounded vs the einsum oracle."""
    backend = backend_for(engine)
    if backend is None or bs > MAX_BS:
        return False
    data = _factor(np.asarray(data))
    if data is None:
        return False
    backend.lower_solve_bsr(_i64(indptr), _i64(indices), data, x,
                            levels_order(levels), int(bs))
    return True


def upper_solve_bsr(indptr, indices, data, inv_diag, x, levels, bs,
                    engine) -> bool:
    """In-place block upper solve; ULP-bounded vs the einsum oracle."""
    backend = backend_for(engine)
    if backend is None or bs > MAX_BS:
        return False
    data = _factor(np.asarray(data))
    inv_diag = _factor(np.asarray(inv_diag))
    if data is None or inv_diag is None or data.dtype != inv_diag.dtype:
        return False
    backend.upper_solve_bsr(_i64(indptr), _i64(indices), data, inv_diag,
                            x, levels_order(levels), int(bs))
    return True


#: Flux families the fused Rusanov kernel compiles (model id, ncomp).
_RUSANOV_MODELS = {"incompressible": 4, "compressible": 5}


def rusanov_scatter(e0, e1, ql, qr, s, n, model, param, engine):
    """Fused Rusanov flux + two-target edge scatter.

    Computes ``F = (F(ql)+F(qr))/2 - lam/2 (qr-ql)`` for the named
    flux family (``param`` is beta for incompressible, gamma for
    compressible) and accumulates it into both endpoint accumulators
    in edge order — one pass, no flux temporary.  The scalar operation
    order mirrors :func:`repro.euler.fluxes.rusanov_flux`'s numpy
    expression, so the result is ULP-bounded against the oracle (the
    length-3 dot products may associate differently under SIMD).
    Returns ``(acc_a, acc_b)`` — the residual is ``acc_a - acc_b`` —
    or None for the numpy path.
    """
    backend = backend_for(engine)
    if backend is None:
        return None
    ncomp = _RUSANOV_MODELS.get(model)
    if ncomp is None:
        return None
    ql = _f64(np.asarray(ql))
    qr = _f64(np.asarray(qr))
    s = _f64(np.asarray(s))
    if ql is None or qr is None or s is None:
        return None
    if ql.shape != qr.shape or ql.ndim != 2 or ql.shape[1] != ncomp:
        return None
    if s.shape != (ql.shape[0], 3):
        return None
    return backend.rusanov_scatter(_i64(e0), _i64(e1), ql, qr, s,
                                   int(n), model, float(param))


def assemble_scatter(slots, src, sign, data, engine) -> bool:
    """``data[slots] = sign * src`` blockwise into the BSR data array;
    bitwise vs the fancy-indexed assignment (sign is +-1.0)."""
    backend = backend_for(engine)
    if backend is None:
        return False
    src = _f64(np.asarray(src))
    if src is None or data.dtype != np.float64:
        return False
    backend.scatter_blocks(_i64(slots), src, sign, data)
    return True
