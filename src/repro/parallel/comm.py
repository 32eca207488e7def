"""Transport-agnostic communicator behind the SPMD kernels.

The distributed kernels in :mod:`repro.parallel.spmd` used to branch on
an ``executor`` string ("seq" runs the rank loop in-process, "proc"
resolves to the attached :class:`~repro.parallel.procpool.ProcPool`).
This module lifts that branch into one reduce/scatter/gather interface
— the ``SimpleComm``/``SimpleCommMPI`` swap idiom from PyCECT — so the
kernels are written once against :class:`Communicator` and a transport
is chosen by object, not by ``if``:

* :class:`SeqCommunicator` — the in-process rank replay (the bitwise
  oracle; byte-for-byte the code that used to live inline in
  ``distributed_residual``/``distributed_matvec``);
* :class:`ProcCommunicator` — the shared-memory worker pool; the
  composite collectives are overridden wholesale because the pool runs
  scatter + exchange + compute as one fused GO/DONE round.

Primitive contract (coordinator-centric)
----------------------------------------
``scatter(vec, ncomp)`` distributes owned rows and returns an opaque
state handle; ``exchange(state, ex)`` refreshes every rank's ghost
tail (``ex`` books messages/bytes); ``local(state, r)`` yields rank
``r``'s full local array (owned + refreshed ghosts) for the rank
kernels; ``reduce(partials)`` is the deterministic pairwise tree sum
(:func:`~repro.parallel.spmd.tree_reduce_sum`).  The composite
collectives (``residual``/``matvec``/``dot_partials``) are implemented
once in the base class on top of these primitives, so any transport
that implements the four primitives gets bitwise-identical collectives
for free — values are exact copies end to end and the compute is the
shared rank kernels.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["Communicator", "SeqCommunicator", "ProcCommunicator",
           "resolve_communicator"]


class Communicator:
    """One reduce/scatter/gather interface over a fixed SPMD layout.

    Subclasses provide the transport primitives; the composite
    collectives below compose them exactly the way the sequential
    executor always has, so results are bitwise-identical across
    transports by construction (pure copies + shared kernels + fixed
    reduction order).
    """

    #: transport name; also the ``GhostExchange`` accounting mode
    name = "abstract"

    def __init__(self, layout) -> None:
        self.layout = layout

    # -- primitives (transport-specific) --------------------------------
    def scatter(self, vec: np.ndarray, ncomp: int):
        """Distribute owned rows; returns an opaque per-rank state."""
        raise NotImplementedError

    def exchange(self, state, ex) -> None:
        """Refresh every rank's ghost tail from the owners; ``ex`` (a
        :class:`~repro.parallel.spmd.GhostExchange`) books the
        messages/bytes of the refresh."""
        raise NotImplementedError

    def local(self, state, r: int) -> np.ndarray:
        """Rank ``r``'s local array (owned rows + refreshed ghosts)."""
        raise NotImplementedError

    def reduce(self, partials) -> float:
        """Deterministic allreduce of per-rank float64 partials."""
        from repro.parallel.spmd import tree_reduce_sum
        return tree_reduce_sum(partials)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "Communicator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- composite collectives (shared across transports) ----------------
    def residual(self, disc, qglobal: np.ndarray, ex, *,
                 recorder=NULL_RECORDER,
                 threads: int = 1) -> np.ndarray:
        """First-order residual: scatter, exchange, per-rank flux
        kernels, owned rows gathered into the global vector."""
        from repro.parallel.spmd import rank_residual

        layout = self.layout
        ncomp = disc.ncomp
        state = self.scatter(qglobal, ncomp)
        self.exchange(state, ex)
        out = np.zeros((disc.mesh.num_vertices, ncomp),
                       dtype=qglobal.dtype)
        per_rank_s = [0.0] * layout.nranks
        # lint: loop-ok (rank loop of the SPMD residual, O(nranks))
        for rd in layout.ranks:
            with recorder.span("flux", rank=rd.rank) as sp:
                r_local = rank_residual(disc, rd, self.local(state, rd.rank),
                                        out.dtype, threads=threads)
                out[rd.owned] = r_local[: rd.n_owned]
            per_rank_s[rd.rank] = sp.elapsed
        recorder.record_wait("flux", per_rank_s)
        return out.ravel()

    def matvec(self, a, xglobal: np.ndarray, ex, *,
               recorder=NULL_RECORDER,
               threads: int = 1) -> np.ndarray:
        """Distributed y = A x over the transport's exchanged locals."""
        from repro.parallel.spmd import gather_structs, rank_matvec

        layout = self.layout
        bs = a.bs
        state = self.scatter(xglobal, bs)
        self.exchange(state, ex)
        y = np.zeros((a.nbrows, bs), dtype=xglobal.dtype)
        per_rank_s = [0.0] * layout.nranks
        # lint: loop-ok (rank loop of the SPMD matvec, O(nranks))
        for rd in layout.ranks:
            with recorder.span("matvec", rank=rd.rank) as sp:
                # All owned block rows as one flat batch: gather the
                # block entries of every row, block-gemv them,
                # segment-sum per row.  The gather structure depends
                # only on (pattern, layout), so it is served from the
                # layout-level cache across calls.
                flat, cols, seg = gather_structs(a, layout, rd)
                y[rd.owned] = rank_matvec(a.data[flat], cols, seg,
                                          self.local(state, rd.rank),
                                          rd.owned.size, engine=a.engine,
                                          threads=threads)
            per_rank_s[rd.rank] = sp.elapsed
        recorder.record_wait("matvec", per_rank_s)
        return y.ravel()

    def dot_partials(self, xglobal: np.ndarray, yglobal: np.ndarray,
                     ncomp: int) -> list[float]:
        """Per-rank float64 partial sums over owned rows (caller owns
        the reduction order — see :meth:`reduce`)."""
        x = xglobal.reshape(-1, ncomp)
        y = yglobal.reshape(-1, ncomp)
        return [float(np.sum(x[rd.owned] * y[rd.owned]))
                for rd in self.layout.ranks]


class SeqCommunicator(Communicator):
    """In-process transport: the rank-by-rank replay (the oracle).

    ``scatter`` builds the per-rank local arrays, ``exchange`` is the
    pairwise in-process copy loop of
    :meth:`~repro.parallel.spmd.GhostExchange.refresh`, ``local`` is
    list indexing.  This is the exact code path the executor="seq"
    branch always ran, expressed through the primitives.
    """

    name = "seq"

    def scatter(self, vec: np.ndarray, ncomp: int):
        from repro.parallel.spmd import _scatter_local_state
        return _scatter_local_state(self.layout, vec, ncomp)

    def exchange(self, state, ex) -> None:
        ex.refresh(state)

    def local(self, state, r: int) -> np.ndarray:
        return state[r]


class ProcCommunicator(Communicator):
    """Shared-memory worker-pool transport.

    The pool runs scatter + exchange + compute as one fused GO/DONE
    round inside the forked workers, so the composite collectives are
    overridden to delegate; the primitives are intentionally
    unreachable (using them piecewise would split the pool's protocol).
    """

    name = "proc"

    def __init__(self, layout, pool) -> None:
        super().__init__(layout)
        self.pool = pool

    def residual(self, disc, qglobal, ex, *, recorder=NULL_RECORDER,
                 threads: int = 1) -> np.ndarray:
        return self.pool.residual(qglobal, exchange=ex, recorder=recorder,
                                  threads=threads)

    def matvec(self, a, xglobal, ex, *, recorder=NULL_RECORDER,
               threads: int = 1) -> np.ndarray:
        return self.pool.matvec(a, xglobal, exchange=ex, recorder=recorder,
                                threads=threads)

    def dot_partials(self, xglobal, yglobal, ncomp) -> list[float]:
        return list(self.pool.dot_partials(xglobal, yglobal))

    def close(self) -> None:
        self.pool.close()


def resolve_communicator(layout, executor):
    """Map the ``executor`` knob to a :class:`Communicator`.

    ``None``/"seq" build a :class:`SeqCommunicator`; "proc" wraps the
    pool attached to the layout (raising with the historical message
    when none is); a :class:`~repro.parallel.procpool.ProcPool`
    instance is wrapped directly; a :class:`Communicator` instance is
    returned as-is.
    """
    if isinstance(executor, Communicator):
        return executor
    if executor in (None, "seq"):
        return SeqCommunicator(layout)
    if executor == "proc" or not isinstance(executor, str):
        pool = layout.pool if executor == "proc" else executor
        if pool is None:
            raise ValueError(
                "executor='proc' needs a worker pool: create "
                "repro.parallel.ProcPool(layout, disc) (it attaches "
                "itself to layout.pool) or pass the pool as executor=")
        return ProcCommunicator(layout, pool)
    raise ValueError(f"unknown executor {executor!r} "
                     f"(expected 'seq', 'proc', or a "
                     f"ProcPool/Communicator)")
