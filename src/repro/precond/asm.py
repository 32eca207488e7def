"""(Restricted) Additive Schwarz preconditioner with ILU(k) subdomains.

The preconditioner of the paper's Table 4:

    M^{-1} = sum_s  R_s^T  (A_s)^{-1}  R_s        (standard ASM)
    M^{-1} = sum_s  R~_s^T (A_s)^{-1}  R_s        (restricted, RASM)

where ``R_s`` restricts to subdomain s *with* overlap, ``R~_s``
prolongates only the owned (zero-overlap) rows, and ``A_s^{-1}`` is
approximated by ILU(k) on the overlapped submatrix.  RASM [Cai &
Sarkis] needs one communication phase per application instead of two
and usually converges slightly faster — it is what PETSc-FUN3D ran.

With ``overlap=0`` both variants reduce to block Jacobi.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.graph.adjacency import Graph, graph_from_csr
from repro.graph.traversal import expand_overlap
from repro.precond.subdomain import SubdomainSolver
from repro.sparse.bsr import BSRMatrix
from repro.sparse.csr import CSRMatrix
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["ASMVariant", "ASMConfig", "AdditiveSchwarz"]


class ASMVariant(str, Enum):
    STANDARD = "asm"
    RESTRICTED = "rasm"


@dataclass
class ASMConfig:
    overlap: int = 0
    fill_level: int = 0
    variant: ASMVariant = ASMVariant.RESTRICTED
    storage_dtype: type = np.float64
    engine: str = "numpy"   # kernel tier for the subdomain trisolves
    threads: int = 1        # intra-rank team size for the trisolves

    def __post_init__(self) -> None:
        if self.overlap < 0:
            raise ValueError("overlap must be >= 0")
        if self.fill_level < 0:
            raise ValueError("fill_level must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        self.variant = ASMVariant(self.variant)


class AdditiveSchwarz:
    """ASM/RASM preconditioner over a given (block-)row partition.

    Parameters
    ----------
    labels:
        Partition label per (block) row, values in ``0..nparts-1``;
        this is the output of :mod:`repro.partition`.
    config:
        Overlap / fill / variant / factor-storage-precision knobs.
    graph:
        Adjacency graph used to grow the overlap.  If omitted it is
        derived from the matrix sparsity at setup time (identical for
        our stencil matrices, but passing the mesh graph avoids the
        recomputation).
    recorder:
        Optional :class:`repro.telemetry.TraceRecorder`.  ``setup``
        records a ``precond_setup`` span; every ``solve`` records one
        ``trisolve`` span per subdomain (rank = subdomain index) plus
        the max-over-subdomains wait, so the load imbalance of the
        per-rank triangular solves is observed directly.
    """

    def __init__(self, labels: np.ndarray, config: ASMConfig | None = None,
                 graph: Graph | None = None,
                 recorder=NULL_RECORDER) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config or ASMConfig()
        self._graph = graph
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.subdomains: list[SubdomainSolver] = []
        self._bs = 1
        self._n = self.labels.size

    # -- setup ----------------------------------------------------------
    def setup(self, a: CSRMatrix | BSRMatrix) -> "AdditiveSchwarz":
        """Extract and factor every (overlapped) subdomain of ``a``.

        Calling ``setup`` again on the same instance assumes ``a`` has
        the sparsity of the previous matrix (the Newton-refresh case):
        the partition, overlap expansion, and symbolic ILU are reused
        and only the numeric factorisation is redone.
        """
        with self.recorder.span("precond_setup"):
            if isinstance(a, BSRMatrix):
                nbrows = a.nbrows
                self._bs = a.bs
            else:
                nbrows = a.nrows
                self._bs = 1
            if nbrows != self._n:
                raise ValueError("label count does not match matrix rows")
            if self.subdomains:
                # Refresh path (same sparsity, new Jacobian values): keep
                # the subdomain index sets and symbolic ILU patterns — and
                # with them the compiled elimination schedules — and redo
                # only the numeric factorisation.
                self.subdomains = [sd.refactor(a) for sd in self.subdomains]
                return self
            graph = self._graph
            if graph is None:
                graph = graph_from_csr(a.indptr, a.indices)
                self._graph = graph
            nparts = int(self.labels.max()) + 1 if self.labels.size else 0
            self.subdomains = []
            for s in range(nparts):
                core = np.where(self.labels == s)[0]
                if core.size == 0:
                    continue
                rows = expand_overlap(graph, core, self.config.overlap)
                owned = np.isin(rows, core, assume_unique=True)
                self.subdomains.append(SubdomainSolver.build(
                    a, rows, owned, self.config.fill_level,
                    storage_dtype=self.config.storage_dtype,
                    engine=self.config.engine,
                    threads=self.config.threads))
        return self

    # -- application ----------------------------------------------------
    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply M^{-1} r."""
        if not self.subdomains:
            raise RuntimeError("setup() has not been called")
        bs = self._bs
        rec = self.recorder
        rb = np.asarray(r, dtype=np.float64).reshape(self._n, bs)
        zb = np.zeros_like(rb)
        restricted = self.config.variant is ASMVariant.RESTRICTED
        per_rank_s = [0.0] * len(self.subdomains)
        for s, sd in enumerate(self.subdomains):
            # Subdomain index = would-be MPI rank: per-subdomain spans
            # expose the triangular-solve load imbalance.
            with rec.span("trisolve", rank=s) as sp:
                local = sd.local_solve(rb[sd.rows].ravel()).reshape(-1, bs)
                if restricted:
                    zb[sd.rows[sd.owned]] += local[sd.owned]
                else:
                    # sd.rows is sorted unique, so a plain fancy-indexed
                    # add is exact (and much faster than np.add.at).
                    zb[sd.rows] += local
            per_rank_s[s] = sp.elapsed
        rec.record_wait("trisolve", per_rank_s)
        return zb.ravel()

    # -- accounting ------------------------------------------------------
    @property
    def num_subdomains(self) -> int:
        return len(self.subdomains)

    def overlap_fraction(self) -> float:
        """Mean fraction of each subdomain's rows that are ghost rows —
        the extra memory/compute and the matrix-element communication
        cost the paper lists for ASM (items 2-3 in Sec. 2.4.3)."""
        if not self.subdomains:
            return 0.0
        return float(np.mean([sd.num_ghost / max(sd.num_rows, 1)
                              for sd in self.subdomains]))

    def total_factor_nnz(self) -> int:
        return sum(sd.factor_nnz for sd in self.subdomains)

    def ghost_rows_total(self) -> int:
        return sum(sd.num_ghost for sd in self.subdomains)

    def communication_phases(self) -> int:
        """Vector communication phases per application: RASM gathers the
        overlapped residual only (1 phase); standard ASM also scatters
        the overlapped solution back (2 phases)."""
        return 1 if self.config.variant is ASMVariant.RESTRICTED else 2
