"""Deterministic parallel-execution simulation.

The paper's parallel numbers (Fig. 1-2, Tables 3-5) come from real
MPI runs on up to 3072 nodes.  We reproduce them with a two-part
substitution (see DESIGN.md):

* the *algorithmic* component — iteration counts versus subdomain
  count, partition quality effects — is **measured**, by really running
  the NKS solver with p preconditioner blocks;
* the *implementation* component — per-rank compute time, ghost-point
  scatters, global reductions, and the implicit-synchronisation waits
  caused by load imbalance — is **modelled**, from real partition data
  (owned/ghost volumes per rank) through the machines' alpha-beta
  network and STREAM parameters.

This mirrors the paper's own efficiency factorisation
eta_overall = eta_alg x eta_impl.
"""

from repro.parallel.scatter import GhostExchangePlan, build_exchange_plan
from repro.parallel.rankwork import RankWork, build_rank_work
from repro.parallel.netmodel import NetworkModel, network_from_machine
from repro.parallel.simulate import (
    StepTiming,
    ParallelTimeline,
    simulate_solve,
)
from repro.parallel.efficiency import EfficiencyRow, efficiency_decomposition
from repro.parallel.hybrid import hybrid_flux_times, HybridComparison
from repro.parallel.spmd import (
    SPMDLayout,
    GhostExchange,
    distributed_residual,
    distributed_matvec,
    distributed_dot,
    tree_reduce_sum,
)
from repro.parallel.procpool import ProcPool, ProcPoolError
from repro.parallel.comm import (
    Communicator,
    SeqCommunicator,
    ProcCommunicator,
    resolve_communicator,
)

__all__ = [
    "GhostExchangePlan",
    "build_exchange_plan",
    "RankWork",
    "build_rank_work",
    "NetworkModel",
    "network_from_machine",
    "StepTiming",
    "ParallelTimeline",
    "simulate_solve",
    "EfficiencyRow",
    "efficiency_decomposition",
    "hybrid_flux_times",
    "HybridComparison",
    "SPMDLayout",
    "GhostExchange",
    "distributed_residual",
    "distributed_matvec",
    "distributed_dot",
    "tree_reduce_sum",
    "ProcPool",
    "ProcPoolError",
    "Communicator",
    "SeqCommunicator",
    "ProcCommunicator",
    "resolve_communicator",
]
