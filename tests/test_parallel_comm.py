"""Transport-agnostic communicator: seq is the oracle, every transport
must match it bitwise.

The seq transport is the historical in-process rank replay; the proc
transport (and its seq == proc bitwise oracles) is covered
exhaustively by test_parallel_procpool; here the focus is (a) the
resolve rules, (b) the exchange guard off the in-process transport,
and (c) the layout-level gather cache and the abstract primitives.
"""

import numpy as np
import pytest

from repro.euler import wing_problem
from repro.parallel import GhostExchange, SPMDLayout, distributed_matvec
from repro.parallel.comm import (Communicator, ProcCommunicator,
                                 SeqCommunicator, resolve_communicator)
from repro.parallel.spmd import gather_structs
from repro.partition import kway_partition


@pytest.fixture(scope="module")
def setup():
    prob = wing_problem(7, 5, 4)
    labels = kway_partition(prob.mesh.vertex_graph(), 4, seed=0)
    layout = SPMDLayout.build(prob.mesh.edges, labels)
    rng = np.random.default_rng(0)
    q = prob.initial.flat() + 0.05 * rng.standard_normal(
        prob.disc.num_unknowns)
    return prob, labels, layout, q


class TestResolve:
    def test_seq_default(self, setup):
        _, _, layout, _ = setup
        assert isinstance(resolve_communicator(layout, None),
                          SeqCommunicator)
        assert isinstance(resolve_communicator(layout, "seq"),
                          SeqCommunicator)

    def test_proc_requires_attached_pool(self, setup):
        _, _, layout, _ = setup
        assert layout.pool is None
        with pytest.raises(ValueError, match="worker pool"):
            resolve_communicator(layout, "proc")

    def test_unknown_executor_rejected(self, setup):
        _, _, layout, _ = setup
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_communicator(layout, "mpi")

    def test_instance_passthrough(self, setup):
        _, _, layout, _ = setup
        comm = SeqCommunicator(layout)
        assert resolve_communicator(layout, comm) is comm

    def test_pool_instance_wrapped(self, setup):
        prob, _, layout, _ = setup
        from repro.parallel.procpool import ProcPool
        pool = ProcPool(layout, prob.disc, nworkers=2)
        try:
            comm = resolve_communicator(layout, pool)
            assert isinstance(comm, ProcCommunicator)
            assert comm.pool is pool
        finally:
            pool.close()
            layout.pool = None


class TestExchangeGuard:
    def test_refresh_refused_off_seq(self, setup):
        _, _, layout, _ = setup
        ex = GhostExchange(layout, 4, executor="proc")
        with pytest.raises(RuntimeError, match="in-process exchange"):
            ex.refresh([])


class TestGatherCache:
    def test_cache_hit_on_identity(self, setup):
        prob, _, layout, q = setup
        layout.gather_cache.clear()
        jac = prob.disc.shifted_jacobian(q, 10.0)
        rd = layout.ranks[0]
        s1 = gather_structs(jac, layout, rd)
        s2 = gather_structs(jac, layout, rd)
        assert s1 is s2

    def test_cache_hit_on_equal_pattern(self, setup):
        """A numerically-different matrix with the same sparsity reuses
        the structs (the jittered-mesh warm path)."""
        prob, _, layout, q = setup
        layout.gather_cache.clear()
        jac1 = prob.disc.shifted_jacobian(q, 10.0)
        jac2 = prob.disc.shifted_jacobian(q + 0.01, 5.0)
        # force distinct pattern objects (the discretization may share
        # them) so the equality fallback, not identity, is what hits
        jac2.indptr = jac2.indptr.copy()
        jac2.indices = jac2.indices.copy()
        assert jac1.indptr is not jac2.indptr
        rd = layout.ranks[0]
        s1 = gather_structs(jac1, layout, rd)
        s2 = gather_structs(jac2, layout, rd)
        assert s1 is s2

    def test_cached_matvec_matches_uncached(self, setup):
        prob, _, layout, q = setup
        layout.gather_cache.clear()
        jac = prob.disc.shifted_jacobian(q, 10.0)
        y1 = distributed_matvec(jac, layout, q)     # cold: fills cache
        y2 = distributed_matvec(jac, layout, q)     # warm: cache hit
        assert np.array_equal(y1, y2)

    def test_base_class_primitives_abstract(self, setup):
        _, _, layout, _ = setup
        comm = Communicator(layout)
        with pytest.raises(NotImplementedError):
            comm.scatter(np.zeros(4), 1)
