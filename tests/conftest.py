"""Shared fixtures: small meshes and graphs reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import unit_cube_mesh, wing_mesh, compute_dual_metrics


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_mesh():
    """64 vertices — cheapest valid 3-D mesh for unit tests."""
    return unit_cube_mesh(4)


@pytest.fixture(scope="session")
def small_mesh():
    """216 vertices, jittered so nothing is accidentally symmetric."""
    return unit_cube_mesh(6, jitter=0.25, seed=7)


@pytest.fixture(scope="session")
def medium_mesh():
    """1000 vertices — for partitioners and ordering statistics."""
    return unit_cube_mesh(10, jitter=0.2, seed=3)


@pytest.fixture(scope="session")
def small_wing_mesh():
    return wing_mesh(7, 5, 4, seed=1)


@pytest.fixture(scope="session")
def small_dual(small_mesh):
    return compute_dual_metrics(small_mesh)


@pytest.fixture(scope="session")
def small_graph(small_mesh):
    return small_mesh.vertex_graph()


@pytest.fixture(scope="session")
def medium_graph(medium_mesh):
    return medium_mesh.vertex_graph()


@pytest.fixture(scope="session")
def wing_jacobian():
    """Tiny perturbed wing: shifted block Jacobian plus probe vectors
    ``x`` (for A x) and ``b`` (for factor solves)."""
    from repro.euler import wing_problem

    prob = wing_problem(7, 5, 4)
    rng = np.random.default_rng(3)
    q = prob.initial.flat() + 0.02 * rng.standard_normal(
        prob.disc.num_unknowns)
    jac = prob.disc.shifted_jacobian(q, cfl=10.0)
    x = rng.standard_normal(jac.shape[1])
    b = rng.standard_normal(jac.shape[0])
    return jac, x, b
