"""Random test states shared by the test modules."""

import numpy as np

from obflow.model import FlowState
from obflow.spectral import (
    SpectralField,
    TensorField,
    VectorField,
    dealias,
    leray_project,
)


def random_state(grid, seed, scale=1.0, project=True):
    """Dealiased random state; u divergence-free unless project=False."""
    rng = np.random.default_rng(seed)
    u = VectorField(grid, np.stack([
        SpectralField.from_physical(
            grid, scale * rng.standard_normal(grid.shape)).comps
        for _ in range(grid.d)]))
    u = dealias(u)
    if project:
        u = leray_project(u)
    tau = TensorField.zeros(grid)
    for i in range(tau.comps.shape[0]):
        tau.comps[i] = SpectralField.from_physical(
            grid, scale * rng.standard_normal(grid.shape)).comps
    tau = dealias(tau)
    return FlowState(u, tau)
