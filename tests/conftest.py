"""Shared fixtures."""

import numpy as np
import pytest

from minreal import nets


@pytest.fixture
def float64_graph(monkeypatch):
    """Mlp.forward and its backward in float64, for the tests that hold the
    losses and gradients to float64 oracles (straight-line reimplementations
    and finite differences) at float64 tolerances. Each has a float32 twin
    that holds the default float32 graph to the same oracle."""
    monkeypatch.setattr(nets, "GRAPH_DTYPE", np.float64)
