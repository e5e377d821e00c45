"""Shared test helpers: finite-difference checking and tiny fixture datasets."""

import numpy as np
import pytest

from gbsr import autodiff as ad
from gbsr.data import Dataset


def central_diff(f, x, h=1e-6):
    """Gradient of scalar f() w.r.t. array x, mutating x in place per entry."""
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = f()
        flat[k] = orig - h
        fm = f()
        flat[k] = orig
        gflat[k] = (fp - fm) / (2.0 * h)
    return grad


# social pairs for the all-pair kernels' block-edge tests: user 0's pairs
# straddle the edges of blocks of 1, 2 and 3 pairs, and inside one block of 2
# or 3 a user repeats as first user (0, 2) and another as second user (3)
STRADDLE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)]


# two tape ops that only the reference chains of the fused ops need
def inv_sqrt(t):
    """t ** -0.5, elementwise."""
    return ad._make(np.power(t.data, -0.5), (t,),
                    lambda g: (g * -0.5 * np.power(t.data, -1.5),))


def transpose(t):
    """The transpose of a 2-D tensor."""
    return ad._make(t.data.T, (t,), lambda g: (g.T,))


def rel_err(a, b, guard=1e-6):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), guard)


# Release-criterion status lines collected by test_acceptance; relayed in the
# terminal summary so they stay visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def tiny_dataset():
    """3 users, 3 items; every user keeps at least one non-train item."""
    return Dataset(3, 3,
                   train=[(0, 0), (0, 1), (1, 1), (2, 0)],
                   test=[(1, 0)],
                   social=[(0, 1), (1, 2)])


@pytest.fixture
def small_synthetic():
    from gbsr.data import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(cluster_count=2, users_per_cluster=12,
                         items_per_cluster=10, interaction_rate=0.4,
                         intra_social_rate=0.3, noise_edge_fraction=0.5,
                         seed=11)
    return generate_synthetic(spec)
