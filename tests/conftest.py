import numpy as np
import pytest

from cesnet import montecarlo
from cesnet.economy import Economy


def random_economy(seed, n, gamma=None, a0_range=(0.2, 0.6)):
    """Random valid economy: positive coefficients, exact adding-up.

    gamma may be a scalar (uniform elasticity), an array, or None for
    sector-specific draws in [-1, 1.5].
    """
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(*a0_range, n)
    w = rng.uniform(0.1, 1.0, (n, n))
    A = (1.0 - a0) * w / w.sum(axis=0)
    if gamma is None:
        gamma = rng.uniform(-1.0, 1.5, n)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,)).copy()
    labels = tuple(f"s{i}" for i in range(n))
    return Economy(labels=labels, A=A, a0=a0, gamma=gamma)


def two_sector(gamma):
    """The two-sector economy of the CLI tests, at the given gamma."""
    return Economy(
        labels=("u", "v"),
        A=[[0.2, 0.3], [0.3, 0.2]],
        a0=[0.5, 0.5],
        gamma=np.broadcast_to(gamma, (2,)).copy(),
    )


def random_shares(seed, n):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.0, n)
    return mu / mu.sum()


@pytest.fixture
def econ4():
    return random_economy(0, 4)


@pytest.fixture
def force_pool(monkeypatch):
    """Drop the work floor, so that a multi-worker run of any size splits
    into several blocks and solves them on a thread pool."""
    monkeypatch.setattr(montecarlo, "MIN_BLOCK_FLOATS", 1)


def pytest_runtest_logreport(report):
    """Print one verdict line per acceptance criterion as it finishes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion"):
        return
    verdict = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
        report.outcome, report.outcome.upper()
    )
    print(f"\n[{verdict}] {name}", flush=True)
