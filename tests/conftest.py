"""Shared fixtures for the spectrum-matching test suite."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import repro.core.soa as soa
import repro.interference.mwis as mwis
from repro.workloads.scenarios import (
    counterexample_market,
    paper_simulation_market,
    toy_example_market,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for individual tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def toy_market():
    """The paper's Fig. 1-3 toy example."""
    return toy_example_market()


@pytest.fixture
def ce_market():
    """The Section III-D counterexample instance."""
    return counterexample_market()


@pytest.fixture
def market_factory():
    """Factory producing seeded paper-workload markets on demand."""

    def make(num_buyers: int = 10, num_channels: int = 4, seed: int = 0, **kwargs):
        return paper_simulation_market(
            num_buyers, num_channels, np.random.default_rng(seed), **kwargs
        )

    return make


@contextmanager
def set_based_oracle():
    """Run everything inside the block on the set-based reference paths.

    Stage I takes the per-seller loop instead of the batched SoA path, and
    every GWMIN/GWMIN2 solve runs the set-based loops instead of the
    bitmask kernels.  The differential suites compare the default path
    against this oracle; production code has no way to select it.
    """
    with mock.patch.object(soa, "BATCHED_ALGORITHMS", ()), mock.patch.dict(
        mwis._DISPATCH,
        {
            mwis.MwisAlgorithm.GWMIN: mwis._reference_gwmin,
            mwis.MwisAlgorithm.GWMIN2: mwis._reference_gwmin2,
        },
    ):
        yield
