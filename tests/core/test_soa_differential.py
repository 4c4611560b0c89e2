"""Differential suite: default Stage I vs the set-based oracle.

The struct-of-arrays batched path (:mod:`repro.core.soa`) promises
*byte-identical* Stage-I outcomes -- the same coalitions, the same
welfare bits, the same round/proposal counts -- as the set-based oracle
(:func:`tests.conftest.set_based_oracle`: the per-seller loop over the
set-based MWIS solvers).  These tests enforce that promise across seeds,
MWIS algorithms, both monotone-guard settings and both
:class:`~repro.core.soa.SellerPoolCache` layouts, with Hypothesis
exploring random geometric markets when it is installed (mirroring
``tests/interference/test_bitset_differential.py`` one layer down).
Each fingerprint also covers the whole two-stage pipeline run on the
same market: its matching and the welfare and round count of every stage.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.core.soa as soa
import repro.interference.mwis as mwis
from repro.core.deferred_acceptance import deferred_acceptance
from repro.core.two_stage import run_two_stage
from repro.interference.mwis import MwisAlgorithm
from repro.workloads.scenarios import paper_simulation_market
from tests.conftest import set_based_oracle

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False

ALGORITHMS = (
    MwisAlgorithm.GWMIN,
    MwisAlgorithm.GWMIN2,
    MwisAlgorithm.GWMAX,
)


def _fingerprint(market, monotone_guard: bool):
    """Everything Stage I and the two-stage pipeline produce, with
    floats as exact bit patterns."""
    result = deferred_acceptance(
        market, record_trace=True, monotone_guard=monotone_guard
    )
    two_stage = run_two_stage(
        market, record_trace=False, monotone_guard=monotone_guard
    )
    coalitions = tuple(
        tuple(result.matching.coalition(channel))
        for channel in range(market.num_channels)
    )
    welfare = float(result.matching.social_welfare(market.utilities))
    return (
        coalitions,
        welfare.hex(),
        result.num_rounds,
        result.total_proposals,
        result.rounds,
        tuple(
            tuple(two_stage.matching.coalition(channel))
            for channel in range(market.num_channels)
        ),
        (
            two_stage.welfare_stage1,
            two_stage.welfare_phase1,
            two_stage.welfare_phase2,
        ),
        (
            two_stage.rounds_stage1,
            two_stage.rounds_phase1,
            two_stage.rounds_phase2,
        ),
    )


def _all_modes(market, monotone_guard: bool):
    """Fingerprint the same market on the default path and the oracle."""
    batched = _fingerprint(market, monotone_guard)
    with set_based_oracle():
        reference = _fingerprint(market, monotone_guard)
    return {"batched": batched, "reference": reference}


def _assert_identical(prints, context: str) -> None:
    assert prints["batched"] == prints["reference"], (
        f"{context}: batched SoA diverged from the set-based reference"
    )


class TestBatchedDifferential:
    """Seeded sweep: seeds x algorithms x guard, zero tolerance."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("monotone_guard", [True, False])
    def test_identical_stage1_across_paths(self, algorithm, monotone_guard):
        for seed, num_buyers, num_channels in (
            (700, 60, 6),
            (11, 90, 5),
            (42, 120, 8),
        ):
            market = paper_simulation_market(
                num_buyers,
                num_channels,
                np.random.default_rng([seed, num_buyers]),
                mwis_algorithm=algorithm,
            )
            prints = _all_modes(market, monotone_guard)
            _assert_identical(
                prints,
                f"seed={seed} N={num_buyers} M={num_channels} "
                f"alg={algorithm.value} guard={monotone_guard}",
            )

    def test_oracle_switches_paths(self):
        """The default takes the SoA path; the oracle never does."""
        market = paper_simulation_market(
            30, 4, np.random.default_rng([5, 30])
        )
        with mock.patch.object(
            soa,
            "batched_deferred_acceptance",
            wraps=soa.batched_deferred_acceptance,
        ) as batched, mock.patch.object(
            mwis, "_reference_gwmin", wraps=mwis._reference_gwmin
        ) as reference:
            deferred_acceptance(market)
            assert batched.call_count == 1
            with set_based_oracle():
                deferred_acceptance(market)
            assert batched.call_count == 1
            assert reference.call_count > 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
    def test_dispatch_follows_mwis_algorithm(self, algorithm):
        """GWMIN/GWMIN2 markets take the SoA path, all others the loop."""
        market = paper_simulation_market(
            30, 4, np.random.default_rng([5, 30]), mwis_algorithm=algorithm
        )
        with mock.patch.object(
            soa,
            "batched_deferred_acceptance",
            wraps=soa.batched_deferred_acceptance,
        ) as batched:
            deferred_acceptance(market)
        assert batched.call_count == int(
            algorithm in soa.BATCHED_ALGORITHMS
        )


class TestTwoStagePipeline:
    """Whole two-stage runs on small markets: default path vs oracle."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_run_two_stage_identical_across_kernel_paths(self, algorithm, seed):
        market = paper_simulation_market(
            40, 5, np.random.default_rng([seed, 40]), mwis_algorithm=algorithm
        )
        _assert_identical(
            _all_modes(market, monotone_guard=True),
            f"seed={seed} N=40 M=5 alg={algorithm.value}",
        )

    @pytest.mark.parametrize("monotone_guard", [True, False])
    def test_identical_with_and_without_monotone_guard(self, monotone_guard):
        market = paper_simulation_market(30, 4, np.random.default_rng([9, 30]))
        _assert_identical(
            _all_modes(market, monotone_guard),
            f"seed=9 N=30 M=4 guard={monotone_guard}",
        )

    def test_trace_records_identical(self):
        """Round-by-round traces (not just the end state) must coincide."""

        def run():
            market = paper_simulation_market(
                25, 4, np.random.default_rng([3, 25])
            )
            return run_two_stage(market, record_trace=True).stage_one.rounds

        fast_rounds = run()
        with set_based_oracle():
            reference_rounds = run()
        assert fast_rounds
        assert fast_rounds == reference_rounds


class TestSparsePoolLayout:
    """Force the slot-recycling sparse ``SellerPoolCache`` on small N.

    The scalability tier (N > ``DENSE_POOL_THRESHOLD``) is the only
    organic user of the sparse layout, far too big for the tier-1 suite;
    dropping the threshold to zero runs the identical differential sweep
    through the sparse update/solve code instead.
    """

    @pytest.mark.parametrize(
        "algorithm",
        (MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2),
        ids=lambda a: a.value,
    )
    @pytest.mark.parametrize("monotone_guard", [True, False])
    def test_sparse_layout_identical(
        self, monkeypatch, algorithm, monotone_guard
    ):
        monkeypatch.setattr(soa, "DENSE_POOL_THRESHOLD", 0)
        for seed in (700, 11, 42):
            market = paper_simulation_market(
                80, 6, np.random.default_rng([seed, 80]),
                mwis_algorithm=algorithm,
            )
            cache = soa.SellerPoolCache(
                market.graph(0), market.channel_prices(0)
            )
            assert not cache.dense
            prints = _all_modes(market, monotone_guard)
            _assert_identical(
                prints,
                f"sparse seed={seed} alg={algorithm.value} "
                f"guard={monotone_guard}",
            )


if HAVE_HYPOTHESIS:

    class TestDifferentialHypothesis:
        """Random geometric markets, exploring sizes/seeds the sweep
        above does not pin down."""

        @settings(max_examples=40, deadline=None)
        @given(
            num_buyers=st.integers(min_value=1, max_value=32),
            num_channels=st.integers(min_value=1, max_value=4),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            algorithm=st.sampled_from(
                [MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2]
            ),
            monotone_guard=st.booleans(),
        )
        def test_identical_on_random_markets(
            self, num_buyers, num_channels, seed, algorithm, monotone_guard
        ):
            market = paper_simulation_market(
                num_buyers,
                num_channels,
                np.random.default_rng([seed, num_buyers]),
                mwis_algorithm=algorithm,
            )
            prints = _all_modes(market, monotone_guard)
            _assert_identical(
                prints,
                f"hypothesis N={num_buyers} M={num_channels} seed={seed} "
                f"alg={algorithm.value} guard={monotone_guard}",
            )
