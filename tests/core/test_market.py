"""Unit tests for the market model and dummy expansion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.market import PhysicalBuyer, PhysicalSeller, SpectrumMarket
from repro.errors import MarketConfigurationError
from repro.interference.generators import interference_map_from_edge_lists
from repro.interference.graph import InterferenceGraph, InterferenceMap
from repro.interference.mwis import MwisAlgorithm


def simple_map(num_buyers: int, num_channels: int) -> InterferenceMap:
    return InterferenceMap([InterferenceGraph(num_buyers) for _ in range(num_channels)])


class TestPhysicalParticipants:
    def test_seller_needs_a_channel(self):
        with pytest.raises(MarketConfigurationError):
            PhysicalSeller(name="s", num_channels=0)

    def test_buyer_needs_a_request(self):
        with pytest.raises(MarketConfigurationError):
            PhysicalBuyer(name="b", num_requested=0, utilities=(1.0,))

    def test_buyer_rejects_negative_utilities(self):
        with pytest.raises(MarketConfigurationError):
            PhysicalBuyer(name="b", num_requested=1, utilities=(1.0, -0.5))

    def test_buyer_utilities_coerced_to_floats(self):
        buyer = PhysicalBuyer(name="b", num_requested=1, utilities=(1, 2))
        assert buyer.utilities == (1.0, 2.0)


class TestMarketConstruction:
    def test_basic_accessors(self):
        utilities = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        market = SpectrumMarket(utilities, simple_map(3, 2))
        assert market.num_buyers == 3
        assert market.num_channels == 2
        assert market.price(1, 0) == 2.0  # channel 1, buyer 0
        assert list(market.channel_prices(0)) == [1.0, 3.0, 5.0]
        assert list(market.buyer_vector(2)) == [5.0, 6.0]

    def test_utilities_are_read_only(self):
        market = SpectrumMarket(np.ones((2, 2)), simple_map(2, 2))
        with pytest.raises(ValueError):
            market.utilities[0, 0] = 9.0

    def test_rejects_wrong_ndim(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(np.ones(4), simple_map(4, 1))

    def test_rejects_negative_utilities(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(np.array([[-1.0]]), simple_map(1, 1))

    def test_rejects_nonfinite_utilities(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(np.array([[np.inf]]), simple_map(1, 1))

    def test_rejects_channel_count_mismatch(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(np.ones((3, 2)), simple_map(3, 5))

    def test_rejects_buyer_count_mismatch(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(np.ones((3, 2)), simple_map(7, 2))

    def test_rejects_empty_market(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(np.ones((0, 2)), simple_map(0, 2))

    def test_rejects_non_numeric_utilities(self):
        with pytest.raises(MarketConfigurationError, match="numeric"):
            SpectrumMarket([["a", 1.0]], simple_map(1, 2))

    def test_rejects_unknown_mwis_algorithm(self):
        with pytest.raises(MarketConfigurationError, match="'bogus'"):
            SpectrumMarket(
                np.ones((2, 2)), simple_map(2, 2), mwis_algorithm="bogus"
            )

    def test_default_labels(self):
        market = SpectrumMarket(np.ones((2, 3)), simple_map(2, 3))
        assert market.buyer_names == ("b0", "b1")
        assert market.channel_names == ("ch0", "ch1", "ch2")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(
                np.ones((2, 2)), simple_map(2, 2), buyer_names=["x", "x"]
            )

    def test_wrong_label_count_rejected(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket(
                np.ones((2, 2)), simple_map(2, 2), channel_names=["only-one"]
            )

    def test_with_mwis_algorithm(self):
        market = SpectrumMarket(np.ones((2, 2)), simple_map(2, 2))
        other = market.with_mwis_algorithm(MwisAlgorithm.EXACT)
        assert other.mwis_algorithm is MwisAlgorithm.EXACT
        assert market.mwis_algorithm is MwisAlgorithm.GWMIN
        assert np.array_equal(other.utilities, market.utilities)


class TestDummyExpansion:
    def make_market(self):
        sellers = [
            PhysicalSeller(name="s0", num_channels=2),
            PhysicalSeller(name="s1", num_channels=1),
        ]
        buyers = [
            PhysicalBuyer(name="b0", num_requested=2, utilities=(0.5, 0.6, 0.7)),
            PhysicalBuyer(name="b1", num_requested=1, utilities=(0.1, 0.2, 0.3)),
        ]
        imap = simple_map(3, 3)
        return SpectrumMarket.from_physical(sellers, buyers, imap)

    def test_counts(self):
        market = self.make_market()
        assert market.num_channels == 3  # 2 + 1
        assert market.num_buyers == 3  # 2 + 1

    def test_virtual_names_and_owners(self):
        market = self.make_market()
        assert market.channel_names == ("s0.0", "s0.1", "s1")
        assert market.buyer_names == ("b0.0", "b0.1", "b1")
        assert market.channel_owner == (0, 0, 1)
        assert market.buyer_owner == (0, 0, 1)

    def test_clones_share_the_utility_vector(self):
        market = self.make_market()
        assert list(market.buyer_vector(0)) == [0.5, 0.6, 0.7]
        assert list(market.buyer_vector(1)) == [0.5, 0.6, 0.7]
        assert list(market.buyer_vector(2)) == [0.1, 0.2, 0.3]

    def test_clones_interfere_everywhere(self):
        market = self.make_market()
        for channel in range(3):
            assert market.interference.interferes(channel, 0, 1)
            assert not market.interference.interferes(channel, 0, 2)
        market.validate()  # must not raise

    def test_validate_detects_missing_clone_clique(self):
        # Build an inconsistent market by hand: same owner, no clique.
        market = SpectrumMarket(
            np.ones((2, 1)),
            simple_map(2, 1),
            buyer_owner=[0, 0],
        )
        with pytest.raises(MarketConfigurationError):
            market.validate()

    def test_wrong_utility_vector_length_rejected(self):
        sellers = [PhysicalSeller(name="s", num_channels=2)]
        buyers = [PhysicalBuyer(name="b", num_requested=1, utilities=(0.4,))]
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket.from_physical(sellers, buyers, simple_map(1, 2))

    def test_empty_participants_rejected(self):
        with pytest.raises(MarketConfigurationError):
            SpectrumMarket.from_physical([], [], simple_map(1, 1))
