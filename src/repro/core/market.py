"""The free spectrum market of Section II-A.

A market instance bundles everything the algorithms need:

* ``M`` channels (virtual sellers), each owned by a physical seller;
* ``N`` virtual buyers, each demanding exactly one channel, cloned from
  physical buyers via the paper's *dummy expansion*;
* the utility/price matrix ``b_{i,j}`` (a buyer's utility for a channel is
  also the price she offers its seller);
* the per-channel interference family ``{G_i}``;
* the MWIS algorithm sellers use to form most-preferred coalitions.

The virtual level is the algorithms' native representation -- Algorithms 1
and 2 of the paper are stated over virtual participants -- while
:meth:`SpectrumMarket.from_physical` performs the expansion from the
physical description (seller ``i`` owns ``m_i`` channels, buyer ``j``
demands ``n_j`` channels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MarketConfigurationError
from repro.interference.graph import InterferenceGraph, InterferenceMap
from repro.interference.mwis import MwisAlgorithm

__all__ = ["PhysicalSeller", "PhysicalBuyer", "SpectrumMarket"]


@dataclass(frozen=True)
class PhysicalSeller:
    """A service provider offering spare spectrum.

    Attributes
    ----------
    name:
        Human-readable identifier (used in traces and reports).
    num_channels:
        ``m_i`` -- how many channels the seller supplies; the dummy
        expansion creates this many virtual sellers.
    """

    name: str
    num_channels: int

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise MarketConfigurationError(
                f"seller {self.name!r} must supply at least one channel, "
                f"got {self.num_channels}"
            )


@dataclass(frozen=True)
class PhysicalBuyer:
    """A service provider requesting spectrum.

    Attributes
    ----------
    name:
        Human-readable identifier.
    num_requested:
        ``n_j`` -- how many channels the buyer demands; the dummy expansion
        creates this many virtual buyers, all sharing ``utilities`` and all
        pairwise interfering on every channel (a buyer must not be sold the
        same channel twice).
    utilities:
        Length-``M`` vector ``(b_{1,j}, ..., b_{M,j})`` of per-channel
        utilities, which double as offered prices.
    """

    name: str
    num_requested: int
    utilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.num_requested < 1:
            raise MarketConfigurationError(
                f"buyer {self.name!r} must request at least one channel, "
                f"got {self.num_requested}"
            )
        object.__setattr__(self, "utilities", tuple(float(u) for u in self.utilities))
        if any(u < 0 for u in self.utilities):
            raise MarketConfigurationError(
                f"buyer {self.name!r} has negative utilities; prices must be >= 0"
            )


class SpectrumMarket:
    """An expanded (virtual-level) spectrum market instance.

    Parameters
    ----------
    utilities:
        Array of shape ``(N, M)``; ``utilities[j, i]`` is ``b_{i,j}``, buyer
        ``j``'s utility for (and offered price on) channel ``i``.  All
        entries must be non-negative and finite.
    interference:
        The per-channel conflict family ``{G_i}`` over the ``N`` buyers.
    mwis_algorithm:
        Which solver sellers use for most-preferred coalition formation.
        GWMIN (the paper's choice, via [8]) by default.
    buyer_names / channel_names:
        Optional labels for traces; default to ``"b<j>"`` / ``"ch<i>"``.
    buyer_owner / channel_owner:
        Optional physical-participant indices recording which physical
        buyer/seller each virtual participant came from.  Virtual buyers
        with the same owner are expected to interfere on every channel;
        :meth:`validate` checks this.
    """

    def __init__(
        self,
        utilities: np.ndarray,
        interference: InterferenceMap,
        mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
        buyer_names: Optional[Sequence[str]] = None,
        channel_names: Optional[Sequence[str]] = None,
        buyer_owner: Optional[Sequence[int]] = None,
        channel_owner: Optional[Sequence[int]] = None,
    ) -> None:
        try:
            utilities = np.asarray(utilities, dtype=float)
        except (TypeError, ValueError) as exc:
            raise MarketConfigurationError(
                f"utilities must be numeric: {exc}"
            ) from exc
        if utilities.ndim != 2:
            raise MarketConfigurationError(
                f"utilities must be a 2-D (N, M) array, got ndim={utilities.ndim}"
            )
        num_buyers, num_channels = utilities.shape
        if num_buyers == 0 or num_channels == 0:
            raise MarketConfigurationError(
                "a market needs at least one buyer and one channel"
            )
        if not np.all(np.isfinite(utilities)):
            raise MarketConfigurationError("utilities must be finite")
        if np.any(utilities < 0):
            raise MarketConfigurationError("utilities (prices) must be non-negative")
        if interference.num_channels != num_channels:
            raise MarketConfigurationError(
                f"interference map has {interference.num_channels} channels "
                f"but utilities describe {num_channels}"
            )
        if interference.num_buyers != num_buyers:
            raise MarketConfigurationError(
                f"interference map covers {interference.num_buyers} buyers "
                f"but utilities describe {num_buyers}"
            )
        self._utilities = utilities
        self._utilities.setflags(write=False)
        self._interference = interference
        try:
            self._mwis_algorithm = MwisAlgorithm(mwis_algorithm)
        except ValueError as exc:
            raise MarketConfigurationError(
                f"unknown MWIS algorithm {mwis_algorithm!r}; expected one of "
                f"{[a.value for a in MwisAlgorithm]}"
            ) from exc
        self._buyer_names = self._labels(buyer_names, num_buyers, "b")
        self._channel_names = self._labels(channel_names, num_channels, "ch")
        self._buyer_owner = (
            tuple(int(o) for o in buyer_owner)
            if buyer_owner is not None
            else tuple(range(num_buyers))
        )
        self._channel_owner = (
            tuple(int(o) for o in channel_owner)
            if channel_owner is not None
            else tuple(range(num_channels))
        )
        if len(self._buyer_owner) != num_buyers:
            raise MarketConfigurationError("buyer_owner length must equal N")
        if len(self._channel_owner) != num_channels:
            raise MarketConfigurationError("channel_owner length must equal M")

    @staticmethod
    def _labels(
        names: Optional[Sequence[str]], count: int, prefix: str
    ) -> Tuple[str, ...]:
        if names is None:
            return tuple(f"{prefix}{idx}" for idx in range(count))
        labels = tuple(str(n) for n in names)
        if len(labels) != count:
            raise MarketConfigurationError(
                f"expected {count} {prefix}-labels, got {len(labels)}"
            )
        if len(set(labels)) != count:
            raise MarketConfigurationError(f"{prefix}-labels must be unique")
        return labels

    # ------------------------------------------------------------------
    # Construction from the physical description
    # ------------------------------------------------------------------
    @classmethod
    def from_physical(
        cls,
        sellers: Sequence[PhysicalSeller],
        buyers: Sequence[PhysicalBuyer],
        interference: InterferenceMap,
        mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
    ) -> "SpectrumMarket":
        """Dummy-expand physical participants into a virtual market.

        ``interference`` must be given over the *virtual* buyers (size
        ``N = sum(n_j)``), ordered buyer-major: the clones of physical buyer
        0 come first, then buyer 1's, etc.  Cliques between clones of the
        same physical buyer are added automatically on every channel, per
        Section II-A ("if two virtual buyers originate from the same buyer,
        they are viewed as interfering buyers").
        """
        if not sellers:
            raise MarketConfigurationError("at least one physical seller is required")
        if not buyers:
            raise MarketConfigurationError("at least one physical buyer is required")
        num_channels = sum(s.num_channels for s in sellers)
        num_virtual_buyers = sum(b.num_requested for b in buyers)

        channel_names: List[str] = []
        channel_owner: List[int] = []
        for seller_idx, seller in enumerate(sellers):
            for copy in range(seller.num_channels):
                suffix = f".{copy}" if seller.num_channels > 1 else ""
                channel_names.append(f"{seller.name}{suffix}")
                channel_owner.append(seller_idx)

        utilities = np.zeros((num_virtual_buyers, num_channels), dtype=float)
        buyer_names: List[str] = []
        buyer_owner: List[int] = []
        clone_groups: List[List[int]] = []
        cursor = 0
        for buyer_idx, buyer in enumerate(buyers):
            if len(buyer.utilities) != num_channels:
                raise MarketConfigurationError(
                    f"buyer {buyer.name!r} has a utility vector of length "
                    f"{len(buyer.utilities)}, expected M={num_channels}"
                )
            clones = list(range(cursor, cursor + buyer.num_requested))
            clone_groups.append(clones)
            for copy, virtual_id in enumerate(clones):
                suffix = f".{copy}" if buyer.num_requested > 1 else ""
                buyer_names.append(f"{buyer.name}{suffix}")
                buyer_owner.append(buyer_idx)
                utilities[virtual_id, :] = buyer.utilities
            cursor += buyer.num_requested

        expanded = interference
        for clones in clone_groups:
            if len(clones) > 1:
                expanded = expanded.with_clique(clones)

        return cls(
            utilities,
            expanded,
            mwis_algorithm=mwis_algorithm,
            buyer_names=buyer_names,
            channel_names=channel_names,
            buyer_owner=buyer_owner,
            channel_owner=channel_owner,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_buyers(self) -> int:
        """``N`` -- number of virtual buyers."""
        return self._utilities.shape[0]

    @property
    def num_channels(self) -> int:
        """``M`` -- number of channels / virtual sellers."""
        return self._utilities.shape[1]

    @property
    def utilities(self) -> np.ndarray:
        """Read-only ``(N, M)`` matrix with ``utilities[j, i] = b_{i,j}``."""
        return self._utilities

    @property
    def interference(self) -> InterferenceMap:
        """The per-channel conflict family."""
        return self._interference

    @property
    def mwis_algorithm(self) -> MwisAlgorithm:
        """Coalition-formation solver used by sellers."""
        return self._mwis_algorithm

    @property
    def buyer_names(self) -> Tuple[str, ...]:
        return self._buyer_names

    @property
    def channel_names(self) -> Tuple[str, ...]:
        return self._channel_names

    @property
    def buyer_owner(self) -> Tuple[int, ...]:
        """Physical-buyer index of each virtual buyer."""
        return self._buyer_owner

    @property
    def channel_owner(self) -> Tuple[int, ...]:
        """Physical-seller index of each channel."""
        return self._channel_owner

    def price(self, channel: int, buyer: int) -> float:
        """``b_{i,j}`` -- buyer ``buyer``'s utility/price for ``channel``."""
        return float(self._utilities[buyer, channel])

    def channel_prices(self, channel: int) -> np.ndarray:
        """All buyers' offered prices on one channel (length ``N``)."""
        return self._utilities[:, channel]

    def buyer_vector(self, buyer: int) -> np.ndarray:
        """Buyer ``buyer``'s utility vector ``B_j`` (length ``M``)."""
        return self._utilities[buyer, :]

    def graph(self, channel: int) -> InterferenceGraph:
        """Channel ``channel``'s interference graph ``G_i``."""
        return self._interference.graph(channel)

    def with_mwis_algorithm(self, algorithm: MwisAlgorithm) -> "SpectrumMarket":
        """Return a copy of the market using a different MWIS solver."""
        return SpectrumMarket(
            np.array(self._utilities),
            self._interference,
            mwis_algorithm=algorithm,
            buyer_names=self._buyer_names,
            channel_names=self._channel_names,
            buyer_owner=self._buyer_owner,
            channel_owner=self._channel_owner,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-cutting invariants beyond constructor validation.

        Currently: clones of the same physical buyer must interfere on
        every channel (the dummy-expansion rule).  Raises
        :class:`MarketConfigurationError` on violation.
        """
        clones_by_owner: dict = {}
        for virtual_id, owner in enumerate(self._buyer_owner):
            clones_by_owner.setdefault(owner, []).append(virtual_id)
        for owner, clones in clones_by_owner.items():
            for a in range(len(clones)):
                for b in range(a + 1, len(clones)):
                    for channel in range(self.num_channels):
                        if not self._interference.interferes(
                            channel, clones[a], clones[b]
                        ):
                            raise MarketConfigurationError(
                                f"virtual buyers {clones[a]} and {clones[b]} share "
                                f"physical owner {owner} but do not interfere on "
                                f"channel {channel}"
                            )

    def __repr__(self) -> str:
        return (
            f"SpectrumMarket(N={self.num_buyers}, M={self.num_channels}, "
            f"mwis={self._mwis_algorithm.value!r})"
        )
