"""Disk-model interference graphs from buyer locations.

The paper's simulation settings (Section V-A): buyers are placed uniformly
at random in a ``10 x 10`` area, each channel has a transmission range drawn
uniformly from ``(0, 5]``, and "the interference graph of each channel is
established based on users' locations and the transmission range of the
channel" -- i.e. the classic unit-disk interference model, with a *different
disk radius per channel* to capture spectrum heterogeneity (following
TAMES [7]).

This module turns ``(locations, ranges)`` into an
:class:`~repro.interference.graph.InterferenceMap`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

try:
    from scipy.spatial import cKDTree
except ImportError:  # pragma: no cover - scipy is baked in
    cKDTree = None

from repro.errors import MarketConfigurationError
from repro.interference.graph import InterferenceGraph, InterferenceMap

__all__ = [
    "disk_interference_graph",
    "sparse_disk_interference_graph",
    "build_geometric_interference_map",
]


def _as_location_array(locations: Sequence[Tuple[float, float]]) -> np.ndarray:
    array = np.asarray(locations, dtype=float)
    if array.ndim != 2 or array.shape[1] != 2:
        raise MarketConfigurationError(
            f"locations must be an (N, 2) array of planar points, got shape {array.shape}"
        )
    return array


def disk_interference_graph(
    locations: Sequence[Tuple[float, float]],
    transmission_range: float,
) -> InterferenceGraph:
    """Build one channel's interference graph under the disk model.

    Two buyers interfere on the channel iff the Euclidean distance between
    their locations is at most ``transmission_range``.

    Parameters
    ----------
    locations:
        ``(N, 2)`` planar coordinates, one row per virtual buyer.
    transmission_range:
        The channel's interference radius; must be positive.
    """
    if transmission_range <= 0:
        raise MarketConfigurationError(
            f"transmission_range must be positive, got {transmission_range}"
        )
    points = _as_location_array(locations)
    n = points.shape[0]
    if n == 0:
        return InterferenceGraph(0)
    # Pairwise squared distances without scipy.spatial (kept dependency-light
    # and fast enough for the paper's N <= a few thousand).
    deltas = points[:, None, :] - points[None, :, :]
    sq_dist = np.einsum("ijk,ijk->ij", deltas, deltas)
    adjacency = sq_dist <= float(transmission_range) ** 2
    np.fill_diagonal(adjacency, False)
    return InterferenceGraph.from_adjacency_matrix(adjacency)


def sparse_disk_interference_graph(
    locations: Sequence[Tuple[float, float]],
    transmission_range: float,
) -> InterferenceGraph:
    """Disk-model graph without the ``O(N^2)`` distance matrix.

    :func:`disk_interference_graph` materialises all-pairs distances,
    which at the scalability bench's ``N = 50k-100k`` would need tens of
    gigabytes.  This variant finds the in-range pairs with a KD-tree
    (``scipy.spatial.cKDTree.query_pairs``) and builds the graph from
    the edge arrays directly -- ``O(E)`` memory -- producing the exact
    same graph (the disk predicate ``dist <= r`` is evaluated on the
    same coordinates either way).  Requires :mod:`scipy`; callers that
    must stay dependency-light keep using the dense builder.
    """
    if transmission_range <= 0:
        raise MarketConfigurationError(
            f"transmission_range must be positive, got {transmission_range}"
        )
    if cKDTree is None:  # pragma: no cover - scipy is baked in
        raise MarketConfigurationError(
            "sparse_disk_interference_graph requires scipy; use "
            "disk_interference_graph instead"
        )
    points = _as_location_array(locations)
    n = points.shape[0]
    if n == 0:
        return InterferenceGraph(0)
    pairs = cKDTree(points).query_pairs(
        float(transmission_range), output_type="ndarray"
    )
    return InterferenceGraph.from_edge_arrays(
        n, pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
    )


def build_geometric_interference_map(
    locations: Sequence[Tuple[float, float]],
    transmission_ranges: Sequence[float],
) -> InterferenceMap:
    """Build the per-channel interference family from a deployment.

    Parameters
    ----------
    locations:
        ``(N, 2)`` planar coordinates of the virtual buyers.
    transmission_ranges:
        One positive radius per channel.  Channels with larger radii yield
        denser graphs (less spatial reuse), reproducing the paper's channel
        heterogeneity.
    """
    ranges = list(transmission_ranges)
    if not ranges:
        raise MarketConfigurationError("at least one channel transmission range is required")
    points = _as_location_array(locations)
    graphs = [disk_interference_graph(points, r) for r in ranges]
    return InterferenceMap(graphs)
