"""Per-channel interference graphs.

The paper (Section II-A) models spectrum reuse with a family of graphs
``{G_i = (V, E_i)}`` -- one graph per channel ``i`` -- whose nodes are the
virtual buyers and whose edges join pairs of buyers that would interfere if
they operated on channel ``i`` at the same time.  ``e^i_{j,j'} = 1`` denotes
such an edge.

:class:`InterferenceGraph` stores one channel's graph in exactly one form:
CSR arrays ``(indptr, indices)`` with ascending, deduplicated neighbour
lists.  Every constructor funnels its input through one normaliser that
validates the endpoints and produces that canonical layout, so two graphs
with the same edge set compare and hash equal whichever way they were
built.  The queries the matching algorithms need -- pairwise
interference, neighbourhoods and independence of candidate coalitions --
read a per-row ``frozenset`` built from the CSR on first use of that row;
:meth:`InterferenceGraph.packed_rows` derives the dense bit matrix the
struct-of-arrays Stage I uses for small markets.
:class:`InterferenceMap` bundles the per-channel family and enforces that
every graph covers the same buyer population.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import MarketConfigurationError

if TYPE_CHECKING:  # networkx is imported only by the interop methods
    import networkx as nx

__all__ = ["InterferenceGraph", "InterferenceMap"]


def _canonical_csr(
    num_buyers: int, src, dst, presorted: bool = False
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Validate edge endpoints and return the canonical CSR layout.

    ``src``/``dst`` are parallel endpoint arrays of undirected edges.
    They are symmetrised, sorted lexicographically by ``(node,
    neighbour)`` and deduplicated, unless ``presorted`` promises they
    already list every directed pair exactly once in that order (the
    row-major ``np.nonzero`` of a symmetric matrix).  Returns
    ``(num_buyers, indptr, indices)`` with ``int64`` offsets and ``int32``
    ascending neighbour ids.
    """
    if num_buyers < 0:
        raise MarketConfigurationError(
            f"num_buyers must be non-negative, got {num_buyers}"
        )
    n = int(num_buyers)
    src = np.asarray(src).ravel()
    dst = np.asarray(dst).ravel()
    if src.shape != dst.shape:
        raise MarketConfigurationError(
            f"edge arrays must have equal length, got {src.size} and {dst.size}"
        )
    if src.size:
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise MarketConfigurationError(
                "edge endpoints must be integer buyer ids, got dtypes "
                f"{src.dtype} and {dst.dtype}"
            )
        src = src.astype(np.int64, copy=False)
        dst = dst.astype(np.int64, copy=False)
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise MarketConfigurationError(
                f"edge endpoint out of range [0, {n})"
            )
        if bool((src == dst).any()):
            raise MarketConfigurationError(
                "self-interference edges are not allowed"
            )
    else:
        src = dst = np.empty(0, dtype=np.int64)
    if not presorted and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.empty(src.size, dtype=bool)
        keep[0] = True
        np.not_equal(src[1:], src[:-1], out=keep[1:])
        keep[1:] |= dst[1:] != dst[:-1]
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return n, indptr, dst.astype(np.int32)


class InterferenceGraph:
    """An undirected conflict graph over a fixed set of buyers.

    Parameters
    ----------
    num_buyers:
        Size of the buyer population.  Nodes are the integers
        ``0 .. num_buyers - 1``; every node exists even if isolated.
    edges:
        Iterable of ``(j, k)`` pairs of interfering buyers.  Self-loops are
        rejected; duplicate and reversed pairs are merged.

    Notes
    -----
    The graph is immutable after construction.  The matching algorithms
    share one :class:`InterferenceGraph` per channel across many queries,
    so immutability keeps aliasing safe and lets instances be hashed into
    caches.  The only lazily filled state is the per-row neighbour-set
    memo and the packed-row cache; both are pure functions of the CSR, so
    concurrent readers that race on them store equal values.
    """

    __slots__ = ("_num_buyers", "_indptr", "_indices", "_rows", "_packed")

    def __init__(self, num_buyers: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        try:
            pairs = np.asarray(list(edges))
        except (TypeError, ValueError) as exc:
            raise MarketConfigurationError(
                f"edges must be (j, k) pairs of buyer ids: {exc}"
            ) from exc
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MarketConfigurationError(
                f"edges must be (j, k) pairs of buyer ids, got shape {pairs.shape}"
            )
        self._store(*_canonical_csr(num_buyers, pairs[:, 0], pairs[:, 1]))

    def _store(self, num_buyers: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._num_buyers = num_buyers
        self._indptr = indptr
        self._indices = indices
        self._rows: List[Optional[FrozenSet[int]]] = [None] * num_buyers
        self._packed = None

    @classmethod
    def from_adjacency_matrix(cls, matrix) -> "InterferenceGraph":
        """Build a graph from a boolean adjacency matrix (vectorised path).

        ``matrix`` must be square and symmetric with a zero diagonal and no
        NaN entries.  The CSR is read straight off ``np.nonzero(matrix)``,
        which is already row-major sorted, so this constructor neither
        loops per edge nor sorts -- which matters for large geometric
        deployments (thousands of buyers, millions of edges).
        """
        matrix = np.asarray(matrix)
        if matrix.dtype.kind in "fc" and bool(np.isnan(matrix).any()):
            raise MarketConfigurationError("adjacency matrix contains NaN entries")
        matrix = matrix.astype(bool, copy=False)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MarketConfigurationError(
                f"adjacency matrix must be square, got shape {matrix.shape}"
            )
        if matrix.diagonal().any():
            raise MarketConfigurationError(
                "adjacency matrix must have a zero diagonal (no self-loops)"
            )
        if not np.array_equal(matrix, matrix.T):
            raise MarketConfigurationError("adjacency matrix must be symmetric")
        rows, cols = np.nonzero(matrix)
        graph = cls.__new__(cls)
        graph._store(*_canonical_csr(matrix.shape[0], rows, cols, presorted=True))
        return graph

    @classmethod
    def from_edge_arrays(cls, num_buyers: int, u, v) -> "InterferenceGraph":
        """Build a graph from parallel edge-endpoint arrays (sparse path).

        ``u`` and ``v`` are equal-length integer arrays; each position is
        one undirected edge ``(u[i], v[i])``.  Unlike
        :meth:`from_adjacency_matrix` this never materialises an ``N x N``
        matrix, so it is the constructor of choice for large sparse
        geometric deployments (``N`` in the tens of thousands).
        """
        graph = cls.__new__(cls)
        graph._store(*_canonical_csr(num_buyers, u, v))
        return graph

    def _check_node(self, j: int) -> None:
        if not 0 <= j < self._num_buyers:
            raise MarketConfigurationError(
                f"buyer index {j} out of range [0, {self._num_buyers})"
            )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_buyers(self) -> int:
        """Number of nodes (virtual buyers) in the graph."""
        return self._num_buyers

    @property
    def num_edges(self) -> int:
        """Number of interference edges."""
        return int(self._indices.size) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(j, k)`` tuples with ``j < k``, lexsorted."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def interferes(self, j: int, k: int) -> bool:
        """Return ``True`` iff buyers ``j`` and ``k`` interfere (``e_{j,k}=1``)."""
        row = self.neighbors(j)
        self._check_node(k)
        return k in row

    def neighbors(self, j: int) -> FrozenSet[int]:
        """Return the interfering neighbours of buyer ``j``.

        Built from the CSR row on first use and memoised per row, so a
        query touches only the rows it needs.
        """
        self._check_node(j)
        row = self._rows[j]
        if row is None:
            indptr = self._indptr
            row = frozenset(self._indices[indptr[j] : indptr[j + 1]].tolist())
            self._rows[j] = row
        return row

    def degree(self, j: int) -> int:
        """Number of interfering neighbours of buyer ``j``."""
        self._check_node(j)
        return int(self._indptr[j + 1] - self._indptr[j])

    def neighbor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stored adjacency in CSR form: ``(indptr, indices)``.

        ``indices[indptr[j]:indptr[j + 1]]`` is buyer ``j``'s neighbour
        set as an ascending ``int32`` array.  Both arrays are read-only
        views of the graph's own storage.
        """
        return self._indptr, self._indices

    def packed_rows(self):
        """Adjacency as a dense ``(N, ceil(N/64))`` uint64 bit matrix.

        Row ``j`` packs buyer ``j``'s neighbourhood little-endian over
        buyer-id bit positions, as consumed by the struct-of-arrays
        Stage-I pool caches.  Dense in ``N``, so callers should only use it
        for small-to-medium markets (the SoA layer falls back to CSR-based
        pool rows above its density threshold).  Built lazily and cached
        for the graph's lifetime.
        """
        if self._packed is None:
            n = self._num_buyers
            words = (n + 63) // 64 if n else 1
            indptr, indices = self._indptr, self._indices
            bits = np.zeros((n, words * 64), dtype=bool)
            if indices.size:
                src = np.repeat(
                    np.arange(n, dtype=np.int64), np.diff(indptr)
                )
                bits[src, indices] = True
            self._packed = np.packbits(
                bits, axis=1, bitorder="little"
            ).view(np.uint64)
        return self._packed

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Edges as parallel arrays ``(u, v)`` with ``u < v``, lexsorted.

        The inverse of :meth:`from_edge_arrays`: a compact, picklable and
        shareable description of the graph used to ship interference
        structure across process boundaries (shared-memory sweeps)
        without serialising per-node Python sets.
        """
        src = np.repeat(
            np.arange(self._num_buyers, dtype=np.int32), np.diff(self._indptr)
        )
        upper = src < self._indices
        return src[upper], self._indices[upper]

    # ------------------------------------------------------------------
    # Coalition-level queries
    # ------------------------------------------------------------------
    def is_independent(self, buyers: Iterable[int]) -> bool:
        """Return ``True`` iff no two buyers in ``buyers`` interfere.

        This is the interference-free condition a spectrum coalition must
        satisfy to be preferred by its seller (eq. 6) and for its members to
        obtain non-zero utility (eq. 5).
        """
        chosen = list(buyers)
        chosen_set = set(chosen)
        if len(chosen_set) != len(chosen):
            # A buyer listed twice trivially "interferes with herself" in the
            # dummy-expansion sense: the same buyer cannot hold one channel
            # twice.
            return False
        for j in chosen_set:
            if not chosen_set.isdisjoint(self.neighbors(j)):
                return False
        return True

    def conflicts_with_set(self, j: int, buyers: Iterable[int]) -> bool:
        """Return ``True`` iff buyer ``j`` interferes with anyone in ``buyers``."""
        # No self-loops, so ``j`` itself never counts as a conflict.
        return not self.neighbors(j).isdisjoint(buyers)

    def independent_subset_greedily_compatible(
        self, anchor: Iterable[int], candidates: Sequence[int]
    ) -> List[int]:
        """Filter ``candidates`` down to those compatible with ``anchor``.

        Returns the candidates that do not interfere with any buyer in
        ``anchor`` (candidates may still interfere with *each other*; that
        is resolved by the MWIS solver).
        """
        anchor_set = set(anchor)
        return [
            j
            for j in candidates
            if j not in anchor_set and not self.conflicts_with_set(j, anchor_set)
        ]

    # ------------------------------------------------------------------
    # Interop / dunder
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Export the graph to :class:`networkx.Graph` (nodes ``0..N-1``)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_buyers))
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(
        cls, graph: "nx.Graph", num_buyers: Optional[int] = None
    ) -> "InterferenceGraph":
        """Build an :class:`InterferenceGraph` from a networkx graph.

        Nodes must be integers; ``num_buyers`` defaults to ``max(node)+1``
        (or 0 for an empty graph) so isolated high-index nodes are kept.
        """
        nodes = list(graph.nodes())
        if any(not isinstance(n, int) for n in nodes):
            raise MarketConfigurationError("networkx graph nodes must be integers")
        inferred = (max(nodes) + 1) if nodes else 0
        size = inferred if num_buyers is None else num_buyers
        return cls(size, graph.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterferenceGraph):
            return NotImplemented
        return (
            self._num_buyers == other._num_buyers
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self._num_buyers, self._indptr.tobytes(), self._indices.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"InterferenceGraph(num_buyers={self._num_buyers}, "
            f"num_edges={self.num_edges})"
        )


class InterferenceMap:
    """The per-channel family ``{G_i}`` of interference graphs.

    Parameters
    ----------
    graphs:
        One :class:`InterferenceGraph` per channel, indexed by channel id
        ``0 .. M-1``.  All graphs must share the same buyer population size.

    The map is the library's single source of truth for spectrum-reuse
    feasibility; the matching core, the optimal solvers and the distributed
    agents all consult it through the same interface.
    """

    __slots__ = ("_graphs", "_num_buyers")

    def __init__(self, graphs: Sequence[InterferenceGraph]) -> None:
        graphs = tuple(graphs)
        if not graphs:
            raise MarketConfigurationError("an InterferenceMap needs at least one channel")
        sizes = {g.num_buyers for g in graphs}
        if len(sizes) != 1:
            raise MarketConfigurationError(
                f"all channel graphs must cover the same buyers; saw sizes {sorted(sizes)}"
            )
        self._graphs = graphs
        self._num_buyers = graphs[0].num_buyers

    @property
    def num_channels(self) -> int:
        """Number of channels ``M`` (virtual sellers)."""
        return len(self._graphs)

    @property
    def num_buyers(self) -> int:
        """Number of virtual buyers ``N``."""
        return self._num_buyers

    def graph(self, channel: int) -> InterferenceGraph:
        """Return channel ``channel``'s interference graph ``G_i``."""
        if not 0 <= channel < len(self._graphs):
            raise MarketConfigurationError(
                f"channel {channel} out of range [0, {len(self._graphs)})"
            )
        return self._graphs[channel]

    def __getitem__(self, channel: int) -> InterferenceGraph:
        return self.graph(channel)

    def __iter__(self) -> Iterator[InterferenceGraph]:
        return iter(self._graphs)

    def __len__(self) -> int:
        return len(self._graphs)

    def interferes(self, channel: int, j: int, k: int) -> bool:
        """Return ``e^channel_{j,k}`` as a bool."""
        return self.graph(channel).interferes(j, k)

    def is_independent(self, channel: int, buyers: Iterable[int]) -> bool:
        """Check a coalition's interference-freedom on one channel."""
        return self.graph(channel).is_independent(buyers)

    def with_clique(self, buyers: Sequence[int]) -> "InterferenceMap":
        """Return a new map with ``buyers`` pairwise interfering on *every* channel.

        Used by the dummy expansion of Section II-A: virtual buyers cloned
        from the same physical buyer must never share a channel, which the
        paper encodes by making them interfering neighbours everywhere.
        """
        members = np.asarray(buyers)
        if members.size < 2:
            return self
        a, b = np.triu_indices(members.size, 1)
        new_graphs = []
        for graph in self._graphs:
            u, v = graph.edge_arrays()
            new_graphs.append(
                InterferenceGraph.from_edge_arrays(
                    graph.num_buyers,
                    np.concatenate([u, members[a]]),
                    np.concatenate([v, members[b]]),
                )
            )
        return InterferenceMap(new_graphs)

    def density(self, channel: int) -> float:
        """Edge density of channel ``channel``'s graph in [0, 1]."""
        graph = self.graph(channel)
        n = graph.num_buyers
        if n < 2:
            return 0.0
        return 2.0 * graph.num_edges / (n * (n - 1))

    def __repr__(self) -> str:
        return (
            f"InterferenceMap(num_channels={self.num_channels}, "
            f"num_buyers={self.num_buyers})"
        )
