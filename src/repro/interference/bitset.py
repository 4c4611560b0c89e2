"""Bitmask MWIS kernels: the fast path behind GWMIN / GWMIN2.

The set-based greedy solvers in :mod:`repro.interference.mwis` rebuild an
induced adjacency ``Dict[int, Set[int]]`` and rescan every remaining
candidate on every select-and-remove iteration -- ``O(k^2)`` score
evaluations per solve, each a Python-level set/len round trip.  On the
paper-scale markets the matching core spends almost all of Stage I there.

This module re-implements the same select-and-remove loops over *bitmask*
state.  The caller (``repro.interference.mwis._fast_pool``) hands each
kernel the pool and, per member, a Python int with bit ``k`` set iff the
member interferes with pool member ``k``; the kernels never see the graph:

* candidate pools, neighbourhoods and the alive set are Python ints, so
  intersection / removal / degree are word-parallel C operations;
* the argmax is a lazy max-heap: an entry is pushed whenever a node's
  score changes, and popped entries are validated against the node's
  *current* score, so the total ordering work is ``O(E_induced log k)``
  edge-driven updates instead of ``O(k^2)`` rescans.

**Exact equivalence contract.**  These kernels return the *identical*
coalition -- not merely one of equal weight -- to their set-based
reference implementations, which the differential property suite
(``tests/interference/test_bitset_differential.py``) enforces:

* every score is computed with the same IEEE-754 operation sequence as
  the reference (GWMIN: one division; GWMIN2: the closed-neighbourhood
  weight is initialised by summing neighbour weights in ascending index
  order and decremented per removed neighbour in ascending index order);
* ties are broken identically: strictly-greater score wins, equal score
  goes to the smaller buyer index (the heap key ``(-score, j)`` realises
  exactly that rule).

The kernels are the only production path for GWMIN / GWMIN2; the
set-based loops survive solely as the oracle they are tested against.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "COST_COUNTERS",
    "popcount",
    "mask_of",
    "bits_of",
    "mwis_gwmin_bits",
    "mwis_gwmin2_bits",
]

#: Deterministic cost counters for the select-and-remove kernel:
#: machine-independent operation counts accumulated by every solve and
#: read/reset by :mod:`repro.prof.counters`.  Two same-seed runs must
#: show identical values; a drift is an algorithmic change, not noise.
COST_COUNTERS: Dict[str, int] = {
    "bitset.heap_pop_ops": 0,
    "bitset.dead_drop_ops": 0,
    "bitset.stale_drop_ops": 0,
    "bitset.select_ops": 0,
    "bitset.heap_push_ops": 0,
    "bitset.mask_and_ops": 0,
}

try:  # int.bit_count is Python >= 3.10; the package supports 3.9.
    popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised only on 3.9
    def popcount(x: int) -> int:
        """Number of set bits in ``x`` (fallback for Python < 3.10)."""
        return bin(x).count("1")


def mask_of(nodes: Iterable[int]) -> int:
    """Bitmask with one bit set per node index."""
    mask = 0
    for j in nodes:
        mask |= 1 << j
    return mask


def bits_of(mask: int) -> List[int]:
    """Set bit positions of ``mask`` in ascending order."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _select_loop(
    pool: Sequence[int],
    induced: Mapping[int, int],
    score_of: Dict[int, float],
    on_remove,
) -> List[int]:
    """Shared lazy-heap select-and-remove loop.

    ``score_of`` maps each pool node to its current score and is mutated
    by ``on_remove(removed_node, alive_mask)``, which must update the
    scores of the removed node's still-alive neighbours (pushing nothing;
    this loop re-pushes every node whose score changed).  ``on_remove``
    returns the list of alive neighbours whose score it changed.
    """
    alive = mask_of(pool)
    # Ascending-index initialisation gives the heap deterministic layout;
    # the (-score, j) key makes ties resolve to the smallest index.
    heap: List[Tuple[float, int]] = [(-score_of[j], j) for j in pool]
    heapq.heapify(heap)
    chosen: List[int] = []
    pops = dead = stale = pushes = mask_ands = 0
    while heap:
        neg_score, j = heapq.heappop(heap)
        pops += 1
        if not (alive >> j) & 1:
            dead += 1
            continue
        if -neg_score != score_of[j]:
            # Stale entry: j's score changed after this entry was pushed.
            # An entry carrying the current score is guaranteed to be in
            # the heap (one is pushed on every change), so drop this one.
            stale += 1
            continue
        chosen.append(j)
        removed_mask = (induced[j] & alive) | (1 << j)
        mask_ands += 1
        alive &= ~removed_mask
        if not alive:
            break
        for r in bits_of(removed_mask):
            mask_ands += 1  # on_remove intersects induced[r] & alive
            for k in on_remove(r, alive):
                heapq.heappush(heap, (-score_of[k], k))
                pushes += 1
    counters = COST_COUNTERS
    counters["bitset.heap_pop_ops"] += pops
    counters["bitset.dead_drop_ops"] += dead
    counters["bitset.stale_drop_ops"] += stale
    counters["bitset.select_ops"] += len(chosen)
    counters["bitset.heap_push_ops"] += pushes
    counters["bitset.mask_and_ops"] += mask_ands
    chosen.sort()
    return chosen


def mwis_gwmin_bits(
    weights: Mapping[int, float],
    pool: Sequence[int],
    induced: Mapping[int, int],
) -> List[int]:
    """GWMIN over bitmask state; identical output to the set-based GWMIN.

    Parameters
    ----------
    weights:
        Node weight lookup (must cover ``pool``; validated by callers).
    pool:
        Candidate nodes in ascending index order.
    induced:
        ``{j: neighbour mask within pool}``, as built by
        ``repro.interference.mwis._fast_pool``.
    """
    degree = {j: popcount(induced[j]) for j in pool}
    score_of = {j: weights[j] / (degree[j] + 1.0) for j in pool}

    def on_remove(r: int, alive: int) -> List[int]:
        touched = bits_of(induced[r] & alive)
        for k in touched:
            degree[k] -= 1
            score_of[k] = weights[k] / (degree[k] + 1.0)
        return touched

    return _select_loop(pool, induced, score_of, on_remove)


def _gwmin2_score(weight: float, closed: float) -> float:
    """GWMIN2 score ``w(v) / w(N+(v))`` with the all-zero guard.

    A non-positive closed-neighbourhood weight means every weight in it is
    zero (weights are non-negative, bar float cancellation to exactly 0),
    so the choice is welfare-neutral and any deterministic value works;
    the kernel and the set-based reference both use 0.0.
    """
    if closed <= 0.0:
        return 0.0
    return weight / closed


def mwis_gwmin2_bits(
    weights: Mapping[int, float],
    pool: Sequence[int],
    induced: Mapping[int, int],
) -> List[int]:
    """GWMIN2 over bitmask state; identical output to the set-based GWMIN2.

    The closed-neighbourhood weight of each node is initialised by summing
    its pool neighbours' weights in ascending index order and thereafter
    *decremented* by each removed neighbour's weight (ascending order per
    removal batch).  The set-based reference performs the identical
    floating-point operation sequence, so both paths agree bit for bit.
    """
    closed: Dict[int, float] = {}
    for j in pool:
        acc = 0.0
        for k in bits_of(induced[j]):
            acc += weights[k]
        closed[j] = weights[j] + acc
    score_of = {j: _gwmin2_score(weights[j], closed[j]) for j in pool}

    def on_remove(r: int, alive: int) -> List[int]:
        touched = bits_of(induced[r] & alive)
        w_r = weights[r]
        for k in touched:
            closed[k] -= w_r
            score_of[k] = _gwmin2_score(weights[k], closed[k])
        return touched

    return _select_loop(pool, induced, score_of, on_remove)
