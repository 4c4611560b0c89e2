"""Differential suite: bitset MWIS kernels vs the set-based references.

The fast kernels promise *identical* coalitions -- not merely coalitions
of equal weight -- for every input (see the equivalence contract in
:mod:`repro.interference.bitset`).  These tests enforce that promise on
hundreds of random graphs across three weight regimes (continuous,
small-integer with many ties, and all-zero), on full node sets and on
random sub-pools, with Hypothesis exploring further when it is
installed.
"""

from __future__ import annotations

import random

import pytest

from repro.interference.bitset import (
    bits_of,
    mask_of,
    mwis_gwmin2_bits,
    mwis_gwmin_bits,
    popcount,
)
from repro.interference.graph import InterferenceGraph
from repro.interference.mwis import (
    _argmax_remaining,
    _fast_pool,
    _reference_gwmin,
    _reference_gwmin2,
    mwis_greedy_gwmin,
    mwis_greedy_gwmin2,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# Random instance generation (seeded, deterministic)
# ----------------------------------------------------------------------
def _random_instance(rng: random.Random):
    """One random (graph, weights, pool) triple.

    Cycles through the adversarial weight regimes: continuous weights
    (generic case), small integers (forces score *ties*, stressing the
    tie-break rule), and all-zero weights (stresses the GWMIN2 zero
    guard, where every score collapses to 0.0).
    """
    n = rng.randint(1, 24)
    density = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
    edges = [
        (j, k)
        for j in range(n)
        for k in range(j + 1, n)
        if rng.random() < density
    ]
    graph = InterferenceGraph(n, edges)
    regime = rng.randrange(3)
    if regime == 0:
        weights = {j: rng.uniform(0.0, 10.0) for j in range(n)}
    elif regime == 1:
        weights = {j: float(rng.randint(0, 3)) for j in range(n)}
    else:
        weights = {j: 0.0 for j in range(n)}
    if rng.random() < 0.5:
        pool = sorted(rng.sample(range(n), rng.randint(1, n)))
    else:
        pool = list(range(n))
    return graph, weights, pool


#: Each public (kernel-backed) solver and its set-based oracle.
_REFERENCE = {
    mwis_greedy_gwmin: _reference_gwmin,
    mwis_greedy_gwmin2: _reference_gwmin2,
}


def _both_paths(solver, graph, weights, pool):
    """Run one public solver and its set-based reference."""
    return solver(graph, weights, pool), _REFERENCE[solver](graph, weights, pool)


class TestDifferentialRandomGraphs:
    """Seeded-random sweep: 250 instances per algorithm, zero tolerance."""

    @pytest.mark.parametrize("solver", [mwis_greedy_gwmin, mwis_greedy_gwmin2])
    def test_identical_coalitions_on_random_graphs(self, solver):
        rng = random.Random(20260806)
        for case in range(250):
            graph, weights, pool = _random_instance(rng)
            fast, reference = _both_paths(solver, graph, weights, pool)
            assert fast == reference, (
                f"case {case}: {solver.__name__} diverged on "
                f"n={graph.num_buyers} pool={pool} weights={weights}"
            )

    @pytest.mark.parametrize(
        "kernel,solver",
        [(mwis_gwmin_bits, _reference_gwmin), (mwis_gwmin2_bits, _reference_gwmin2)],
    )
    def test_direct_kernel_matches_reference(self, kernel, solver):
        """Call the kernels directly on the masks ``_fast_pool`` builds."""
        rng = random.Random(77)
        for _ in range(100):
            graph, weights, pool = _random_instance(rng)
            float_weights = {j: float(weights[j]) for j in pool}
            kernel_pool, induced = _fast_pool(graph, float_weights, pool)
            assert kernel_pool == pool
            assert kernel(float_weights, kernel_pool, induced) == solver(
                graph, weights, pool
            )


if HAVE_HYPOTHESIS:

    @st.composite
    def _instances(draw):
        n = draw(st.integers(min_value=1, max_value=16))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=n * 3,
            )
        )
        weights = {
            j: draw(
                st.one_of(
                    st.floats(0.0, 100.0, allow_nan=False),
                    st.integers(0, 4).map(float),
                )
            )
            for j in range(n)
        }
        pool = draw(
            st.lists(
                st.integers(0, n - 1), min_size=1, max_size=n, unique=True
            ).map(sorted)
        )
        return InterferenceGraph(n, edges), weights, pool

    class TestDifferentialHypothesis:
        @settings(max_examples=200, deadline=None)
        @given(instance=_instances())
        @pytest.mark.parametrize(
            "solver", [mwis_greedy_gwmin, mwis_greedy_gwmin2]
        )
        def test_identical_coalitions(self, solver, instance):
            fast, reference = _both_paths(solver, *instance)
            assert fast == reference


class TestTieBreak:
    """Satellite fix: ties must go to the smallest index on both paths."""

    def test_argmax_remaining_prefers_smallest_index(self):
        assert _argmax_remaining([3, 5, 9], {3: 1.0, 5: 1.0, 9: 1.0}.get) == 3
        assert _argmax_remaining([3, 5, 9], {3: 1.0, 5: 2.0, 9: 2.0}.get) == 5

    @pytest.mark.parametrize("solver", [mwis_greedy_gwmin, mwis_greedy_gwmin2])
    def test_equal_weight_path_graph(self, solver):
        # Path 0-1-2-3 with equal weights: every node ties on score, so
        # the smallest index (0) goes first, eliminating 1; then 2,
        # eliminating 3.  Both paths must realise exactly {0, 2}.
        graph = InterferenceGraph(4, [(0, 1), (1, 2), (2, 3)])
        weights = {j: 2.5 for j in range(4)}
        pool = [0, 1, 2, 3]
        fast, reference = _both_paths(solver, graph, weights, pool)
        assert fast == reference == [0, 2]

    @pytest.mark.parametrize("solver", [mwis_greedy_gwmin, mwis_greedy_gwmin2])
    def test_all_zero_weights_are_deterministic(self, solver):
        graph = InterferenceGraph(5, [(0, 1), (1, 2), (3, 4)])
        weights = {j: 0.0 for j in range(5)}
        fast, reference = _both_paths(
            solver, graph, weights, [0, 1, 2, 3, 4]
        )
        assert fast == reference


class TestBitsetPrimitives:
    def test_mask_bits_roundtrip(self):
        assert bits_of(mask_of([0, 3, 17])) == [0, 3, 17]
        assert mask_of([]) == 0 and bits_of(0) == []

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount((1 << 70) | 0b1011) == 4

    def test_fast_pool_masks_restrict_to_pool(self):
        graph = InterferenceGraph(4, [(0, 1), (0, 2), (2, 3)])
        weights = {j: 1.0 for j in range(4)}
        pool, induced = _fast_pool(graph, weights, [2, 0, 2])
        assert pool == [0, 2]
        assert induced == {0: mask_of([2]), 2: mask_of([0])}
