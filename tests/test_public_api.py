"""Smoke tests of the documented public API surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_quickstart_flow(self):
        """The README/docstring quickstart must work verbatim."""
        market = repro.paper_simulation_market(30, 5, np.random.default_rng(0))
        result = repro.run_two_stage(market)
        assert result.social_welfare > 0
        assert repro.is_nash_stable(market, result.matching)
        assert repro.is_individually_rational(market, result.matching)

    def test_distributed_flow(self):
        market = repro.toy_example_market()
        run = repro.run_distributed_matching(
            market, policy=repro.adaptive_policy()
        )
        assert run.social_welfare == pytest.approx(30.0)

    def test_solver_surface(self):
        market = repro.toy_example_market()
        exact = repro.optimal_matching_branch_and_bound(market)
        assert exact.social_welfare(market.utilities) == pytest.approx(33.0)
        assert repro.lp_relaxation_bound(market) >= 33.0 - 1e-6

    def test_physical_market_surface(self):
        sellers = [repro.PhysicalSeller(name="s", num_channels=2)]
        buyers = [
            repro.PhysicalBuyer(name="b", num_requested=2, utilities=(0.5, 0.9))
        ]
        from repro.interference.generators import interference_map_from_edge_lists

        imap = interference_map_from_edge_lists(2, [[], []])
        market = repro.SpectrumMarket.from_physical(sellers, buyers, imap)
        market.validate()
        result = repro.run_two_stage(market)
        # Each clone must end on a distinct channel.
        channels = {result.matching.channel_of(0), result.matching.channel_of(1)}
        assert channels == {0, 1}


class TestDoctests:
    def test_package_quickstart_doctest(self):
        """The quickstart in the package docstring must run verbatim."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.attempted >= 3
        assert results.failed == 0

    def test_analysis_namespace_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name


def test_library_reads_no_environment_variables():
    """Behaviour is chosen by explicit arguments, never by ``os.environ``.

    A process-global switch leaks across threads, workers and test
    cases; every option the library honours must arrive as a parameter.
    """
    package_root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(package_root)}:{number}"
        for path in sorted(package_root.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if "os.environ" in line or "os.getenv" in line
    ]
    assert offenders == []


def test_import_leaves_networkx_unloaded():
    """``import repro`` must not pay for networkx, used only by interop."""
    code = "import sys, repro; print('networkx' in sys.modules)"
    src = str(Path(repro.__file__).parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert completed.stdout.strip() == "False"
