"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  The expensive
part — simulating a measurement period — happens once per period in a
session-scoped fixture; the benchmarked callable is the analysis that produces
the table/figure from the recorded dataset, which is what "regenerating" the
result means for a passive measurement study.

Every benchmark prints the paper's reported values next to the values measured
on the simulated network.  Absolute counts differ (the simulated population is
a few thousand peers, the live network was ~62k); the *shape* claims the paper
makes are asserted programmatically.

Environment knobs:

* ``REPRO_BENCH_PEERS``  — override the per-period population size.
* ``REPRO_BENCH_DAYS``   — override the per-period duration (simulated days).
* ``REPRO_BENCH_SEED``   — override the scenario seed (default 7).
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.scenarios import build_scenario_config, run_scenario_by_name


def _env_int(name: str) -> Optional[int]:
    value = os.environ.get(name)
    return int(value) if value else None


def _env_float(name: str) -> Optional[float]:
    value = os.environ.get(name)
    return float(value) if value else None


BENCH_SEED = _env_int("REPRO_BENCH_SEED") or 7


def run_bench_period(name: str):
    """Run one paper period at its registered benchmark scale, honouring the
    environment overrides."""
    return run_scenario_by_name(
        name, _env_int("REPRO_BENCH_PEERS"), _env_float("REPRO_BENCH_DAYS"), BENCH_SEED
    )


def scale_note(result) -> str:
    """One-line description of the simulated scale, printed by every benchmark."""
    population = len(result.population)
    days = result.config.duration / 86_400.0
    return (
        f"[simulated scale: {population} peers, {days:.2f} d, seed {result.config.seed}; "
        f"paper scale: ~62k connected PIDs]"
    )


def bench_scale(default_peers: int, default_days: float):
    """A regime benchmark's ``(peers, days)``: its own defaults unless the
    ``REPRO_BENCH_*`` knobs override them."""
    peers = _env_int("REPRO_BENCH_PEERS") or default_peers
    days = _env_float("REPRO_BENCH_DAYS") or default_days
    return peers, days


def registered_config(name: str, default_peers: int, default_days: float, **overrides):
    """The config of one registered scenario at benchmark scale; ``overrides``
    go through the registry's validation like ``--set`` does."""
    peers, days = bench_scale(default_peers, default_days)
    return build_scenario_config(name, peers, days, BENCH_SEED, overrides)


def run_registered(name: str, default_peers: int, default_days: float, **overrides):
    """Build (as :func:`registered_config` does) and run one registered scenario."""
    peers, days = bench_scale(default_peers, default_days)
    return run_scenario_by_name(name, peers, days, BENCH_SEED, overrides)


@pytest.fixture(scope="session")
def p0_result():
    return run_bench_period("p0")


@pytest.fixture(scope="session")
def p1_result():
    return run_bench_period("p1")


@pytest.fixture(scope="session")
def p2_result():
    return run_bench_period("p2")


@pytest.fixture(scope="session")
def p3_result():
    return run_bench_period("p3")


@pytest.fixture(scope="session")
def p4_result():
    return run_bench_period("p4")


@pytest.fixture(scope="session")
def p14_result():
    return run_bench_period("p14")


@pytest.fixture(autouse=True)
def _echo_benchmark_report(capsys):
    """Re-emit each benchmark's printed report past pytest's output capture.

    Every benchmark prints the regenerated table/figure next to the paper's
    values; without this hook those reports would only be visible for failing
    tests.  The captured stdout is forwarded to the real stdout so it lands in
    the run log (e.g. ``bench_output.txt``).
    """
    import sys

    yield
    captured = capsys.readouterr()
    if captured.out:
        with capsys.disabled():
            sys.stdout.write(captured.out)
            sys.stdout.flush()
