"""Reference equivalence: every registered scenario vs the legacy-engine table.

``tests/golden/scenario_fingerprints.json`` was generated by running each
registered scenario at micro scale on the object-per-event legacy engine, at
the last commit that still had one.  The single :class:`Engine` must
reproduce that table **byte for byte** under the canonical serialization of
``tests/fingerprint.py`` — every peer record, connection, change, snapshot,
crawl, and stats block.  A scenario that changes behaviour on purpose
regenerates its row from the engine it changed; a refactor never does.
"""

import json
import pathlib

import pytest

from repro.scenarios.registry import build_scenario_config, scenario_names
from repro.simulation.scenario import run_scenario

from fingerprint import block_fingerprints, result_fingerprint

with open(pathlib.Path(__file__).parent / "golden" / "scenario_fingerprints.json") as handle:
    TABLE = json.load(handle)


def run_micro(name: str, seed: int = TABLE["seed"]):
    return run_scenario(
        build_scenario_config(
            name, n_peers=TABLE["n_peers"], duration_days=TABLE["duration_days"], seed=seed
        )
    )


def first_divergence(expected: dict, got: dict) -> str:
    """Name the top-level result block where two block tables first differ."""
    for key in got:
        if expected.get(key) != got[key]:
            return key
    return "<none>"


def test_table_covers_the_whole_catalog():
    assert sorted(TABLE["scenarios"]) == sorted(scenario_names())


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_its_golden_fingerprint(name):
    expected = TABLE["scenarios"][name]
    result = run_micro(name)
    if result_fingerprint(result) != expected["fingerprint"]:
        block = first_divergence(expected["blocks"], block_fingerprints(result))
        pytest.fail(f"scenario {name!r}: diverges from the legacy table first in block {block!r}")


def test_first_divergence_names_the_block():
    blocks = block_fingerprints(run_micro("p2"))
    tampered = dict(blocks, crawls="0" * 64)
    assert first_divergence(blocks, blocks) == "<none>"
    assert first_divergence(tampered, blocks) == "crawls"


def test_fingerprint_is_stable_across_reruns():
    assert result_fingerprint(run_micro("p2")) == result_fingerprint(run_micro("p2"))


def test_result_does_not_depend_on_what_ran_before_it():
    """Connection ids belong to the fabric, not the process: the same config
    gives the same bytes whether it runs first or after another scenario."""
    config = build_scenario_config("p0", n_peers=60, duration_days=0.02, seed=7)
    first = result_fingerprint(run_scenario(config))
    run_micro("hydra-scaling")
    assert result_fingerprint(run_scenario(config)) == first


def test_fingerprint_distinguishes_different_seeds():
    other = run_micro("p2", seed=TABLE["seed"] + 1)
    assert result_fingerprint(other) != TABLE["scenarios"]["p2"]["fingerprint"]
