"""Mechanism golden tier: runs in which every vantage point trims.

``scenario_fingerprints.json`` runs each scenario at 48 peers × 0.02 d, a size
at which no paper period's vantage point ever closes a connection by
``local-trim``.  The connection manager's mechanism — the ``kad`` tag, the
grace period, the order ``select_victims`` closes in — is what Table II's
durations come from, so this tier pins it at the smallest size where it acts:
300 peers × 0.25 d, seed 11.  Periods whose vantage points never trim at that
size run with lowered watermarks; each row of
``golden/mechanism_fingerprints.json`` states its overrides.

Every row asserts its own precondition before its fingerprint: each vantage
point closed at least one connection by ``local-trim`` and some peer flipped
its DHT role.  A later rescale that drops below the mechanism then fails
instead of silently pinning nothing.  The table pins behaviour, generated on
the engine of its commit; it is not an equivalence reference.  Regenerate it
only for a change that moves behaviour on purpose::

    PYTHONPATH=src python tests/test_mechanism_golden.py --write
"""

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.scenarios import build_scenario_config
from repro.simulation.scenario import HYDRA_UNION_LABEL, run_scenario

from fingerprint import block_fingerprints, result_fingerprint

PATH = pathlib.Path(__file__).parent / "golden" / "mechanism_fingerprints.json"

#: the size and the rows; ``--write`` renders the table from these
SIZE = {"n_peers": 300, "duration_days": 0.25, "seed": 11}
ROWS = {
    "p0": {"scenario": "p0", "overrides": {}, "hydra_watermarks": None},
    "p2": {
        "scenario": "p2",
        "overrides": {"low_water": 20, "high_water": 40},
        "hydra_watermarks": [20, 40],
    },
    "hydra-scaling": {"scenario": "hydra-scaling", "overrides": {}, "hydra_watermarks": [20, 40]},
}


def run_row(row: dict, size: dict):
    config = build_scenario_config(
        row["scenario"],
        n_peers=size["n_peers"],
        duration_days=size["duration_days"],
        seed=size["seed"],
        overrides=row["overrides"] or None,
    )
    if row["hydra_watermarks"] is not None:
        low, high = row["hydra_watermarks"]
        config = dataclasses.replace(config, hydra_low_water=low, hydra_high_water=high)
    return run_scenario(config)


def local_trims(result) -> dict:
    """``local-trim`` closes per vantage point (the hydra union is not one)."""
    return {
        label: dataset.connections.closes("local-trim")
        for label, dataset in sorted(result.datasets.items())
        if label != HYDRA_UNION_LABEL
    }


def render_row(row: dict, result) -> dict:
    return dict(
        row,
        local_trims=local_trims(result),
        role_flips=result.role_flips,
        fingerprint=result_fingerprint(result),
        blocks=block_fingerprints(result),
    )


def load_table() -> dict:
    with open(PATH) as handle:
        return json.load(handle)


def test_table_is_the_declared_rows():
    table = load_table()
    assert {key: table[key] for key in SIZE} == SIZE
    assert {
        name: {key: row[key] for key in ROWS[name]} for name, row in table["rows"].items()
    } == ROWS


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row_trims_on_every_vantage_point_and_matches(name):
    table = load_table()
    expected = table["rows"][name]
    result = run_row(expected, table)
    trims = local_trims(result)
    assert trims and all(count > 0 for count in trims.values()), (
        f"{name}: a vantage point never trimmed ({trims}); the row no longer pins "
        f"the connection manager"
    )
    assert result.role_flips > 0, f"{name}: no peer flipped its DHT role"
    assert trims == expected["local_trims"]
    assert result.role_flips == expected["role_flips"]
    got = block_fingerprints(result)
    diverged = [block for block in got if expected["blocks"].get(block) != got[block]]
    assert result_fingerprint(result) == expected["fingerprint"], (
        f"{name}: diverges in blocks {diverged}"
    )


def write_table() -> None:
    rows = {name: render_row(row, run_row(row, SIZE)) for name, row in ROWS.items()}
    PATH.write_text(json.dumps(dict(SIZE, rows=rows), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_table()
