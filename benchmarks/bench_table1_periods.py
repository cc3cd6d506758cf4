"""Table I — overview of the measurement periods and their configuration.

Regenerates the Table I rows from the period specifications and checks that the
scenario builder faithfully maps them onto scaled simulator configurations.
"""

from repro.analysis.tables import TextTable
from repro.experiments.periods import PERIODS
from repro.kademlia.dht import DHTMode
from repro.scenarios import build_scenario_config


def build_table1():
    table = TextTable(
        headers=["Period", "Dates", "Duration (d)", "Low", "High", "go-ipfs", "Hydra"],
        title="Table I — measurement periods",
    )
    for period_id in ("P0", "P1", "P2", "P3", "P4", "P14"):
        spec = PERIODS[period_id]
        table.add_row(
            spec.period_id,
            f"{spec.start_date} – {spec.end_date}",
            f"{spec.duration_days:g}",
            spec.low_water,
            spec.high_water,
            spec.go_ipfs_mode.value.capitalize(),
            spec.hydra_heads or "-",
        )
    return table


def test_table1_periods(benchmark):
    table = benchmark(build_table1)
    print()
    print(table.render())

    # Table I ground truth from the paper
    assert PERIODS["P0"].low_water == 600 and PERIODS["P0"].high_water == 900
    assert PERIODS["P1"].low_water == 2_000 and PERIODS["P1"].high_water == 4_000
    assert PERIODS["P2"].low_water == 18_000 and PERIODS["P2"].high_water == 20_000
    assert PERIODS["P3"].go_ipfs_mode is DHTMode.CLIENT
    assert PERIODS["P4"].duration_days == 3.0 and PERIODS["P4"].hydra_heads == 0
    assert PERIODS["P0"].hydra_heads == 3

    # and the scaled scenario configs preserve the mechanism ordering
    for n_peers in (800, 2_000, 10_000):
        p0 = build_scenario_config("p0", n_peers=n_peers).go_ipfs
        p2 = build_scenario_config("p2", n_peers=n_peers).go_ipfs
        assert p0.low_water < p0.high_water <= p2.high_water
        assert p0.low_water < p2.low_water
