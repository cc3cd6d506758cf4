"""Tests for the experiment definitions (Table I periods, paper values)."""

import pytest

from repro.experiments.paper_values import PAPER
from repro.experiments.periods import PERIODS, scale_watermarks
from repro.kademlia.dht import DHTMode
from repro.scenarios import build_scenario_config, run_scenario_by_name, scenario
from repro.simulation.churn_models import DAY


class TestPaperValues:
    def test_agent_composition_sums_to_total(self):
        total = (
            PAPER.goipfs_pids
            + PAPER.hydra_pids
            + PAPER.crawler_pids
            + PAPER.other_agent_pids
            + PAPER.missing_agent_pids
        )
        assert total == PAPER.total_pids

    def test_table2_lookup(self):
        row = PAPER.table2_row("P2", "go-ipfs", "peer")
        assert row.count == 42_038
        assert row.average == pytest.approx(19_676.930)
        with pytest.raises(KeyError):
            PAPER.table2_row("P9", "go-ipfs", "all")

    def test_table4_lookup_and_shares(self):
        assert PAPER.table4_row("heavy").peers == 10_540
        assert PAPER.table4_row("one-time").peers > PAPER.table4_row("heavy").peers

    def test_table2_orderings_the_benchmarks_rely_on(self):
        # duration grows with relaxed watermarks: P0 < P1 < P2 (go-ipfs, "all")
        p0 = PAPER.table2_row("P0", "go-ipfs", "all").average
        p1 = PAPER.table2_row("P1", "go-ipfs", "all").average
        p2 = PAPER.table2_row("P2", "go-ipfs", "all").average
        p3 = PAPER.table2_row("P3", "go-ipfs", "all").average
        assert p0 < p1 < p2
        assert p3 < p0  # the DHT-Client vantage point has the shortest durations

    def test_classification_covers_connected_pids(self):
        assert sum(r.peers for r in PAPER.table4) == PAPER.connected_pids


class TestPeriodSpecs:
    def test_all_paper_periods_present(self):
        assert set(PERIODS) == {"P0", "P1", "P2", "P3", "P4", "P14"}

    def test_table_i_values(self):
        assert PERIODS["P0"].low_water == 600 and PERIODS["P0"].high_water == 900
        assert PERIODS["P1"].low_water == 2_000 and PERIODS["P1"].high_water == 4_000
        assert PERIODS["P2"].low_water == 18_000 and PERIODS["P2"].high_water == 20_000
        assert PERIODS["P3"].go_ipfs_mode is DHTMode.CLIENT
        assert PERIODS["P4"].hydra_heads == 0 and PERIODS["P4"].duration_days == 3.0
        assert PERIODS["P0"].hydra_heads == 3
        assert PERIODS["P14"].duration_days == 14.0

    def test_unknown_period_rejected(self):
        with pytest.raises(KeyError, match="P9"):
            build_scenario_config("P9")

    def test_watermark_scaling_preserves_ordering(self):
        spec = PERIODS["P0"]
        low_small, high_small = scale_watermarks(spec.low_water, spec.high_water, 600)
        low_large, high_large = scale_watermarks(spec.low_water, spec.high_water, 6_000)
        assert low_small < high_small
        assert low_large < high_large
        assert low_large > low_small
        # P2's scaled watermarks always exceed P0's at the same population
        p2_low, _ = scale_watermarks(PERIODS["P2"].low_water, PERIODS["P2"].high_water, 600)
        assert p2_low > low_small

    @pytest.mark.parametrize("n_peers", [800, 2_000, 10_000])
    def test_scaled_configs_keep_p0_watermarks_below_p2(self, n_peers):
        p0 = build_scenario_config("p0", n_peers=n_peers).go_ipfs
        p2 = build_scenario_config("p2", n_peers=n_peers).go_ipfs
        assert p0.low_water < p0.high_water <= p2.high_water
        assert p0.low_water < p2.low_water

    def test_scenario_config_reflects_period(self):
        config = build_scenario_config("p3", n_peers=400, duration_days=0.5)
        assert config.duration == pytest.approx(0.5 * DAY)
        assert config.go_ipfs.dht_mode is DHTMode.CLIENT
        assert config.hydra_heads == 0
        config_p0 = build_scenario_config("p0", n_peers=400)
        assert config_p0.hydra_heads == 3
        assert config_p0.go_ipfs.low_water < config_p0.go_ipfs.high_water

    def test_bench_days_is_the_one_default_duration(self):
        assert PERIODS["P0"].bench_days == 1.5  # compressed from the paper's 3 d
        assert PERIODS["P1"].bench_days == 1.0  # no compression: the paper's own
        for period_id, spec in PERIODS.items():
            config = build_scenario_config(period_id, n_peers=50)
            assert config.duration == spec.bench_days * DAY
            assert scenario(period_id).default_duration_days == spec.bench_days


class TestRunner:
    def test_runner_respects_period_vantage_points(self):
        result = run_scenario_by_name("p3", n_peers=120, duration_days=0.05, seed=3)
        assert result.go_ipfs() is not None
        assert result.hydra_union() is None
        assert result.dataset("go-ipfs").measurement_role == "client"
