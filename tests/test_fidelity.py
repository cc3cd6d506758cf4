"""Tests for the claims registry (``repro.experiments.fidelity``).

None of these simulates: the registry's tables are checked statically, and
evaluation runs over stub cell summaries handed in through ``measure``.
"""

import json

import pytest

from repro.analysis.views import VIEWS
from repro.experiments import fidelity
from repro.experiments.fidelity import CHECKS, RUNS, Check, evaluate, main, plan, render
from repro.scenarios.registry import build_scenario_config

#: the top-level keys of a cell summary without views (``summarize_cell``;
#: ``tests/test_sweep_cli.py`` pins them against a real cell)
SUMMARY_KEYS = {
    "schema", "scenario", "n_peers", "duration_days", "seed", "overrides",
    "events_processed", "version_changes", "role_flips", "autonat_flips",
    "queries_sent", "crawls", "datasets", "churn", "content", "adversary",
    "netmodel", "resilience", "bandwidth", "metrics", "tracing",
}


def stub_measure(table):
    """A ``measure`` serving ``table[seed][run]`` as each planned cell's
    summary (in planned order) and recording the cells it was handed."""

    def measure(cells, workers):
        measure.cells = list(cells)
        measure.workers = workers
        summaries = []
        for cell in cells:
            alias, seed = cell["file"][: -len(".json")].rsplit("__s", 1)
            summaries.append(table[int(seed)][alias])
        return summaries, []

    return measure


def under_1h(by_seed):
    return {seed: {"p4": {"fig7": {"under_1h": value}}} for seed, value in by_seed.items()}


def run_over(checks, seeds, table):
    planned = plan(checks, seeds)
    summaries, _ = stub_measure(table)(list(planned.values()), 1)
    return evaluate(checks, planned, summaries)


SHARE = Check("stub.share", "about half stay under an hour", "0.3 < p4.fig7.under_1h < 0.8")


class TestRegistry:
    def test_check_names_are_unique(self):
        names = [check.name for check in CHECKS]
        assert len(names) == len(set(names))

    def test_every_band_reads_known_runs_and_views(self):
        assert not SUMMARY_KEYS & VIEWS.keys()
        for check in CHECKS:
            assert check.reads, check.name
            assert check.code  # compiles
            for path in check.reads:
                run, key = path.split(".")[:2]
                assert run in RUNS, (check.name, run)
                assert key in SUMMARY_KEYS | VIEWS.keys(), (check.name, path)

    def test_paths_of_any_depth_skip_band_globals(self):
        check = Check(
            "stub.deep", "a nested path",
            "loss_0.resilience.retry.recoveries < abs(PAPER.kad_support) + p4.fig7.under_1h",
        )
        assert check.reads == ("loss_0.resilience.retry.recoveries", "p4.fig7.under_1h")
        assert check.runs == ["loss_0", "p4"]

    def test_runs_are_distinct(self):
        keys = [
            (run.scenario, run.peers, run.days, sorted(run.overrides.items()))
            for run in RUNS.values()
        ]
        assert len(keys) == len(set(map(repr, keys)))

    def test_attack_free_twin_drops_only_the_attackers(self):
        twin, attacked = RUNS["sybil_0"], RUNS["sybil_40"]
        assert twin.overrides == {"sybil_count": 0}
        twin_config = build_scenario_config(twin.scenario, twin.peers, twin.days, 7, twin.overrides)
        attacked_config = build_scenario_config(
            attacked.scenario, attacked.peers, attacked.days, 7, attacked.overrides
        )
        assert twin_config.population.adversary is None
        assert attacked_config.population.adversary is not None


class TestEvaluate:
    def test_records_value_and_verdict_per_seed(self):
        report = run_over([SHARE], (7, 8), under_1h({7: 0.5, 8: 0.9}))
        record = report["checks"]["stub.share"]
        assert record["seeds"]["7"]["pass"] is True
        assert record["seeds"]["7"]["values"] == {"p4.fig7.under_1h": 0.5}
        assert record["seeds"]["8"]["pass"] is False
        assert record["fails_on"] == [8]
        assert record["runs"] == {
            "p4": {"scenario": "p4", "peers": 1800, "days": 2.0, "overrides": {}}
        }
        assert record["paper"] == {"p4.fig7.under_1h": 0.53}
        assert record["seeds"]["7"]["rel_err"]["p4.fig7.under_1h"] == pytest.approx(-0.03 / 0.53)
        assert report["summary"] == {"checks": 1, "failing": {"stub.share": [8]}}

    def test_summary_keys_read_with_dashes_as_underscores(self):
        check = Check(
            "stub.pids", "the go-ipfs dataset saw PIDs", "spoof_0.datasets.go_ipfs.peers > 2"
        )
        table = {7: {"spoof_0": {"datasets": {"go-ipfs": {"peers": 3}}}}}
        record = run_over([check], (7,), table)["checks"]["stub.pids"]
        assert record["seeds"]["7"] == {
            "pass": True, "values": {"spoof_0.datasets.go_ipfs.peers": 3}
        }

    def test_cells_are_asked_only_for_the_views_bands_read(self):
        blocks = Check("stub.blocks", "a cell block", "provide_churn.content.provides > 0")
        planned = plan([SHARE, blocks], (7, 8))
        assert list(planned) == [("p4", 7), ("provide_churn", 7), ("p4", 8), ("provide_churn", 8)]
        assert planned["p4", 8]["views"] == ["fig7"]
        assert planned["p4", 8]["file"] == "p4__s8.json"
        assert planned["p4", 8]["n_peers"] == 1800
        assert "views" not in planned["provide_churn", 7]
        assert planned["provide_churn", 7]["scenario"] == "provide-churn"

    def test_render_is_identical_for_two_insertion_orders(self):
        other = Check("stub.other", "a second claim", "p0.table2.all_count > 0")
        values = {
            "p4": {"fig7": {"under_1h": 0.5}},
            "p0": {"table2": {"all_count": 3, "all_avg": 1.0}},
        }
        reordered = {
            "p0": {"table2": {"all_avg": 1.0, "all_count": 3}},
            "p4": {"fig7": {"under_1h": 0.5}},
        }
        first = run_over([SHARE, other], (7, 8), {7: values, 8: values})
        second = run_over([other, SHARE], (8, 7), {7: reordered, 8: reordered})
        assert render(first) == render(second)

    def test_render_rounds_floats_to_six_places(self):
        text = render({"x": 1 / 3, "y": [-1e-9], "z": 2})
        assert json.loads(text) == {"x": 0.333333, "y": [0.0], "z": 2}
        assert "-0.0" not in text


class TestCli:
    def test_exits_1_naming_the_check_failing_on_the_gate_seed(self, tmp_path, capsys):
        values = dict.fromkeys(fidelity.SEEDS, 0.5) | {fidelity.GATE_SEED: 0.95}
        out = tmp_path / "FIDELITY.json"
        assert main([str(out)], checks=[SHARE], measure=stub_measure(under_1h(values))) == 1
        assert f"FAIL at seed {fidelity.GATE_SEED}: stub.share" in capsys.readouterr().err
        assert json.loads(out.read_text())["summary"]["failing"] == {
            "stub.share": [fidelity.GATE_SEED]
        }

    def test_failures_on_other_seeds_are_recorded_not_gated(self, tmp_path, capsys):
        values = dict.fromkeys(fidelity.SEEDS, 0.5) | {8: 0.95}
        out = tmp_path / "FIDELITY.json"
        measure = stub_measure(under_1h(values))
        assert main([str(out)], checks=[SHARE], measure=measure) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("fidelity: 1 checks, 1 fail on ≥ 1 of 5 seeds (5 cells, ")
        assert line.endswith(f" s on {measure.workers} workers)")
        assert [cell["seed"] for cell in measure.cells] == list(fidelity.SEEDS)

    def test_a_failed_cell_exits_1_with_its_repro_line_and_no_report(self, tmp_path, capsys):
        def failing(cells, workers):
            cell = cells[0]
            return [], [{
                "scenario": cell["scenario"], "n_peers": cell["n_peers"], "seed": cell["seed"],
                "error": "RuntimeError: boom", "repro": "python -m repro.sweep --scenarios p4",
            }]

        out = tmp_path / "FIDELITY.json"
        assert main([str(out)], checks=[SHARE], measure=failing) == 1
        err = capsys.readouterr().err
        assert "fidelity cell failed: p4 (peers=1800, seed=7): RuntimeError: boom" in err
        assert "re-run: python -m repro.sweep --scenarios p4" in err
        assert not out.exists()

    def test_more_than_one_argument_is_a_usage_error(self, tmp_path):
        usage = main([str(tmp_path / "a.json"), "b.json"], checks=[SHARE], measure=stub_measure({}))
        assert usage == 2
        assert not (tmp_path / "a.json").exists()
