"""Tests for the claims registry (``repro.experiments.fidelity``).

None of these simulates: the registry's tables are checked statically, and
evaluation runs over stub measurements handed in through ``measure``.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments import fidelity
from repro.experiments.fidelity import CHECKS, RUNS, VIEWS, Check, evaluate, main, render


def stub_measure(table):
    """A ``measure`` that serves ``table[seed]`` and records what was asked."""
    asked = []

    def measure(needed, seed):
        asked.append((seed, {run: sorted(views) for run, views in needed.items()}))
        return table[seed]

    measure.asked = asked
    return measure


def under_1h(by_seed):
    return {seed: {"p4": {"fig7": {"under_1h": value}}} for seed, value in by_seed.items()}


SHARE = Check("stub.share", "about half stay under an hour", "0.3 < p4.fig7.under_1h < 0.8")


class TestRegistry:
    def test_check_names_are_unique(self):
        names = [check.name for check in CHECKS]
        assert len(names) == len(set(names))

    def test_every_band_reads_known_runs_and_views(self):
        for check in CHECKS:
            assert check.reads, check.name
            assert check.code  # compiles
            for run, view, _ in check.reads:
                assert run in RUNS, (check.name, run)
                assert view in VIEWS, (check.name, view)

    def test_runs_are_distinct(self):
        keys = [
            (run.scenario, run.peers, run.days, sorted(run.overrides.items()))
            for run in RUNS.values()
        ]
        assert len(keys) == len(set(map(repr, keys)))

    def test_attack_free_twin_drops_only_the_attackers(self):
        twin = RUNS["sybil_0"].config(7)
        attacked = RUNS["sybil_40"].config(7)
        assert twin.population.adversary is None
        assert attacked.population.adversary is not None
        assert replace(attacked, population=replace(attacked.population, adversary=None)) == twin
        assert RUNS["sybil_0"].overrides == {"adversary": None}


class TestEvaluate:
    def test_records_value_and_verdict_per_seed(self):
        report = evaluate([SHARE], seeds=(7, 8), measure=stub_measure(under_1h({7: 0.5, 8: 0.9})))
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

    def test_measure_is_asked_only_for_the_views_bands_read(self):
        measure = stub_measure(under_1h({7: 0.5}))
        evaluate([SHARE], seeds=(7,), measure=measure)
        assert measure.asked == [(7, {"p4": ["fig7"]})]

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
        first = evaluate([SHARE, other], (7, 8), stub_measure({7: values, 8: values}))
        second = evaluate([other, SHARE], (8, 7), stub_measure({7: reordered, 8: reordered}))
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
        assert main([str(out)], checks=[SHARE], measure=stub_measure(under_1h(values))) == 0
        assert "fidelity: 1 checks, 1 fail on ≥ 1 of 5 seeds" in capsys.readouterr().out

    def test_more_than_one_argument_is_a_usage_error(self, tmp_path):
        usage = main([str(tmp_path / "a.json"), "b.json"], checks=[SHARE], measure=stub_measure({}))
        assert usage == 2
        assert not (tmp_path / "a.json").exists()
