"""End-to-end tests for ``python -m repro.sweep`` (tier-1 micro-sweep).

Runs a 2-scenario × 2-seed sweep at ≤ 50 peers and ≤ 0.02 simulated days —
small enough for CI — and checks the artifact contract: per-cell JSON
summaries that round-trip, a well-formed aggregate table, and byte-identical
output across two runs with the same flags.
"""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from repro.analysis.sweep_report import CELL_SCHEMA, SWEEP_SCHEMA, aggregate_payload
from repro.core.records import primary_dataset_label
from repro.sweep import (
    main,
    parse_duration_days,
    plan_cell,
    run_cells,
    summarize_cell,
    summarize_cell_safe,
)

MICRO_FLAGS = [
    "--scenarios", "p1,flash-crowd",
    "--seeds", "7,8",
    "--peers", "50",
    "--duration", "0.02d",
]


@pytest.fixture(scope="module")
def micro_sweep(tmp_path_factory):
    """One micro-sweep run shared by the assertions below."""
    out_dir = tmp_path_factory.mktemp("sweep")
    exit_code = main(MICRO_FLAGS + ["--out", str(out_dir)])
    assert exit_code == 0
    return out_dir


class TestMicroSweep:
    def test_writes_one_json_per_cell(self, micro_sweep):
        names = sorted(p for p in os.listdir(micro_sweep) if p.endswith(".json"))
        assert names == [
            "flash-crowd__n50__s7.json",
            "flash-crowd__n50__s8.json",
            "p1__n50__s7.json",
            "p1__n50__s8.json",
            "sweep_manifest.json",
            "sweep_summary.json",
        ]

    def test_cell_summaries_roundtrip(self, micro_sweep):
        for name in os.listdir(micro_sweep):
            if not name.endswith(".json") or name.startswith("sweep_"):
                continue
            with open(micro_sweep / name) as handle:
                summary = json.load(handle)
            assert summary["schema"] == CELL_SCHEMA
            assert name == f"{summary['scenario']}__n{summary['n_peers']}__s{summary['seed']}.json"
            assert summary["n_peers"] == 50
            assert summary["events_processed"] > 0
            label = primary_dataset_label(summary["datasets"])
            assert label == "go-ipfs"
            counts = summary["datasets"][label]
            assert set(counts) == {"peers", "connections", "snapshots", "changes"}
            assert set(summary["churn"][label]) == {
                "avg_duration", "median_duration", "trim_share",
            }
            # round-trips through JSON without loss
            assert json.loads(json.dumps(summary)) == summary

    def test_aggregate_summary_totals(self, micro_sweep):
        with open(micro_sweep / "sweep_summary.json") as handle:
            aggregate = json.load(handle)
        assert aggregate["schema"] == SWEEP_SCHEMA
        cells = aggregate["cells"]
        assert len(cells) == 4
        assert [c["scenario"] for c in cells] == [
            "p1", "p1", "flash-crowd", "flash-crowd",
        ]
        assert [c["seed"] for c in cells] == [7, 8, 7, 8]
        totals = aggregate["totals"]
        assert totals["cells"] == 4
        assert totals["events_processed"] == sum(c["events_processed"] for c in cells)
        # the aggregate is exactly what the module computes from the cells
        assert aggregate == json.loads(json.dumps(aggregate_payload(cells)))

    def test_totals_count_hydra_union_connections_once(self):
        # p0 deploys go-ipfs + a 3-head hydra: the "hydra" dataset is the
        # union of the heads and must not be double-counted in the totals
        summary = summarize_cell(plan_cell("p0", 40, 0.01, 5))
        totals = aggregate_payload([summary])["totals"]
        distinct = sum(
            counts["connections"]
            for label, counts in summary["datasets"].items()
            if label != "hydra"
        )
        assert totals["connections"] == distinct
        assert distinct < sum(c["connections"] for c in summary["datasets"].values())

    def test_aggregate_table_is_well_formed(self, micro_sweep):
        text = (micro_sweep / "sweep_table.txt").read_text()
        lines = text.splitlines()
        assert lines[0] == "Scenario sweep"
        header, separator = lines[1], lines[2]
        assert "Scenario" in header and "Trim share" in header
        data_rows = lines[3:7]
        assert len(data_rows) == 4
        for row in data_rows:
            assert row.count("|") == header.count("|")
        assert separator.count("+") == header.count("|")
        assert lines[-1].startswith("4 cells, ")

    def test_two_runs_are_byte_identical(self, micro_sweep, tmp_path):
        rerun = tmp_path / "rerun"
        assert main(MICRO_FLAGS + ["--out", str(rerun)]) == 0
        for name in os.listdir(micro_sweep):
            first = (micro_sweep / name).read_bytes()
            second = (rerun / name).read_bytes()
            assert first == second, f"{name} differs between identical sweeps"


class TestContentCells:
    def test_content_scenarios_report_retrieval_quality(self, tmp_path):
        out = tmp_path / "content"
        assert main([
            "--scenarios", "provide-churn",
            "--seeds", "7",
            "--peers", "50",
            "--duration", "0.02d",
            "--out", str(out),
        ]) == 0
        with open(out / "provide-churn__n50__s7.json") as handle:
            summary = json.load(handle)
        content = summary["content"]
        assert content["retrievals"] > 0
        assert 0.0 <= content["retrieval_success_rate"] <= 1.0
        for block in ("retrieve_hops", "retrieve_latency", "provide_hops"):
            assert set(content[block]) == {"p50", "p90", "p99"}
        assert content["retrieve_hops"]["p50"] <= content["retrieve_hops"]["p99"]
        table = (out / "sweep_table.txt").read_text()
        assert "Retr OK" in table

    def test_non_content_cells_carry_null(self, micro_sweep):
        with open(micro_sweep / "p1__n50__s7.json") as handle:
            summary = json.load(handle)
        assert summary["content"] is None


class TestAdversaryCells:
    def test_adversarial_scenario_reports_distortion(self, tmp_path):
        out = tmp_path / "adv"
        assert main([
            "--scenarios", "sybil-netsize-inflation",
            "--seeds", "11",
            "--peers", "60",
            "--duration", "0.02d",
            "--out", str(out),
        ]) == 0
        with open(out / "sybil-netsize-inflation__n60__s11.json") as handle:
            summary = json.load(handle)
        adversary = summary["adversary"]
        assert adversary["attackers"] > 0
        assert adversary["netsize"]["density_inflation"] > 1.0
        assert 0.0 <= adversary["churn"]["misclassification_rate"] <= 1.0
        # round-trips through JSON without loss
        assert json.loads(json.dumps(summary)) == summary
        table = (out / "sweep_table.txt").read_text()
        assert "Atk" in table and "net x" in table

    def test_non_adversarial_cells_carry_null(self, micro_sweep):
        with open(micro_sweep / "p1__n50__s7.json") as handle:
            summary = json.load(handle)
        assert summary["adversary"] is None


class TestNetmodelCells:
    def test_netmodel_scenario_reports_reachability(self, tmp_path):
        out = tmp_path / "net"
        assert main([
            "--scenarios", "nat-heavy-crawl",
            "--seeds", "11",
            "--peers", "60",
            "--duration", "0.02d",
            "--out", str(out),
        ]) == 0
        with open(out / "nat-heavy-crawl__n60__s11.json") as handle:
            summary = json.load(handle)
        netmodel = summary["netmodel"]
        assert netmodel["unreachable_share"] > 0.0
        assert netmodel["dial_failures"] > 0
        assert netmodel["crawl"]["union_reachable"] <= netmodel["crawl"]["union_discovered"]
        # round-trips through JSON without loss
        assert json.loads(json.dumps(summary)) == summary
        table = (out / "sweep_table.txt").read_text()
        assert "Unreach" in table and "crawl -" in table

    def test_idealised_cells_carry_null(self, micro_sweep):
        with open(micro_sweep / "p1__n50__s7.json") as handle:
            summary = json.load(handle)
        assert summary["netmodel"] is None


class TestOutputHygiene:
    """Satellite: a re-run must not silently mix old and new cell JSON."""

    FLAGS = [
        "--scenarios", "p1",
        "--seeds", "7",
        "--peers", "30",
        "--duration", "0.01d",
    ]

    def test_refuses_a_non_empty_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale__n99__s1.json").write_text("{}")
        exit_code = main(self.FLAGS + ["--out", str(out)])
        assert exit_code == 2
        assert "--force" in capsys.readouterr().err
        # nothing was simulated or written: the stale artifact is untouched
        assert os.listdir(out) == ["stale__n99__s1.json"]

    def test_force_clears_stale_artifacts(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale__n99__s1.json").write_text("{}")
        (out / "sweep_table.txt").write_text("old table")
        (out / "notes.md").write_text("unrelated")  # non-artifact: untouched
        assert main(self.FLAGS + ["--out", str(out), "--force"]) == 0
        assert (out / "p1__n30__s7.json").exists()
        assert not (out / "stale__n99__s1.json").exists()
        assert "old table" not in (out / "sweep_table.txt").read_text()
        assert (out / "notes.md").read_text() == "unrelated"

    def test_empty_or_missing_out_dir_needs_no_force(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(self.FLAGS + ["--out", str(empty)]) == 0
        missing = tmp_path / "missing"
        assert main(self.FLAGS + ["--out", str(missing)]) == 0

    def test_run_sweep_raises_before_simulating(self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod
        from repro.sweep import SweepOutputError, run_sweep

        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.json").write_text("{}")

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("cells ran despite a dirty output directory")

        monkeypatch.setattr(sweep_mod, "summarize_cell_safe", boom)
        with pytest.raises(SweepOutputError, match="not empty"):
            run_sweep(["p1"], [7], [30], 0.01, str(out))


class TestCheckpointResume:
    """Satellite: interrupted sweeps resume without recomputing finished cells."""

    NAMES = ["p1", "flash-crowd"]
    SEEDS = [7, 8]
    PEERS = [40]
    DAYS = 0.01
    FILES = [
        "p1__n40__s7.json",
        "p1__n40__s8.json",
        "flash-crowd__n40__s7.json",
        "flash-crowd__n40__s8.json",
    ]

    def _run(self, out, **kwargs):
        from repro.sweep import run_sweep

        return run_sweep(self.NAMES, self.SEEDS, self.PEERS, self.DAYS, str(out), **kwargs)

    def test_manifest_written_before_any_cell(self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod
        from repro.sweep import MANIFEST_SCHEMA, cell_key

        def boom(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_mod, "summarize_cell", boom)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            self._run(out)
        with open(out / "sweep_manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert [c["file"] for c in manifest["cells"]] == self.FILES
        for cell in manifest["cells"]:
            assert cell["key"] == cell_key(
                cell["scenario"], cell["n_peers"], cell["duration_days"], cell["seed"]
            )

    def test_killed_sweep_resumes_to_identical_artifacts(self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod

        reference = tmp_path / "reference"
        self._run(reference)

        # Kill the sweep inside its third cell: the first two are already
        # checkpointed on disk, nothing after them exists yet.
        out = tmp_path / "out"
        real = sweep_mod.summarize_cell
        calls = []

        def dies_on_third(cell, out_dir=None):
            calls.append((cell["scenario"], cell["seed"]))
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(cell, out_dir)

        monkeypatch.setattr(sweep_mod, "summarize_cell", dies_on_third)
        with pytest.raises(KeyboardInterrupt):
            self._run(out)
        assert (out / "p1__n40__s7.json").exists()
        assert (out / "p1__n40__s8.json").exists()
        assert not (out / "flash-crowd__n40__s7.json").exists()
        assert not (out / "sweep_summary.json").exists()

        # Resume simulates only the two unfinished cells and produces the
        # same artifacts, byte for byte, as the uninterrupted run.
        resumed = []

        def counting(cell, out_dir=None):
            resumed.append((cell["scenario"], cell["seed"]))
            return real(cell, out_dir)

        monkeypatch.setattr(sweep_mod, "summarize_cell", counting)
        self._run(out, resume=True)
        assert resumed == [("flash-crowd", 7), ("flash-crowd", 8)]
        for name in sorted(os.listdir(reference)):
            first = (reference / name).read_bytes()
            second = (out / name).read_bytes()
            assert first == second, f"{name} differs after resume"

    def test_resume_of_a_finished_sweep_recomputes_nothing(self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod

        out = tmp_path / "out"
        self._run(out)
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}

        def boom(*args):  # pragma: no cover - must not be reached
            raise AssertionError("a finished cell was re-simulated")

        monkeypatch.setattr(sweep_mod, "summarize_cell", boom)
        self._run(out, resume=True)
        after = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert after == before

    def test_resume_ignores_cells_written_under_other_flags(self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod

        out = tmp_path / "out"
        self._run(out)

        # A different duration keeps the filenames but changes every content
        # address, so --resume trusts nothing and re-runs all four cells.
        real = sweep_mod.summarize_cell
        rerun = []

        def counting(cell, out_dir=None):
            rerun.append((cell["scenario"], cell["seed"]))
            return real(cell, out_dir)

        monkeypatch.setattr(sweep_mod, "summarize_cell", counting)
        from repro.sweep import run_sweep

        run_sweep(self.NAMES, self.SEEDS, self.PEERS, 0.02, str(out), resume=True)
        assert len(rerun) == 4

    def test_cell_addresses_are_pinned(self):
        # --resume finds an interrupted sweep's cells by these addresses: a
        # refactor that changes them silently orphans every sweep on disk.
        from repro.sweep import cell_key

        assert cell_key("p1", 40, 0.01, 7) == "7ef976849d8aeaa6"
        assert cell_key("p1", 40, 0.01, 5) == "df0d808efd267981"
        overrides = {"retry": False, "loss_rate": 0.2}
        assert cell_key("lossy-links", 60, 0.02, 7, overrides, 300.0, 1.0) == "ab280493cb26b5d7"
        # claim views are part of the address only when asked for
        assert cell_key("p1", 40, 0.01, 5, views=()) == "df0d808efd267981"
        assert cell_key("p1", 40, 0.01, 5, views=["fig7"]) != "df0d808efd267981"

    def test_interrupted_write_leaves_the_previous_file_intact(self, tmp_path):
        from repro.sweep import _write_json

        path = tmp_path / "sweep_manifest.json"
        _write_json(str(path), {"cells": [1, 2, 3]})
        before = path.read_bytes()
        # The unserialisable value fails json.dump after it has already
        # streamed the head of the document to the handle.
        with pytest.raises(TypeError):
            _write_json(str(path), {"cells": [1, 2, object()]})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["sweep_manifest.json"]

    def test_force_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--scenarios", "p1", "--seeds", "7", "--peers", "30",
                "--duration", "0.01d", "--out", str(tmp_path / "out"),
                "--force", "--resume",
            ])
        assert excinfo.value.code == 2


class TestPlannedCells:
    """``run_cells``: planned cells with their own files, overrides and views."""

    #: the top-level keys of a cell summary without views
    BLOCKS = {
        "schema", "scenario", "n_peers", "duration_days", "seed", "overrides",
        "events_processed", "version_changes", "role_flips", "autonat_flips",
        "queries_sent", "crawls", "datasets", "churn", "content", "adversary",
        "netmodel", "resilience", "bandwidth", "metrics", "tracing",
    }

    def test_views_are_extra_blocks_of_an_unchanged_summary(self):
        from repro.analysis.views import VIEWS

        plain = summarize_cell(plan_cell("p1", 40, 0.01, 5))
        assert set(plain) == self.BLOCKS
        viewed = summarize_cell(plan_cell("p1", 40, 0.01, 5, views=["fig7", "table2"]))
        assert set(viewed) == self.BLOCKS | {"fig7", "table2"}
        assert {key: viewed[key] for key in self.BLOCKS} == plain
        assert set(viewed["fig7"]) == {
            "under_1h", "over_24h", "single_connection", "over_15_connections",
            "server_under_1h", "client_under_1h",
        }
        assert not self.BLOCKS & VIEWS.keys()

    def test_cells_differing_only_in_overrides_write_two_files(self, tmp_path):
        planned = [
            plan_cell("lossy-links", 30, 0.01, 7, {"loss_rate": rate}, stem=stem, views=views)
            for rate, stem, views in ((0.2, "lossy", ["partition"]), (0.0, "clean", []))
        ]
        texts = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            summaries, failures = run_cells(planned, str(out), workers=workers, progress=False)
            assert failures == []
            assert [s["overrides"] for s in summaries] == [{"loss_rate": 0.2}, {"loss_rate": 0.0}]
            assert "partition" in summaries[0] and "partition" not in summaries[1]
            with open(out / "sweep_manifest.json") as handle:
                assert json.load(handle)["cells"] == planned
            texts.append({name: (out / name).read_bytes() for name in ("lossy.json", "clean.json")})
            assert json.loads(texts[-1]["lossy.json"]) == summaries[0]
        assert texts[0] == texts[1]
        assert texts[0]["lossy.json"] != texts[0]["clean.json"]

    def test_a_cell_planned_with_telemetry_runs_with_it(self, tmp_path):
        # The planned cell is the only channel: run_cells is given nothing
        # but the cell, and the manifest's promise is what the cell does.
        cell = plan_cell("p1", 40, 0.01, 7, metrics_window=300.0, trace_sample=1.0)
        out = tmp_path / "out"
        (summary,), failures = run_cells([cell], str(out))
        assert failures == []
        with open(out / "sweep_manifest.json") as handle:
            (planned,) = json.load(handle)["cells"]
        assert planned["metrics_window"] == 300.0 and planned["trace_sample"] == 1.0
        assert (out / planned["metrics_file"]).stat().st_size > 0
        assert (out / planned["trace_file"]).exists()
        assert summary["metrics"] is not None and summary["tracing"] is not None
        assert json.loads((out / planned["file"]).read_text()) == summary


class TestFailingCells:
    """Satellite: a failing cell must not sink the sweep, but must exit nonzero."""

    FLAGS = [
        "--scenarios", "lossy-links",
        "--seeds", "7",
        "--peers", "30",
        "--duration", "0.01d",
        "--set", "loss_rate=0.2",
    ]

    @pytest.fixture
    def broken_cell(self, monkeypatch):
        """Every cell raises inside the worker, after its config built."""
        import repro.sweep as sweep_mod

        def broken(*args, **kwargs):
            raise ValueError("loss_rate broke the cell")

        monkeypatch.setattr(sweep_mod, "summarize_cell", broken)

    def test_failing_cell_exits_nonzero(self, tmp_path, capsys, broken_cell):
        exit_code = main(self.FLAGS + ["--out", str(tmp_path / "bad")])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "sweep cell failed" in err and "loss_rate" in err

    @pytest.mark.parametrize("bad", ["loss_rate=2.0", "loss_rate=-0.5", "sybil_count=-1"])
    def test_out_of_range_set_exits_2_naming_the_key(self, tmp_path, capsys, bad):
        name = "sybil-netsize-inflation" if bad.startswith("sybil") else "lossy-links"
        out = tmp_path / "bad"
        exit_code = main([
            "--scenarios", name, "--seeds", "7", "--peers", "30", "--duration", "0.01d",
            "--set", bad, "--out", str(out),
        ])
        assert exit_code == 2
        assert bad.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "telemetry",
        [[], ["--metrics-window", "120"], ["--trace-sample", "0.25"], ["--metrics", "--trace"]],
        ids=["plain", "metrics", "trace", "metrics+trace"],
    )
    def test_failure_is_recorded_in_the_artifacts(
        self, tmp_path, monkeypatch, broken_cell, telemetry
    ):
        out = tmp_path / "bad"
        main(self.FLAGS + telemetry + ["--out", str(out)])
        with open(out / "sweep_summary.json") as handle:
            aggregate = json.load(handle)
        assert aggregate["totals"]["cells"] == 0
        assert aggregate["totals"]["failed_cells"] == 1
        failure = aggregate["failures"][0]
        assert failure["scenario"] == "lossy-links"
        assert "ValueError" in failure["error"]
        assert "FAILED lossy-links" in (out / "sweep_table.txt").read_text()
        # The evidence: where it raised, which planned cell it was, and a
        # command line that re-runs just that cell to the same failure.
        assert failure["traceback"].startswith("Traceback (most recent call last)")
        assert "raise ValueError" in failure["traceback"]
        assert failure["error"] in failure["traceback"]
        with open(out / "sweep_manifest.json") as handle:
            (planned,) = json.load(handle)["cells"]
        assert failure["key"] == planned["key"]
        argv = shlex.split(failure["repro"])
        assert argv[:3] == ["python", "-m", "repro.sweep"]
        monkeypatch.chdir(tmp_path)
        assert main(argv[3:]) == 1
        with open(tmp_path / f"repro-{failure['key']}" / "sweep_summary.json") as handle:
            assert json.load(handle)["failures"] == [failure]

    def test_good_cells_still_run_alongside_a_failure(self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod

        real = sweep_mod.summarize_cell

        def flaky(cell, out_dir=None):
            if cell["seed"] == 8:
                raise RuntimeError("boom")
            return real(cell, out_dir)

        monkeypatch.setattr(sweep_mod, "summarize_cell", flaky)
        out = tmp_path / "mixed"
        exit_code = main([
            "--scenarios", "p1", "--seeds", "7,8", "--peers", "30",
            "--duration", "0.01d", "--out", str(out),
        ])
        assert exit_code == 1
        assert (out / "p1__n30__s7.json").exists()
        assert not (out / "p1__n30__s8.json").exists()

    def test_safe_wrapper_returns_an_error_record(self):
        record = summarize_cell_safe(plan_cell("p1", -5, 0.01, 7))
        assert record["scenario"] == "p1"
        assert record["error"].startswith("ValueError")


class TestCliParsing:
    def test_parse_duration_units(self):
        assert parse_duration_days("0.02d") == pytest.approx(0.02)
        assert parse_duration_days("12h") == pytest.approx(0.5)
        assert parse_duration_days("43200s") == pytest.approx(0.5)
        assert parse_duration_days("0.25") == pytest.approx(0.25)

    def test_parse_duration_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration_days("fast")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration_days("-1d")

    def test_unknown_scenario_fails_before_running(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--scenarios", "p1,no-such-scenario",
                "--seeds", "7",
                "--peers", "30",
                "--duration", "0.01d",
                "--out", str(tmp_path / "never"),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--scenarios" in err and "no-such-scenario" in err and "flash-crowd" in err
        assert not (tmp_path / "never").exists()

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "p14" in out
        assert "sybil-netsize-inflation" in out

    def test_list_flag_filters_by_tag(self, capsys):
        assert main(["--list", "--tag", "adversary"]) == 0
        out = capsys.readouterr().out
        assert "sybil-netsize-inflation" in out and "eclipse-provider" in out
        assert "p14" not in out and "flash-crowd" not in out

    def test_list_flag_rejects_unknown_tag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--list", "--tag", "no-such-tag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--tag 'no-such-tag'" in err and "adversary" in err

    def test_summarize_cell_uses_spec_defaults_for_peers(self):
        summary = summarize_cell(plan_cell("p1", None, 0.01, 3))
        assert summary["n_peers"] == 1500  # the period's bench default


class TestFlagValidation:
    """Satellite: malformed observability flags are rejected up front —
    exit 2 with an error naming the flag and the value, nothing simulated."""

    BASE = [
        "--scenarios", "p1",
        "--seeds", "7",
        "--peers", "30",
        "--duration", "0.01d",
    ]

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_rejects_nonpositive_metrics_window(self, tmp_path, capsys, window):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--metrics-window", window, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--metrics-window must be positive" in err
        assert f"got {float(window)}" in err
        assert not out.exists()  # rejected before anything ran

    @pytest.mark.parametrize("rate", ["0", "-0.1", "1.5"])
    def test_rejects_trace_sample_outside_unit_interval(self, tmp_path, capsys, rate):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--trace-sample", rate, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--trace-sample must be within (0, 1]" in err
        assert f"got {float(rate)}" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seeds", "7,x"),
            ("--peers", "50,x"),
            ("--peers", "0"),
            ("--peers", "-3"),
            ("--duration", "nan"),
            ("--duration", "inf"),
            ("--metrics-window", "nan"),
            ("--metrics-window", "inf"),
            ("--scenarios", "p1,P1"),
            ("--seeds", "7,8,7"),
            ("--peers", "30,40,30"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--workers", "two"),
        ],
    )
    def test_rejects_malformed_lists_and_non_finite_numbers(self, tmp_path, capsys, flag, value):
        # A NaN or infinite duration would never end the drain, so it must
        # not reach a worker; a malformed list must not leave main() as a
        # traceback; an empty population is not worth a failed cell; a
        # repeated value is one cell file counted twice in the aggregate
        # (and, with workers, written by two processes at once); a worker
        # count below one used to mean one, silently.
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + [flag, value, "--out", str(out)])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_a_repeated_set_key(self, tmp_path, capsys):
        # The second value used to win silently: the cell ran loss_rate=0.4.
        out = tmp_path / "never"
        argv = ["--scenarios", "lossy-links", "--peers", "40", "--duration", "0.01d"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--set", "loss_rate=0.1", "--set", "loss_rate=0.4", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "--set repeats loss_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_set_value_names_its_key(self, tmp_path, capsys):
        # The range check lives in the fault config and names its own field
        # ("share"); every config is built before anything runs, so the
        # rejection is a usage error that still says which --set key fed it.
        out = tmp_path / "never"
        argv = ["--scenarios", "crash-storm", "--peers", "40", "--duration", "0.01d"]
        assert main(argv + ["--set", "crash_share=1.5", "--out", str(out)]) == 2
        assert "error: crash_share=1.5: share must be within" in capsys.readouterr().err
        assert not out.exists()

    def test_period_knobs_reach_the_cell(self, tmp_path):
        flags = "--scenarios p2 --peers 40 --duration 0.01d --set low_water=600"
        flags += " --set high_water=900 --set crawler=false"
        assert main([*flags.split(), "--out", str(tmp_path)]) == 0
        cell = json.loads((tmp_path / "p2__n40__s7.json").read_text())
        assert cell["overrides"] == {"crawler": False, "high_water": 900, "low_water": 600}
        assert cell["crawls"] == 0

    @pytest.mark.parametrize(
        "override", ["uplink_scale=nan", "size_scale=inf", "size_scale=-1e999"]
    )
    def test_rejects_non_finite_set_values(self, tmp_path, capsys, override):
        # nan passes every `<= 0` range check and simulates; inf dies inside
        # the worker as an OverflowError that names no field.
        out = tmp_path / "never"
        argv = ["--scenarios", "flash-crowd-large-blocks", "--peers", "40", "--duration", "0.01d"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--set", override, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert override.partition("=")[0] in err and "finite" in err
        assert not out.exists()


#: run inside ``python -S``: no site-packages, so a third-party import fails
STDLIB_ONLY_SWEEP = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.sweep import main
code = main(["--scenarios", "p1,crash-storm", "--seeds", "7", "--peers", "40",
             "--duration", "0.01d", "--metrics", "--trace", "--no-progress",
             "--workers", "1", "--out", sys.argv[2]])
allowed = sys.stdlib_module_names | {"repro", "__main__", "__mp_main__"}
foreign = sorted({name.partition(".")[0] for name in sys.modules} - allowed)
print(code, foreign)
"""


def test_runtime_is_standard_library_only(tmp_path):
    """A metrics + trace micro-sweep completes without ``site-packages`` and
    loads nothing outside the standard library and ``repro`` itself."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY_SWEEP, str(src), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert len(list((tmp_path / "out").glob("*__traces.jsonl"))) == 2


class TestTracedCells:
    """--trace: per-cell traces.jsonl plus an embedded 'tracing' block."""

    TRACE_FLAGS = [
        "--scenarios", "high-latency-retrieval",
        "--seeds", "7",
        "--peers", "50",
        "--duration", "0.02d",
        "--trace",
    ]

    @pytest.fixture(scope="class")
    def traced_sweep(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("traced")
        assert main(self.TRACE_FLAGS + ["--out", str(out_dir)]) == 0
        return out_dir

    def test_writes_traces_jsonl_next_to_the_cell(self, traced_sweep):
        trace_path = traced_sweep / "high-latency-retrieval__n50__s7__traces.jsonl"
        lines = trace_path.read_text().splitlines()
        assert lines
        payloads = [json.loads(line) for line in lines]
        assert {p["schema"] for p in payloads} == {"repro-traces/1"}
        # Every embedded "slowest" pointer resolves to a line in the file.
        with open(traced_sweep / "high-latency-retrieval__n50__s7.json") as handle:
            summary = json.load(handle)
        keys = {p["key"] for p in payloads}
        assert {entry["key"] for entry in summary["tracing"]["slowest"]} <= keys

    def test_cell_embeds_critical_path_attribution(self, traced_sweep):
        with open(traced_sweep / "high-latency-retrieval__n50__s7.json") as handle:
            summary = json.load(handle)
        tracing = summary["tracing"]
        assert tracing["sample"] == 1.0
        assert tracing["retrieve_traces"] > 0
        assert tracing["retrieve_seconds"] > 0
        # The critical-path shares decompose the whole retrieval latency:
        # per-trace attribution telescopes to the root, so the fractions sum
        # to one within the 6-decimal rounding of each share.
        assert sum(tracing["critical_path"].values()) == pytest.approx(
            1.0, abs=1e-5
        )
        assert tracing["slowest"]
        assert "Crit path" in (traced_sweep / "sweep_table.txt").read_text()

    def test_untraced_cells_carry_null(self, micro_sweep):
        with open(micro_sweep / "p1__n50__s7.json") as handle:
            summary = json.load(handle)
        assert summary["tracing"] is None

    def test_traced_rerun_is_byte_identical(self, traced_sweep, tmp_path):
        rerun = tmp_path / "rerun"
        assert main(self.TRACE_FLAGS + ["--out", str(rerun)]) == 0
        for name in os.listdir(traced_sweep):
            assert (traced_sweep / name).read_bytes() == (rerun / name).read_bytes(), (
                f"{name} differs between identical traced sweeps"
            )

    def test_trace_sample_implies_trace(self, tmp_path):
        out = tmp_path / "sampled"
        assert main([
            "--scenarios", "p1", "--seeds", "7", "--peers", "30",
            "--duration", "0.01d", "--trace-sample", "0.25",
            "--out", str(out),
        ]) == 0
        with open(out / "p1__n30__s7.json") as handle:
            summary = json.load(handle)
        assert summary["tracing"]["sample"] == 0.25
        assert (out / "p1__n30__s7__traces.jsonl").exists()
