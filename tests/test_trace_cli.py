"""CLI tests: ``repro.obs.critical_path`` and the metrics-report entry point.

Both are pure post-processing over exported JSONL artifacts, so the tests
drive them over handcrafted files (plus one real traced run for the
critical-path tree) and assert the printed shape, the deterministic
ordering, and the exit-2 validation paths.
"""

import json

import pytest

from repro.analysis.metrics_report import main as metrics_main
from repro.obs.critical_path import main as critical_main
from repro.obs.spans import SpanTracer, TraceConfig
from repro.obs.trace_export import write_traces

import types


def traces_file(tmp_path):
    """A small deterministic traces.jsonl: two retrieves and one identify."""
    tracer = SpanTracer(TraceConfig(), types.SimpleNamespace(now=0.0))
    tracer.begin("content.retrieve", 0)
    tracer.push("walk", "walk")
    tracer.rpc("find_node", 1.5, "ok", rtt=1.5)
    tracer.pop(1.5, hops=1)
    tracer.transfer(0.5, 0.25, 0.75, 1.5, 4096)
    tracer.finish_root(3.0, providers=1)
    tracer.begin("content.retrieve", 1)
    tracer.rpc("find_node", 5.0, "dial_fail")
    tracer.finish_root(5.0, failed=True)
    assert tracer.begin_identify("go-ipfs", 2)
    tracer.finish_identify(2.0, 1.5, [("netmodel", 0.5)], "go-ipfs")
    path = tmp_path / "traces.jsonl"
    write_traces(tracer.finalize(0.0).traces, str(path))
    return path


class TestCriticalPathCLI:
    def test_prints_slowest_first_as_indented_trees(self, tmp_path, capsys):
        path = traces_file(tmp_path)
        assert critical_main([str(path)]) == 0
        out = capsys.readouterr().out
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 3
        # Slowest first: the 5s failed retrieve ahead of the 3s one.
        assert blocks[0].startswith(
            "#1 content.retrieve key=content.retrieve:1:1 5.000000s outcome=fail"
        )
        assert "#2 content.retrieve" in blocks[1]
        assert "#3 identify" in blocks[2]
        # The tree is indented, leaves carry categories and annotations.
        assert "  [op] content.retrieve" in blocks[0]
        assert "[dial] find_node  (outcome=dial_fail)" in blocks[0]
        assert "[transfer] transfer  (size=4096)" in blocks[1]
        assert "      " in blocks[1]  # transfer components nest two deep
        # Every block closes with its attribution line.
        for block in blocks:
            assert "critical path: " in block

    def test_attribution_line_sums_the_categories(self, tmp_path, capsys):
        path = traces_file(tmp_path)
        assert critical_main([str(path), "--top", "1", "--op", "identify"]) == 0
        out = capsys.readouterr().out
        assert "critical path: other=1.500000s walk=0.500000s" in out

    def test_top_and_op_filters(self, tmp_path, capsys):
        path = traces_file(tmp_path)
        assert critical_main([str(path), "--top", "1"]) == 0
        assert capsys.readouterr().out.count("#") == 1
        assert critical_main([str(path), "--op", "content.provide"]) == 0
        assert capsys.readouterr().out.strip() == "no matching traces"

    def test_rejects_bad_top_and_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            critical_main([str(tmp_path / "traces.jsonl"), "--top", "0"])
        assert excinfo.value.code == 2
        assert "--top must be positive, got 0" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            critical_main([str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err


def metrics_file(tmp_path, n_windows=3):
    """A handcrafted metrics.jsonl in the hub's export shape."""
    from repro.obs.hub import DEFAULT_TIME_BUCKETS

    lines = []
    for index in range(n_windows):
        # 10 observations per window, all inside the (0.1, 0.25] bucket.
        buckets = [0] * (len(DEFAULT_TIME_BUCKETS) + 1)
        buckets[2] = 10
        lines.append({
            "index": index,
            "start": index * 120.0,
            "end": (index + 1) * 120.0,
            "counters": {"rpc.sent": 5 * (index + 1), "rpc.lost": 1},
            "gauges": {},
            "histograms": {
                "walk.seconds": {"count": 10, "sum": 2.0, "buckets": buckets},
            },
        })
    path = tmp_path / "metrics.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


class TestMetricsReportCLI:
    def test_summarizes_windows_counters_and_percentiles(self, tmp_path, capsys):
        path = metrics_file(tmp_path)
        assert metrics_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "windows: 3" in out
        assert "window_seconds: 120" in out
        assert "histogram observations: 30" in out
        # Counters rank by run total, descending: 5+10+15 beats 3x1.
        assert out.index("rpc.sent: 30") < out.index("rpc.lost: 3")
        assert "top counters (2 of 2):" in out
        # All mass in (0.1, 0.25]: every percentile interpolates inside it.
        assert "walk.seconds: count=30 p50=0.175 p90=0.235 p99=0.2485" in out

    def test_top_limits_the_counter_list(self, tmp_path, capsys):
        path = metrics_file(tmp_path)
        assert metrics_main([str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top counters (1 of 2):" in out
        assert "rpc.lost" not in out

    def test_empty_series_prints_zeroes(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_text("")
        assert metrics_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "windows: 0" in out
        assert "histogram observations: 0" in out

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = metrics_file(tmp_path)
        path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        assert metrics_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "windows: 3" in out
        assert "rpc.sent: 30" in out

    def test_rejects_bad_top_and_missing_file(self, tmp_path, capsys):
        path = metrics_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            metrics_main([str(path), "--top", "0"])
        assert excinfo.value.code == 2
        assert "--top must be positive, got 0" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            metrics_main([str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "missing_field"])
@pytest.mark.parametrize(
    "main, make_file, field",
    [(critical_main, traces_file, "seconds"), (metrics_main, metrics_file, "end")],
    ids=["critical_path", "metrics_report"],
)
def test_bad_line_exits_2_naming_the_line(main, make_file, field, damage, tmp_path, capsys):
    path = make_file(tmp_path)
    lines = path.read_text().splitlines()
    if damage == "truncated":
        bad, reason = lines[0][:-7], "invalid JSON"
    else:
        payload = json.loads(lines[0])
        del payload[field]
        bad, reason = json.dumps(payload), f"missing field {field}"
    path.write_text("\n".join(lines + [bad]) + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main([str(path)])
    assert excinfo.value.code == 2
    assert f"{path}:{len(lines) + 1}: {reason}" in capsys.readouterr().err


# ``seconds`` and ``end`` are the missing-field cases above.
@pytest.mark.parametrize(
    "main, make_file, field",
    [
        pytest.param(critical_main, traces_file, field, id=f"critical_path-{field}")
        for field in ("key", "op", "outcome", "root")
    ]
    + [pytest.param(metrics_main, metrics_file, "start", id="metrics_report-start")],
)
def test_every_field_the_cli_reads_is_required(main, make_file, field, tmp_path, capsys):
    path = make_file(tmp_path)
    lines = path.read_text().splitlines()
    payload = json.loads(lines[1])
    del payload[field]
    lines[1] = json.dumps(payload)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main([str(path)])
    assert excinfo.value.code == 2
    assert f"{path}:2: missing field {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "main, make_file",
    [(critical_main, traces_file), (metrics_main, metrics_file)],
    ids=["critical_path", "metrics_report"],
)
def test_a_line_that_is_not_an_object_exits_2(main, make_file, tmp_path, capsys):
    path = make_file(tmp_path)
    with path.open("a") as handle:
        handle.write("[1, 2]\n")
    lines = len(path.read_text().splitlines())
    with pytest.raises(SystemExit) as excinfo:
        main([str(path)])
    assert excinfo.value.code == 2
    assert f"{path}:{lines}: not a JSON object" in capsys.readouterr().err
