"""Smoke test of the repository benchmark (collected by the tier-1 command).

Runs ``run.py --smoke`` once — the same four pipelines at 80 peers / 0.02 d,
one repetition plus the traced run — and checks that the benchmark emits what
``BENCHMARK.json`` promises.  Timings are not asserted; shapes are.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
RUN = os.path.join(E2E_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *argv], capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e") / "smoke.json")
    proc = _run("--smoke", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as handle:
        result = json.load(handle)
    with open(out + ".trace.json") as handle:
        traces = json.load(handle)
    return {"path": out, "result": result, "traces": traces, "stdout": proc.stdout}


def test_every_workload_and_end_to_end_metric_is_emitted(spec, smoke):
    workloads = smoke["result"]["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in spec["workloads"])
    for name, workload in workloads.items():
        assert workload["failed"] == 0, workload["failures"]
        assert workload["attempted"] >= 2
        assert workload["events"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", workload["sim_fingerprint"])
        for entry in spec["end_to_end"]:
            summary = workload["end_to_end"][entry["name"]]
            assert summary["unit"] == entry["unit"]
            assert summary["median"] > 0, (name, entry["name"])
            assert summary["n"] == 1
            assert f"{entry['name']:<28}" in smoke["stdout"]


def test_every_per_layer_metric_is_emitted_for_every_workload(spec, smoke):
    expected = {entry["name"] for entry in spec["per_layer"]}
    for name, workload in smoke["result"]["workloads"].items():
        layers = workload["per_layer"]
        assert set(layers) == expected, (name, set(layers) ^ expected)
        assert all(isinstance(v, (int, float)) for v in layers.values())
        assert workload["traced_run_matches"] == {
            "events": True, "sim_fingerprint": True, "netsize_rel_err": True,
        }


def test_benchmark_json_names_and_units_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_trace_covers_the_run_and_layers_sit_where_they_should(smoke):
    workloads = smoke["result"]["workloads"]
    for name, workload in workloads.items():
        layers = workload["per_layer"]
        # The >= 0.9 floor applies to full-size runs only.
        assert 0 < layers["trace.coverage"] <= 1.05, name
        assert layers["engine.events"] == workload["events"]
        assert layers["engine.drain_s"] > 0
        obs = {k: v for k, v in layers.items() if k.startswith("obs.")}
        if name == "sweep-cli":
            assert obs["obs.windows"] > 0 and obs["obs.trace_bytes"] > 0
        else:
            assert not any(obs.values()), (name, obs)
    assert workloads["passive-steady"]["netsize_rel_err"] is not None
    # p0's first crawl is due after the smoke window; nat-heavy-crawl's is not.
    assert workloads["sweep-cli"]["per_layer"]["crawler.crawls"] > 0
    assert workloads["content-fullstack"]["per_layer"]["dht.walks"] > 0
    assert workloads["setup-heavy"]["per_layer"]["routing_table.add_peer_calls"] > 0
    trace = smoke["traces"]["workloads"]["passive-steady"]
    assert trace["span_fields"] == ["name", "start_s", "end_s", "parent"]
    assert all(-1 <= span[3] < index for index, span in enumerate(trace["spans"]))


def test_compare_of_a_file_with_itself_is_all_within(smoke):
    proc = _run("--compare", smoke["path"], smoke["path"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"within"}


def test_compare_flags_a_worse_median(smoke, tmp_path):
    worse = json.loads(json.dumps(smoke["result"]))
    summary = worse["workloads"]["setup-heavy"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3", "min", "max"):
        summary[key] *= 1.5
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    proc = _run("--compare", smoke["path"], str(path))
    assert proc.returncode == 1
    assert any(
        line.split()[:2] == ["setup-heavy", "wall_s"] and line.endswith("worse")
        for line in proc.stdout.splitlines()
    )
