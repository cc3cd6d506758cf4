"""The repository benchmark: four workloads, end to end and layer by layer.

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints one JSON object as the last line of stdout:
with ``--trace 0`` the mean of every end-to-end metric (of ``setup_s`` the
median) over as many fresh child processes as fit in ``S`` seconds, never fewer
than four, each with a scenario seed of its own derived from ``N``; with
``--trace 1`` every per-layer metric from one traced run.

Without ``--workload`` the same code measures all four workloads from this one
driver process, interleaved round-robin so machine drift hits all alike, then
traces each once, prints every metric by name with its unit and writes the
result to ``--out``::

    python3 benchmarks/e2e/run.py [--seed 7] [--reps 7] [--out PATH] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every timed run is a fresh child process (cold imports, no cross-run caches:
users pay set-up on every run), one at a time (closed loop).  End-to-end
numbers never come from a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from compare import compare_files, render_comparison, summarize
from workloads import E2E_DIR, REPO_ROOT, SRC_DIR, SWEEP_WORKERS, WORKLOADS, Workload

SCHEMA = "repro-e2e-bench/1"
#: scratch space inside the checkout; listed in .gitignore, removed on exit
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_work")
CHILD = os.path.join(E2E_DIR, "child.py")
EXPECTED = os.path.join(E2E_DIR, "expected.json")
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
#: children of a ``--seconds``-bounded run, whatever the time they take
MIN_CHILDREN = 4
#: distance between the scenario seeds of one run's children
SEED_STRIDE = 1000


def load_spec() -> Dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- child processes -------------------------------------------------------------------


def timed_process(argv: List[str], log_prefix: str, stamp: bool = False) -> Dict:
    """Run ``argv`` to completion and account for it from outside.

    Wall is spawn to exit as the parent sees it; CPU and peak RSS come from
    ``wait4`` and cover the child and every worker it reaped.  ``stamp``
    appends ``--spawned-at <time.time()>`` so the child can count its own
    times from the spawn.  The child gets its own process group, so a kill
    (timeout or interrupt) also reaches a sweep's pool workers.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        if stamp:
            argv = argv + ["--spawned-at", repr(time.time())]
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=REPO_ROOT, start_new_session=True
        )

        def kill_group() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": log_prefix + ".out",
        "stderr": log_prefix + ".err",
    }


def _last_json_line(path: str) -> Optional[Dict]:
    try:
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None


def _stderr_tail(path: str) -> str:
    with open(path, errors="replace") as handle:
        return " | ".join(handle.read().strip().splitlines()[-3:])


# -- output checks ---------------------------------------------------------------------


def _load_json(path: str, failures: List[str]) -> Optional[Dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        failures.append(f"{os.path.basename(path)}: {type(exc).__name__}: {exc}")
        return None


def _check_cell(cell: Dict, where: str, failures: List[str]) -> None:
    """Structural checks every cell summary must pass, whatever the seed."""
    if not str(cell.get("schema", "")).startswith("repro-sweep-cell/"):
        failures.append(f"{where}: schema tag {cell.get('schema')!r}")
    if not cell.get("events_processed", 0) > 0:
        failures.append(f"{where}: no events processed")
    datasets = cell.get("datasets") or {}
    if not datasets or not all(d.get("connections", 0) > 0 for d in datasets.values()):
        failures.append(f"{where}: empty dataset")


def check_scenario(workload: Workload, out_dir: str, smoke: bool, failures: List[str]) -> Dict:
    """Check one scenario run's artifact; returns its fingerprint and events.

    The fingerprint is the sha256 of the canonical (sorted keys, no
    whitespace) form of the cell summary, so it pins every simulated
    statistic the summary carries.
    """
    cell = _load_json(os.path.join(out_dir, "cell.json"), failures)
    if cell is None:
        return {"sim_fingerprint": None, "events": 0}
    _check_cell(cell, "cell.json", failures)
    # The smoke window is too short for the catalogue's first retrieval.
    if workload.retrieves and not smoke:
        if not (cell.get("content") or {}).get("retrievals", 0) > 0:
            failures.append("cell.json: no retrievals attempted")
    canonical = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    return {
        "sim_fingerprint": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "events": cell.get("events_processed", 0),
    }


def check_sweep(workload: Workload, out_dir: str, failures: List[str]) -> Dict:
    """Check a sweep's artifacts; returns fingerprint, events, failed cells.

    The fingerprint covers ``sweep_summary.json`` (every cell summary) and
    every ``*.jsonl`` export, by name and bytes.
    """
    cells = workload.operations()
    summary = _load_json(os.path.join(out_dir, "sweep_summary.json"), failures)
    if summary is None:
        return {"sim_fingerprint": None, "events": 0, "failed_cells": cells}
    bad = set()
    for failure in summary.get("failures", []):
        bad.add((failure.get("scenario"), failure.get("seed")))
        failures.append(f"cell {failure.get('scenario')} seed {failure.get('seed')}: "
                        f"{failure.get('error')}")
    seen = set()
    for cell in summary.get("cells", []):
        key = (cell.get("scenario"), cell.get("seed"))
        seen.add(key)
        before = len(failures)
        _check_cell(cell, f"cell {key[0]} seed {key[1]}", failures)
        stem = f"{cell.get('scenario')}__n{cell.get('n_peers')}__s{cell.get('seed')}"
        for suffix in (".json", "__metrics.jsonl", "__traces.jsonl"):
            if not os.path.isfile(os.path.join(out_dir, stem + suffix)):
                failures.append(f"missing artifact {stem}{suffix}")
        if len(failures) > before:
            bad.add(key)
    missing = cells - len(seen | bad)
    if missing > 0:
        failures.append(f"{missing} of {cells} cells missing from sweep_summary.json")
    digest = hashlib.sha256()
    names = ["sweep_summary.json"] + sorted(
        name for name in os.listdir(out_dir) if name.endswith(".jsonl")
    )
    for name in names:
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(handle.read())
    return {
        "sim_fingerprint": digest.hexdigest(),
        "events": summary.get("totals", {}).get("events_processed", 0),
        "failed_cells": min(cells, len(bad) + max(missing, 0)),
    }


# -- one run ---------------------------------------------------------------------------


def run_once(workload: Workload, seed: int, smoke: bool, run_dir: str,
             traced: bool = False) -> Dict:
    """One fresh-process run of ``workload``; returns its record.

    ``traced`` runs it under the layer wrappers instead: the record then also
    carries ``layers`` and ``trace_file``, and its timings are not end-to-end
    numbers.
    """
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    record: Dict = {"seed": seed, "attempted": workload.operations(), "failures": []}
    failures: List[str] = record["failures"]
    child_argv = [
        sys.executable, CHILD, "--workload", workload.name, "--seed", str(seed),
        "--out-dir", out_dir,
    ] + (["--smoke"] if smoke else [])
    report: Optional[Dict] = {}
    if traced:
        record["trace_file"] = os.path.join(run_dir, "trace.json")
        outcome = timed_process(
            child_argv + ["--trace-out", record["trace_file"]],
            os.path.join(run_dir, "child"), stamp=True,
        )
        report = _last_json_line(outcome["stdout"])
    elif workload.is_sweep:
        # Set-up of the CLI: a cold import + registry + flag parsing run that
        # simulates nothing.
        listing = timed_process(
            [sys.executable, "-m", "repro.sweep", "--list"], os.path.join(run_dir, "list")
        )
        if listing["exit_code"] != 0:
            failures.append(f"--list exited {listing['exit_code']}")
        record["setup_s"] = listing["wall_s"]
        outcome = timed_process(
            workload.sweep_argv(seed, out_dir, smoke), os.path.join(run_dir, "child")
        )
    else:
        outcome = timed_process(child_argv, os.path.join(run_dir, "child"), stamp=True)
        report = _last_json_line(outcome["stdout"])

    if outcome["exit_code"] != 0:
        failures.append(f"exit code {outcome['exit_code']}: {_stderr_tail(outcome['stderr'])}")
    if report is None:
        failures.append("child printed no report")
        report = {}
    if workload.is_sweep:
        checked = check_sweep(workload, out_dir, failures)
    else:
        checked = check_scenario(workload, out_dir, smoke, failures)
        if report and report.get("events") != checked["events"]:
            failures.append("events in the report and in cell.json differ")
    record.update(
        wall_s=outcome["wall_s"],
        cpu_s=outcome["cpu_s"],
        peak_rss_mb=outcome["peak_rss_mb"],
        events=checked["events"],
        events_per_s=checked["events"] / outcome["wall_s"],
        sim_fingerprint=checked["sim_fingerprint"],
        netsize_rel_err=report.get("netsize_rel_err"),
    )
    record.setdefault("setup_s", report.get("setup_s"))
    if record["setup_s"] is None:
        # A traced sweep has no set-up phase of its own; a crashed child none at all.
        record["setup_s"] = 0.0
        if not traced:
            failures.append("no set-up time reported")
    if traced:
        record["layers"] = report.get("layers", {})
        record["traced_wall_s"] = report.get("traced_wall_s", outcome["wall_s"])
    # Failed cells fail alone; any other failure fails every operation of the run.
    record["failed"] = (checked.get("failed_cells") or record["attempted"]) if failures else 0
    return record


def agreement(records: List[Dict], smoke: bool, workload: Workload) -> List[str]:
    """Simulated statistics must repeat exactly: across all runs of one
    scenario seed, and for the pinned seed against ``expected.json``."""
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    by_seed: Dict[int, List[Dict]] = {}
    for record in records:
        by_seed.setdefault(record["seed"], []).append(record)
    problems = []
    for seed, group in by_seed.items():
        differing = [
            key for key in ("sim_fingerprint", "events", "netsize_rel_err")
            if len({json.dumps(record[key]) for record in group}) > 1
        ]
        problems.extend(f"{key} differs between runs of seed {seed}" for key in differing)
        if not smoke and seed == expected["seed"] and not differing:
            for key, value in expected["workloads"][workload.name].items():
                if group[0][key] != value:
                    problems.append(f"{key} {group[0][key]!r} != expected {value!r}")
    return problems


def verdict(records: List[Dict], smoke: bool, workload: Workload):
    """``(problems, attempted, failed)`` over all runs of one workload.

    A problem that is nobody's failed operation (runs that disagree with each
    other or with the pin) fails every operation.
    """
    problems = agreement(records, smoke, workload)
    for record in records:
        problems.extend(record["failures"])
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    if problems and not failed:
        failed = attempted
    return problems, attempted, failed


def derived_layers(traced: Dict, untraced_wall_s: float, untraced_cpu_s: float,
                   workload: Workload) -> Dict[str, float]:
    """The per-layer metrics that need an untraced run beside the traced one."""
    if not traced["layers"]:
        return {}  # the traced child died; its failures are already recorded
    workers = SWEEP_WORKERS if workload.is_sweep else 1
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["traced_wall_s"] / untraced_wall_s
    layers["runner.parallel_efficiency"] = untraced_cpu_s / (workers * untraced_wall_s)
    # Wall the pool did not turn into cell work: the traced run's serial
    # cell seconds, spread perfectly over the workers, against the real wall.
    layers["runner.pool_overhead_s"] = (
        untraced_wall_s - layers["sweep.cells_s"] / workers if workload.is_sweep else 0.0
    )
    return layers


# -- the driver contract: one workload per invocation -------------------------------------


def contract_main(args, spec: Dict, work_dir: str) -> int:
    workload = WORKLOADS[args.workload]
    records: List[Dict] = []
    started = time.perf_counter()
    while True:
        run_dir = os.path.join(work_dir, f"run{len(records)}")
        os.makedirs(run_dir)
        # Every child gets a scenario seed of its own: host time depends on
        # the seed (by a fifth between seeds of content-fullstack), so a run
        # over several seeds is steadier than repetitions of one draw.
        scenario_seed = args.seed + SEED_STRIDE * len(records)
        records.append(run_once(workload, scenario_seed, args.smoke, run_dir))
        shutil.rmtree(run_dir)
        child = {entry["name"]: records[-1][entry["name"]] for entry in spec["end_to_end"]}
        print(f"child seed {scenario_seed} " + json.dumps(child), file=sys.stderr)
        elapsed = time.perf_counter() - started
        if args.trace or (
            len(records) >= MIN_CHILDREN and elapsed + elapsed / len(records) > args.seconds
        ):
            break
    if args.trace:
        # One untraced run (above) is the reference the traced one is held to.
        run_dir = os.path.join(work_dir, "traced")
        os.makedirs(run_dir)
        traced = run_once(workload, args.seed, args.smoke, run_dir, traced=True)
        records.append(traced)
        layers = derived_layers(traced, records[0]["wall_s"], records[0]["cpu_s"], workload)
        if not layers:
            print(f"FAILED {workload.name}: {traced['failures']}", file=sys.stderr)
            return 1
        metrics = {
            entry["name"]: {"value": layers[entry["name"]], "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
    else:
        # The children are different inputs, not repetitions of one, so a
        # timing is their mean; set-up is short enough for one stall to be a
        # large share of it, so it is their median.
        metrics = {
            entry["name"]: {
                "value": (statistics.median if entry["name"] == "setup_s" else statistics.fmean)(
                    record[entry["name"]] for record in records
                ),
                "unit": entry["unit"],
            }
            for entry in spec["end_to_end"]
        }
    problems, attempted, failed = verdict(records, args.smoke, workload)
    for problem in problems:
        print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- the whole benchmark from one driver process ---------------------------------------------


def environment() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def full_main(args, spec: Dict, work_dir: str) -> int:
    reps = 1 if args.smoke else args.reps
    names = list(WORKLOADS)
    result = {
        "schema": SCHEMA,
        "seed": args.seed,
        "smoke": args.smoke,
        "repetitions": reps,
        "environment": environment(),
        "end_to_end": {
            entry["name"]: {k: entry[k] for k in ("unit", "better", "bound")}
            for entry in spec["end_to_end"]
        },
        "workloads": {},
    }
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    for rep in range(reps):
        for name in names:
            run_dir = os.path.join(work_dir, f"{name}-{rep}")
            os.makedirs(run_dir)
            record = run_once(WORKLOADS[name], args.seed, args.smoke, run_dir)
            shutil.rmtree(run_dir)
            runs[name].append(record)
            print(f"[{rep + 1}/{reps}] {name}: wall {record['wall_s']:.3f} s", file=sys.stderr)

    traces = {}
    any_problem = False
    for name in names:
        workload = WORKLOADS[name]
        records = runs[name]
        run_dir = os.path.join(work_dir, f"{name}-traced")
        os.makedirs(run_dir)
        traced = run_once(workload, args.seed, args.smoke, run_dir, traced=True)
        if os.path.isfile(traced["trace_file"]):
            with open(traced.pop("trace_file")) as handle:
                traces[name] = json.load(handle)
        shutil.rmtree(run_dir)
        end_to_end = {}
        for entry in spec["end_to_end"]:
            summary = summarize([record[entry["name"]] for record in records])
            summary["unit"] = entry["unit"]
            # Noise guard: a spread wider than the bound cannot resolve a
            # change of the size the bound allows.
            summary["unresolved"] = summary["iqr_over_median"] > entry["bound"]
            end_to_end[entry["name"]] = summary
        problems, attempted, failed = verdict(records + [traced], args.smoke, workload)
        any_problem = any_problem or bool(problems)
        result["workloads"][name] = {
            "why": workload.why,
            "end_to_end": end_to_end,
            "sim_fingerprint": records[0]["sim_fingerprint"],
            "events": records[0]["events"],
            "netsize_rel_err": records[0]["netsize_rel_err"],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": problems,
            # How far the traced run matches the untraced ones (must be exact).
            "traced_run_matches": {
                key: traced[key] == records[0][key]
                for key in ("events", "sim_fingerprint", "netsize_rel_err")
            },
            "per_layer": derived_layers(
                traced, end_to_end["wall_s"]["median"], end_to_end["cpu_s"]["median"], workload
            ),
            "runs": [
                {k: v for k, v in record.items() if k != "failures"} for record in records
            ],
        }
    result["environment"]["loadavg_end"] = list(os.getloadavg())

    print(render_result(result, spec))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        with open(args.out + ".trace.json", "w") as handle:
            json.dump({"schema": SCHEMA, "seed": args.seed, "workloads": traces}, handle)
            handle.write("\n")
        print(f"\nwrote {args.out} and {args.out}.trace.json")
    return 1 if any_problem else 0


def render_result(result: Dict, spec: Dict) -> str:
    lines = []
    for name, workload in result["workloads"].items():
        lines.append(f"\n== {name} ==  (n={result['repetitions']}, seed {result['seed']})")
        for metric, s in workload["end_to_end"].items():
            flag = "  UNRESOLVED (spread > bound)" if s["unresolved"] else ""
            lines.append(
                f"  {metric:<28} {s['median']:>14.4f} {s['unit']:<9} "
                f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}  "
                f"IQR/median {s['iqr_over_median']:.3f}{flag}"
            )
        err = workload["netsize_rel_err"]
        lines.append(f"  {'netsize_rel_err':<28} {'n/a' if err is None else format(err, '>14.4f')}"
                     f" {'ratio':<9} exact")
        lines.append(f"  {'failed_share':<28} {workload['failed_share']:>14.4f} {'ratio':<9} "
                     f"{workload['failed']} of {workload['attempted']} operations")
        lines.append(f"  {'events':<28} {workload['events']:>14} {'count':<9} exact")
        lines.append(f"  {'sim_fingerprint':<28} {workload['sim_fingerprint']}")
        lines.append(f"  traced run matches untraced: {workload['traced_run_matches']}")
        for problem in workload["failures"]:
            lines.append(f"  FAILED: {problem}")
        lines.append("  -- per layer (one traced run) --")
        for entry in spec["per_layer"]:
            value = workload["per_layer"].get(entry["name"], 0.0)
            if value:
                lines.append(f"  {entry['name']:<28} {value:>14.4f} {entry['unit']}")
    return "\n".join(lines)


# -- entry point -----------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="measure this one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=7,
                        help="scenario seed (sweep-cli uses seed and seed+1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: time to fill with child processes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics of a traced run")
    parser.add_argument("--reps", type=int, default=7,
                        help="without --workload: repetitions per workload (at least 5)")
    parser.add_argument("--out", default=None,
                        help="without --workload: result file (its traces go to OUT.trace.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition, no fingerprint pin")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files; exit 1 if any metric is worse")
    args = parser.parse_args(argv)

    if args.compare:
        rows = compare_files(*args.compare)
        print(render_comparison(rows))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0
    if args.workload is None and not args.smoke and args.reps < 5:
        parser.error("--reps must be at least 5")
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: the program under test is not at {SRC_DIR}", file=sys.stderr)
        return 2

    # A terminated benchmark still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.workload is not None:
            return contract_main(args, spec, work_dir)
        return full_main(args, spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    raise SystemExit(main())
