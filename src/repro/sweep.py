"""Cartesian scenario sweeps: ``python -m repro.sweep``.

Runs every combination of the requested scenarios × seeds × population sizes
through the registry, one simulation per cell, optionally fanned out over
``--workers`` processes (every cell is simulated single-threaded and
independently seeded, so the pool changes wall time only — never results).
Each cell writes one JSON summary; the sweep writes an aggregate JSON plus a
rendered table.  Every cell's config is built before anything runs, so an
override a builder rejects (unknown, mistyped or out of range) exits 2,
naming the key, with no output written.  A cell that raises does not abort
the sweep: the remaining cells still run, the failure is reported in the
artifacts and on stderr, and the CLI exits nonzero.  All artifacts are
deterministic — no timestamps, no wall-clock fields — so two sweeps with the
same flags produce byte-identical files.

:func:`run_sweep` plans the cartesian cells (:func:`plan_cell`) and hands
them to :func:`run_cells`, the executor (build check, manifest, pool,
checkpoints, aggregate).  Other planners hand it cells of their own: the
claims registry (:mod:`repro.experiments.fidelity`) plans one cell per run
and seed, each with its own overrides, file stem and claim views.

Sweeps checkpoint as they go: a manifest of content-addressed cells
(``sweep_manifest.json``) is written before any simulation and every cell
summary lands on disk the moment it completes.  ``--resume`` continues an
interrupted sweep — completed cells whose key still matches are loaded from
disk instead of re-simulated, and the aggregate artifacts come out
byte-identical to an uninterrupted run.

Examples::

    python -m repro.sweep --list
    python -m repro.sweep --scenarios p1,flash-crowd --seeds 7,8 \\
        --peers 50 --duration 0.02d
    python -m repro.sweep --workers 4 \\
        --scenarios p0,p1,p2,p3,p4,p14 --seeds 7 --peers 400 --duration 0.1d
    python -m repro.sweep --scenarios p2 --set low_water=600 --set high_water=900
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shlex
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.attack_report import attack_metrics
from repro.analysis.content_report import content_metrics
from repro.analysis.metrics_report import metrics_metrics
from repro.analysis.reachability_report import reachability_metrics
from repro.analysis.resilience_report import resilience_metrics
from repro.analysis.sweep_report import (
    CELL_SCHEMA,
    aggregate_payload,
    render_aggregate,
)
from repro.analysis.tables import TextTable, format_count
from repro.analysis.trace_report import tracing_metrics
from repro.analysis.transfer_report import transfer_metrics
from repro.artifacts import TMP_SUFFIX, atomic_write
from repro.core.churn import connection_statistics, trim_share
from repro.scenarios.registry import build_scenario_config, scenario, scenarios

#: default output directory of sweep artifacts
DEFAULT_OUT_DIR = "sweep_out"


class SweepOutputError(RuntimeError):
    """Raised when the output directory already holds artifacts (no --force).

    A re-run into a non-empty directory would silently mix old and new cell
    JSON (stale cells from a previous flag set survive alongside fresh ones),
    so the sweep refuses before simulating anything.
    """


class CellConfigError(ValueError):
    """Raised before anything runs or is written when a planned cell's config
    does not build: its builder rejects an override (unknown key, wrong type,
    or out of range), and the message names the key."""


def parse_duration_days(text: str) -> float:
    """Parse a duration flag: ``0.02d`` (days), ``12h``, ``1800s``, or a bare
    number of days."""
    raw = text.strip().lower()
    factor = 1.0
    if raw.endswith("d"):
        raw = raw[:-1]
    elif raw.endswith("h"):
        raw, factor = raw[:-1], 1.0 / 24.0
    elif raw.endswith("s"):
        raw, factor = raw[:-1], 1.0 / 86_400.0
    try:
        days = float(raw) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r} (expected e.g. 0.02d, 12h, 1800s)"
        ) from None
    if not 0 < days < float("inf"):  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"duration must be positive and finite, got {text!r}")
    return days


def _parse_int_list(text: str) -> List[int]:
    """argparse ``type=`` (``--seeds``): comma-separated integers."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer list {text!r}") from None


def _parse_peers(text: str) -> List[int]:
    """argparse ``type=`` (``--peers``): comma-separated positive integers."""
    peers = _parse_int_list(text)
    if any(n < 1 for n in peers):
        raise argparse.ArgumentTypeError(f"population sizes must be >= 1, got {text!r}")
    return peers


def parse_override(text: str) -> Tuple[str, object]:
    """Parse one ``--set key=value`` pair.

    Values are coerced ``int`` → ``float`` → ``bool`` (``true``/``false``) →
    string, in that order, so ``--set uplink_scale=0.25`` reaches the builder
    as a float and ``--set retry=false`` as a bool.  ``nan`` / ``inf`` parse
    as floats but pass every range check a builder makes, so they are
    rejected here.
    """
    key, separator, raw = text.partition("=")
    key = key.strip()
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"invalid --set {text!r} (expected key=value, e.g. uplink_scale=0.25)"
        )
    raw = raw.strip()
    for cast in (int, float):
        try:
            value = cast(raw)
        except ValueError:
            continue
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"--set {key} must be finite, got {raw!r}")
        return key, value
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    return key, raw


def dataset_counts(result) -> Dict[str, Dict[str, int]]:
    """Summarise a :class:`ScenarioResult`'s datasets as plain counts."""
    counts: Dict[str, Dict[str, int]] = {}
    for label in sorted(result.datasets):
        dataset = result.datasets[label]
        counts[label] = {
            "peers": len(dataset.peers),
            "connections": len(dataset.connections),
            "snapshots": len(dataset.snapshots),
            "changes": len(dataset.changes),
        }
    return counts


def summarize_cell(
    name: str,
    n_peers: Optional[int],
    duration_days: Optional[float],
    seed: int,
    overrides: Optional[Dict] = None,
    metrics_window: Optional[float] = None,
    metrics_path: Optional[str] = None,
    trace_sample: Optional[float] = None,
    trace_path: Optional[str] = None,
    views: Sequence[str] = (),
) -> Dict:
    """Run one sweep cell and reduce it to a deterministic summary dict.

    With ``metrics_window`` set the cell runs with the streaming-metrics
    runtime attached: the windowed time series goes to ``metrics_path``
    (one JSONL line per closed window) and the summary gains a ``metrics``
    block.  ``trace_sample`` likewise attaches the causal span tracer: the
    sampled trace trees go to ``trace_path`` and the summary gains a
    ``tracing`` block with critical-path attribution.  ``views`` names claim
    views (:data:`repro.analysis.views.VIEWS`) to add as blocks of their own.
    Module-level so the process pool can ship cells to workers by reference;
    the full :class:`ScenarioResult` stays in the worker, only the summary
    comes back.
    """
    spec = scenario(name)
    peers = n_peers if n_peers is not None else spec.default_peers
    days = duration_days if duration_days is not None else spec.default_duration_days
    config = build_scenario_config(
        name, n_peers=peers, duration_days=days, seed=seed, overrides=overrides
    )
    telemetry = {}
    if metrics_window is not None:
        from repro.obs.config import ObsConfig

        telemetry["obs"] = ObsConfig(window=metrics_window, jsonl_path=metrics_path)
    if trace_sample is not None:
        from repro.obs.spans import TraceConfig

        telemetry["trace"] = TraceConfig(sample=trace_sample, jsonl_path=trace_path)
    if telemetry:
        population = dataclasses.replace(config.population, **telemetry)
        config = dataclasses.replace(config, population=population)
    from repro.simulation.scenario import run_scenario

    result = run_scenario(config)
    return summarize_result(
        spec.name, peers, days, seed, result, overrides=overrides, views=views
    )


def summarize_result(
    name: str,
    n_peers: int,
    duration_days: float,
    seed: int,
    result,
    overrides: Optional[Dict] = None,
    views: Sequence[str] = (),
) -> Dict:
    """Reduce an already-run :class:`ScenarioResult` to a cell summary dict
    (benchmarks reuse this so cached results are not re-simulated), plus one
    top-level block per claim view named in ``views``."""
    churn: Dict[str, Dict[str, float]] = {}
    for label in sorted(result.datasets):
        dataset = result.datasets[label]
        if not dataset.connections:
            churn[label] = {"avg_duration": 0.0, "median_duration": 0.0, "trim_share": 0.0}
            continue
        report = connection_statistics(dataset)
        churn[label] = {
            "avg_duration": round(report.all_stats.average, 6),
            "median_duration": round(report.all_stats.median_value, 6),
            "trim_share": round(trim_share(report), 6),
        }

    summary = {
        "schema": CELL_SCHEMA,
        "scenario": name,
        "n_peers": n_peers,
        "duration_days": duration_days,
        "seed": seed,
        "overrides": dict(sorted(overrides.items())) if overrides else {},
        "events_processed": result.events_processed,
        "version_changes": result.version_changes,
        "role_flips": result.role_flips,
        "autonat_flips": result.autonat_flips,
        "queries_sent": sum(s.queries_sent for s in result.crawls.snapshots),
        "crawls": len(result.crawls.snapshots),
        "datasets": dataset_counts(result),
        "churn": churn,
        "content": content_metrics(result.content),
        "adversary": attack_metrics(result),
        "netmodel": reachability_metrics(result),
        "resilience": resilience_metrics(result),
        "bandwidth": transfer_metrics(result),
        "metrics": metrics_metrics(result),
        "tracing": tracing_metrics(result),
    }
    if views:
        from repro.analysis.views import VIEWS

        for view in views:
            summary[view] = VIEWS[view](result)
    return summary


def summarize_cell_safe(
    name: str,
    n_peers: Optional[int],
    duration_days: Optional[float],
    seed: int,
    overrides: Optional[Dict] = None,
    metrics_window: Optional[float] = None,
    metrics_path: Optional[str] = None,
    trace_sample: Optional[float] = None,
    trace_path: Optional[str] = None,
    views: Sequence[str] = (),
) -> Dict:
    """Run one cell, catching failures so one bad cell cannot sink a sweep.

    Returns either a regular cell summary or a failure record carrying the
    exception, its traceback, the cell's content address and a command line
    that re-runs just this cell; the sweep reports failures and exits
    nonzero.  Module-level so the process pool can ship it to workers by
    reference.
    """
    try:
        return summarize_cell(
            name, n_peers, duration_days, seed, overrides,
            metrics_window, metrics_path, trace_sample, trace_path, views,
        )
    except Exception as exc:  # noqa: BLE001 - any cell failure must be reported
        key = cell_key(
            name, n_peers, duration_days, seed, overrides, metrics_window, trace_sample,
            views,
        )
        return {
            "scenario": name,
            "n_peers": n_peers,
            "duration_days": duration_days,
            "seed": seed,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "key": key,
            "repro": _repro_command(
                name, n_peers, duration_days, seed, overrides,
                metrics_window, trace_sample, key,
            ),
        }


def _repro_command(
    name: str,
    n_peers: Optional[int],
    duration_days: Optional[float],
    seed: int,
    overrides: Optional[Dict],
    metrics_window: Optional[float],
    trace_sample: Optional[float],
    key: str,
) -> str:
    """The ``python -m repro.sweep`` line that runs exactly one cell (into
    an output directory of its own, named after the cell's key)."""
    argv = ["python", "-m", "repro.sweep", "--scenarios", name, "--seeds", str(seed)]
    if n_peers is not None:
        argv += ["--peers", str(n_peers)]
    if duration_days is not None:
        argv += ["--duration", f"{duration_days!r}d"]
    for knob, value in sorted((overrides or {}).items()):
        argv += ["--set", f"{knob}={value}"]
    if metrics_window is not None:
        argv += ["--metrics-window", repr(metrics_window)]
    if trace_sample is not None:
        argv += ["--trace-sample", repr(trace_sample)]
    return shlex.join(argv + ["--out", f"repro-{key}"])


#: per-sweep manifest: the planned cells with their content-address keys
MANIFEST_NAME = "sweep_manifest.json"
MANIFEST_SCHEMA = "repro-sweep-manifest/1"


def cell_key(
    name: str,
    n_peers: int,
    duration_days: float,
    seed: int,
    overrides: Optional[Dict] = None,
    metrics_window: Optional[float] = None,
    trace_sample: Optional[float] = None,
    views: Sequence[str] = (),
) -> str:
    """Content address of one sweep cell.

    A hash over everything that determines the cell's result: the resolved
    scenario coordinates, the builder overrides, the metrics and tracing
    configuration, the claim views (only when some are asked for, so a
    plain cell's key is independent of them), plus the cell schema version,
    so cells written by an older summary format (or under different
    ``--set`` / ``--metrics`` / ``--trace`` values) are never reused by
    ``--resume``.
    """
    payload = {
        "schema": CELL_SCHEMA,
        "scenario": name,
        "n_peers": n_peers,
        "duration_days": duration_days,
        "seed": seed,
        "overrides": dict(sorted(overrides.items())) if overrides else {},
        "obs": {"window": metrics_window} if metrics_window is not None else None,
        "trace": {"sample": trace_sample} if trace_sample is not None else None,
    }
    if views:
        payload["views"] = sorted(views)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def plan_cell(
    name: str,
    n_peers: Optional[int],
    duration_days: Optional[float],
    seed: int,
    overrides: Optional[Dict] = None,
    metrics_window: Optional[float] = None,
    trace_sample: Optional[float] = None,
    views: Sequence[str] = (),
    stem: Optional[str] = None,
) -> Dict:
    """One planned cell with its defaults resolved, its files and its key.

    The cell's files are named ``<stem>.json`` (and ``<stem>__metrics.jsonl``
    / ``<stem>__traces.jsonl``); the default stem
    ``<scenario>__n<peers>__s<seed>`` is unique within a cartesian sweep, and
    a caller planning cells that differ in overrides or views alone passes
    stems of its own.
    """
    spec = scenario(name)
    peers = n_peers if n_peers is not None else spec.default_peers
    days = duration_days if duration_days is not None else spec.default_duration_days
    stem = stem or f"{spec.name}__n{peers}__s{seed}"
    cell = {
        "scenario": spec.name,
        "n_peers": peers,
        "duration_days": days,
        "seed": seed,
        "overrides": dict(sorted(overrides.items())) if overrides else {},
        "file": f"{stem}.json",
        "key": cell_key(
            spec.name, peers, days, seed, overrides, metrics_window, trace_sample, views
        ),
    }
    if views:
        cell["views"] = sorted(views)
    if metrics_window is not None:
        cell["metrics_file"] = f"{stem}__metrics.jsonl"
    if trace_sample is not None:
        cell["trace_file"] = f"{stem}__traces.jsonl"
    return cell


def _manifest_payload(planned: Sequence[Dict]) -> Dict:
    return {"schema": MANIFEST_SCHEMA, "cells": list(planned)}


def _load_completed_cells(out_dir: str, planned: Sequence[Dict]) -> Dict[int, Dict]:
    """Map planned-cell index -> previously written summary, for ``--resume``.

    A cell is reused only when the old manifest recorded the same content
    address for its file *and* the file parses as a non-failure summary;
    anything else (missing file, key mismatch from changed flags or schema,
    truncated JSON from the kill) is simply re-run.
    """
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    old_keys: Dict[str, str] = {}
    if os.path.isfile(manifest_path):
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
            old_keys = {
                cell["file"]: cell["key"] for cell in manifest.get("cells", [])
            }
        except (ValueError, KeyError, TypeError):
            old_keys = {}
    completed: Dict[int, Dict] = {}
    for index, cell in enumerate(planned):
        if old_keys.get(cell["file"]) != cell["key"]:
            continue
        path = os.path.join(out_dir, cell["file"])
        if not os.path.isfile(path):
            continue
        try:
            with open(path) as handle:
                summary = json.load(handle)
        except ValueError:
            continue
        if not isinstance(summary, dict) or "error" in summary:
            continue
        completed[index] = summary
    return completed


def _write_json(path: str, payload: Dict) -> None:
    """Write ``payload`` to ``path`` atomically: a killed or failing write
    leaves the previous file or the complete new one, never a truncated one."""
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_sweep(
    scenario_names: Sequence[str],
    seeds: Sequence[int],
    peers_list: Sequence[Optional[int]],
    duration_days: Optional[float],
    out_dir: str,
    workers: int = 1,
    force: bool = False,
    resume: bool = False,
    overrides: Optional[Dict] = None,
    metrics_window: Optional[float] = None,
    trace_sample: Optional[float] = None,
    progress: Optional[bool] = None,
) -> Tuple[List[Dict], List[Dict]]:
    """Plan the cartesian sweep and run it with :func:`run_cells`.

    Cell order (and therefore aggregate order) is scenarios × populations ×
    seeds as given, every cell with the same ``overrides``.
    """
    planned = [
        plan_cell(
            name, peers, duration_days, seed, overrides, metrics_window, trace_sample
        )
        for name in scenario_names
        for peers in peers_list
        for seed in seeds
    ]
    return run_cells(
        planned, out_dir, workers=workers, force=force, resume=resume,
        metrics_window=metrics_window, trace_sample=trace_sample, progress=progress,
    )


def run_cells(
    planned: Sequence[Dict],
    out_dir: str,
    workers: int = 1,
    force: bool = False,
    resume: bool = False,
    metrics_window: Optional[float] = None,
    trace_sample: Optional[float] = None,
    progress: Optional[bool] = None,
) -> Tuple[List[Dict], List[Dict]]:
    """Run planned cells (:func:`plan_cell`) and write all artifacts into ``out_dir``.

    Returns ``(summaries, failures)``, each in planned order — deterministic
    even when the cells run in a pool of ``workers`` processes (more than one
    cell and more than one worker; otherwise they run in this process).
    Every planned config is built first: a builder's :class:`ValueError`
    comes out as :class:`CellConfigError` before ``out_dir`` is touched.  A
    non-empty ``out_dir`` is refused unless ``force`` or ``resume`` is set:
    ``force`` deletes the previous run's artifacts
    (``*.json``, ``*.jsonl``, ``sweep_table.txt``, and any ``*.tmp`` a killed
    write left) up front, so a re-run can never silently mix stale and fresh
    cell JSON; ``resume`` instead reuses every completed cell whose content
    address matches the manifest of the interrupted run and only simulates
    the rest.  Each cell summary is written to its planned ``file`` as it
    completes (checkpointing), and the aggregate artifacts are rebuilt from
    the full reused + fresh set, so an interrupted run resumed with the same
    cells produces byte-identical artifacts to an uninterrupted one.

    ``metrics_window`` attaches the streaming-metrics runtime to every cell:
    each cell writes its planned ``metrics_file`` time series and the
    summary gains a ``metrics`` block.  ``trace_sample`` attaches the causal
    span tracer: each cell writes its planned ``trace_file`` of sampled trace
    trees and the summary gains a ``tracing`` block with critical-path
    attribution.  A cell planned with ``views`` gains those claim views as
    blocks.  ``progress`` (default: on when stderr is a TTY) prints a
    heartbeat to stderr as cells complete — cells done/total, cumulative
    events/sec, ETA — and enables the per-cell progress heartbeat
    (:mod:`repro.obs.progress`) inside the workers.  Neither knob touches the
    artifacts' bytes beyond the metrics block itself.
    """
    for cell in planned:
        try:
            build_scenario_config(
                cell["scenario"], cell["n_peers"], cell["duration_days"], cell["seed"],
                cell["overrides"],
            )
        except ValueError as exc:
            raise CellConfigError(str(exc)) from exc
    completed: Dict[int, Dict] = {}
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        if resume:
            completed = _load_completed_cells(out_dir, planned)
        elif not force:
            raise SweepOutputError(
                f"output directory {out_dir!r} is not empty; pass --force to "
                "overwrite (stale cells from a previous run would otherwise "
                "survive alongside the new ones) or --resume to continue an "
                "interrupted sweep"
            )
        else:
            for name in os.listdir(out_dir):
                if (
                    name.endswith(".json")
                    or name.endswith(".jsonl")
                    or name.endswith(TMP_SUFFIX)
                    or name == "sweep_table.txt"
                ):
                    os.remove(os.path.join(out_dir, name))
    os.makedirs(out_dir, exist_ok=True)
    # The manifest goes down before any cell runs: a killed sweep leaves
    # exactly the state --resume needs (planned cells + their keys).
    _write_json(os.path.join(out_dir, MANIFEST_NAME), _manifest_payload(planned))

    todo = [index for index in range(len(planned)) if index not in completed]
    cells = [
        (
            cell["scenario"], cell["n_peers"], cell["duration_days"], cell["seed"],
            cell["overrides"],
            metrics_window,
            os.path.join(out_dir, cell["metrics_file"]) if metrics_window is not None else None,
            trace_sample,
            os.path.join(out_dir, cell["trace_file"]) if trace_sample is not None else None,
            cell.get("views", ()),
        )
        for cell in (planned[index] for index in todo)
    ]

    show_progress = sys.stderr.isatty() if progress is None else progress
    started = time.perf_counter()
    outcomes: List[Dict] = []
    events = 0

    def _checkpoint(index: int, outcome: Dict) -> None:
        """Called in cell order as results arrive: a killed run has every
        completed prefix cell on disk, which is all ``--resume`` needs."""
        nonlocal events
        outcomes.append(outcome)
        events += int(outcome.get("events_processed", 0) or 0)
        if "error" not in outcome:
            _write_json(os.path.join(out_dir, planned[index]["file"]), outcome)
        if show_progress:
            # Heartbeat only — wall-clock never reaches the artifacts.
            elapsed = max(time.perf_counter() - started, 1e-9)
            eta = elapsed / len(outcomes) * (len(todo) - len(outcomes))
            print(
                f"sweep: {len(outcomes) + len(completed)}/{len(planned)} cells  "
                f"{format_count(events)} events  "
                f"{format_count(int(events / elapsed))} ev/s  "
                f"ETA {eta:.0f}s",
                file=sys.stderr,
            )
            sys.stderr.flush()

    # With progress on, the workers (fork-based, so they inherit the env)
    # also trace per-cell engine progress once per simulated hour.
    from repro.obs.progress import PROGRESS_ENV

    env_before = os.environ.get(PROGRESS_ENV)
    if show_progress:
        os.environ[PROGRESS_ENV] = "1"
    try:
        if workers > 1 and len(cells) > 1:
            # Results come back in cell order whichever worker finishes first
            # (a slow early cell delays the checkpoints of later ones).  The
            # simulator is imported here, before the pool forks, so every
            # worker inherits it instead of compiling it again.
            from concurrent.futures import ProcessPoolExecutor

            import repro.simulation.scenario  # noqa: F401

            with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
                for index, outcome in zip(todo, pool.map(summarize_cell_safe, *zip(*cells))):
                    _checkpoint(index, outcome)
        else:
            for index, outcome in zip(todo, itertools.starmap(summarize_cell_safe, cells)):
                _checkpoint(index, outcome)
    finally:
        if show_progress:
            if env_before is None:
                os.environ.pop(PROGRESS_ENV, None)
            else:
                os.environ[PROGRESS_ENV] = env_before
    merged: List[Optional[Dict]] = [None] * len(planned)
    for index, summary in completed.items():
        merged[index] = summary
    for index, outcome in zip(todo, outcomes):
        merged[index] = outcome
    summaries = [o for o in merged if o is not None and "error" not in o]
    failures = [o for o in merged if o is not None and "error" in o]

    _write_json(
        os.path.join(out_dir, "sweep_summary.json"),
        aggregate_payload(summaries, failures),
    )
    with atomic_write(os.path.join(out_dir, "sweep_table.txt")) as handle:
        handle.write(render_aggregate(summaries, failures))
    return summaries, failures


def catalog_table(tag: Optional[str] = None) -> TextTable:
    """The ``--list`` output: registered scenarios (optionally one tag) and
    their knobs — each scenario's ``--set`` keys with their defaults."""
    title = "Registered scenarios" if tag is None else f"Registered scenarios [{tag}]"
    table = TextTable(
        headers=["Name", "Tags", "Peers", "Days", "Description", "Knobs"],
        title=title,
    )
    for spec in scenarios(tag):
        knobs = ", ".join(f"{k}={v}" for k, v in spec.knobs.items())
        table.add_row(
            spec.name,
            ",".join(spec.tags),
            spec.default_peers,
            f"{spec.default_duration_days:g}",
            spec.description,
            knobs,
        )
    return table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a cartesian sweep of registered scenarios × seeds × populations.",
    )
    parser.add_argument(
        "--scenarios",
        help="comma-separated registered scenario names (see --list)",
    )
    parser.add_argument(
        "--seeds", type=_parse_int_list, default="7",
        help="comma-separated simulation seeds (default: 7)",
    )
    parser.add_argument(
        "--peers", type=_parse_peers, default=None,
        help="comma-separated population sizes (default: each scenario's own)",
    )
    parser.add_argument(
        "--duration", type=parse_duration_days, default=None,
        help=(
            "simulated duration per cell, e.g. 0.02d, 12h, 1800s "
            "(default: each scenario's own)"
        ),
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", type=parse_override,
        default=[], metavar="KEY=VALUE",
        help=(
            "override a scenario builder knob (repeatable), e.g. "
            "--set uplink_scale=0.25 --set size_scale=4 (--list shows each "
            "scenario's keys and defaults); unknown keys and mistyped values "
            "are rejected before anything runs"
        ),
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT_DIR,
        help=f"output directory for the JSON/table artifacts (default: {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite a non-empty --out directory (refused otherwise)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "continue an interrupted sweep: reuse completed cells whose "
            "content-address key matches the manifest, simulate only the rest"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to fan the cells out over (default: 1, in this process)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help=(
            "stream per-cell metrics: each cell writes a *__metrics.jsonl "
            "time series (one line per closed window) next to its summary, "
            "and the summary gains a 'metrics' block"
        ),
    )
    parser.add_argument(
        "--metrics-window", type=float, default=None, metavar="SECONDS",
        help=(
            "metrics window length in simulated seconds (implies --metrics; "
            "default with bare --metrics: 300)"
        ),
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "trace per-cell causal spans: each cell writes a *__traces.jsonl "
            "of sampled operation trace trees next to its summary, and the "
            "summary gains a 'tracing' block with critical-path attribution"
        ),
    )
    parser.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help=(
            "deterministic per-operation trace sampling rate in (0, 1] "
            "(implies --trace; default with bare --trace: 1.0; failed and "
            "timed-out operations are always sampled)"
        ),
    )
    parser.add_argument(
        "--progress", action=argparse.BooleanOptionalAction, default=None,
        help=(
            "heartbeat to stderr as cells complete (done/total, events/sec, "
            "ETA) plus per-cell engine tracing; default: on when stderr is "
            "a TTY"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the registered scenarios and exit",
    )
    parser.add_argument(
        "--tag", default=None,
        help="with --list: only scenarios carrying this tag (paper, stress, "
             "content, adversary, ...)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        if args.tag is not None and not scenarios(args.tag):
            known = sorted({tag for spec in scenarios() for tag in spec.tags})
            parser.error(
                f"--tag {args.tag!r} matches no scenario; known tags: {', '.join(known)}"
            )
        print(catalog_table(args.tag).render())
        return 0
    if args.tag is not None:
        parser.error("--tag only filters --list; pass --scenarios by name to run")
    if not args.scenarios:
        parser.error("--scenarios is required (or use --list)")

    names = [part.strip().lower() for part in args.scenarios.split(",") if part.strip()]
    peers_list: List[Optional[int]] = args.peers or [None]
    if not names or not args.seeds:
        parser.error("need at least one scenario and one seed")
    known = [spec.name for spec in scenarios()]
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(
            f"--scenarios names unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    for flag, values in (
        ("--scenarios", names),
        ("--seeds", args.seeds),
        ("--peers", peers_list),
        ("--set", [key for key, _value in args.overrides]),
    ):
        repeated = sorted({str(v) for v in values if values.count(v) > 1})
        if repeated:
            # A repeated value is the same cell run (and counted) again, and
            # with --workers two processes writing one file; a repeated --set
            # key would silently run only its last value.
            parser.error(f"{flag} repeats {', '.join(repeated)}")
    if args.force and args.resume:
        parser.error("--force and --resume are mutually exclusive")
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    overrides: Dict[str, object] = dict(args.overrides)
    metrics_window: Optional[float] = None
    if args.metrics or args.metrics_window is not None:
        metrics_window = args.metrics_window if args.metrics_window is not None else 300.0
        if not 0 < metrics_window < float("inf"):
            # Rejected up front, before anything simulates: exit 2, no cells.
            parser.error(f"--metrics-window must be positive and finite, got {metrics_window}")
    trace_sample: Optional[float] = None
    if args.trace or args.trace_sample is not None:
        trace_sample = args.trace_sample if args.trace_sample is not None else 1.0
        if not (0.0 < trace_sample <= 1.0):
            parser.error(f"--trace-sample must be within (0, 1], got {trace_sample}")

    try:
        summaries, failures = run_sweep(
            names, args.seeds, peers_list, args.duration, args.out,
            workers=args.workers, force=args.force, resume=args.resume,
            overrides=overrides, metrics_window=metrics_window,
            trace_sample=trace_sample, progress=args.progress,
        )
    except (SweepOutputError, CellConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_aggregate(summaries, failures), end="")
    print(f"\nwrote {len(summaries)} cell summaries to {args.out}/")
    if failures:
        for failure in failures:
            print(
                f"sweep cell failed: {failure['scenario']} "
                f"(peers={failure['n_peers']}, seed={failure['seed']}): "
                f"{failure['error']}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
