"""The process pool behind the scenario sweep.

:func:`run_cells` applies a module-level function to a list of argument
tuples, in this process or fanned out over ``REPRO_BENCH_WORKERS`` (or
``workers=``) worker processes.  Every cell is simulated single-threaded and
independently seeded, so the pool changes wall time only — never results.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Sequence

#: environment knob: number of worker processes for multi-cell runs
BENCH_WORKERS_ENV = "REPRO_BENCH_WORKERS"


def bench_workers(default: int = 1) -> int:
    """Worker-process count from ``REPRO_BENCH_WORKERS`` (opt-in, default 1)."""
    raw = os.environ.get(BENCH_WORKERS_ENV, "")
    try:
        workers = int(raw)
    except ValueError:
        return default
    return max(1, workers) if raw else default


def run_cells(
    fn, cells: Iterable[Sequence], workers: Optional[int] = None, on_result=None
) -> List:
    """Apply ``fn(*cell)`` to every cell, optionally in a process pool.

    Results come back in input order.  ``fn`` must be a module-level callable
    (workers import it by name) and each cell a tuple of its positional
    arguments.

    ``on_result(index, result)`` is invoked in input order as each result
    becomes available — the sweep's checkpoint hook: a killed run has every
    completed prefix cell already written to disk.  (On the pool path a slow
    early cell delays the callbacks of later ones; the prefix on disk is
    still contiguous, which is all resume needs.)
    """
    cells = [tuple(cell) for cell in cells]
    workers = bench_workers() if workers is None else max(1, workers)
    results: List = []
    if workers <= 1 or len(cells) <= 1:
        for cell in cells:
            result = fn(*cell)
            if on_result is not None:
                on_result(len(results), result)
            results.append(result)
        return results
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = [pool.submit(fn, *cell) for cell in cells]
        for future in futures:
            result = future.result()
            if on_result is not None:
                on_result(len(results), result)
            results.append(result)
        return results
