"""Bad input fails at the boundary: every ``python -m repro.*`` entry point.

An unknown option must stop a command before it plans, simulates or writes
anything: exit status 2, the usage line on stderr, and no file left behind
(the fidelity runner once took ``--help`` as its output path).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: every module under ``src/`` that runs as ``python -m`` through a ``main``
ENTRY_POINTS = (
    "repro.sweep",
    "repro.experiments.fidelity",
    "repro.analysis.metrics_report",
    "repro.obs.critical_path",
)


def test_the_list_is_every_entry_point():
    found = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if 'if __name__ == "__main__":' in path.read_text() and "def main(" in path.read_text()
    )
    assert found == sorted(ENTRY_POINTS)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_an_unknown_option_prints_the_usage_line_and_writes_nothing(module, tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", module, "--bogus"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith(f"usage: python -m {module} ")
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []
