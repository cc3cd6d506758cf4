"""Cold start: a fresh process imports only the modules its command runs.

Every ``python -m repro.sweep`` call, sweep worker and benchmark child starts
a new interpreter, and each module it loads is compiled and executed before
anything is simulated.  These checks run such fresh interpreters and read
their ``sys.modules``:

* ``--list`` parses, lists and plans without the simulator or any runtime;
* a small ``p0`` build, run and cell summary loads no runtime of a subsystem
  ``p0`` does not attach (adversary, faults, netmodel, bandwidth);
* a package holds no names of its own, so importing a package never drags
  in the modules a re-export would name.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: prints the loaded repro modules and every name a loaded package defines
#: beyond its dunders and submodules, as the last line of stdout
_REPORT = """
import json, sys, types
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "repro")
package_names = sorted(
    f"{name}.{attr}"
    for name in loaded
    if hasattr(sys.modules[name], "__path__")
    for attr, value in vars(sys.modules[name]).items()
    if not attr.startswith("__") and not isinstance(value, types.ModuleType)
)
print(json.dumps({"modules": loaded, "package_names": package_names}))
"""

_LIST = """
import runpy, sys
sys.argv = ["repro.sweep", "--list"]
try:
    runpy.run_module("repro.sweep", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
""" + _REPORT

_P0_RUN = """
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import run_scenario
from repro.sweep import summarize_result

result = run_scenario(build_scenario_config("p0", n_peers=60, duration_days=0.01, seed=7))
summarize_result("p0", 60, 0.01, 7, result)
""" + _REPORT

#: what listing must not load: the simulator and every subsystem runtime
LIST_EXCLUDES = (
    "repro.simulation.network",
    "repro.simulation.scenario",
    "repro.adversary.behaviors",
    "repro.faults.runtime",
    "repro.netmodel.runtime",
    "repro.bandwidth.runtime",
    "repro.obs.hub",
    "repro.obs.spans",
)

#: runtimes of the subsystems a p0 run does not attach
P0_EXCLUDES = (
    "repro.adversary.behaviors",
    "repro.faults.runtime",
    "repro.netmodel.runtime",
    "repro.bandwidth.runtime",
)


def _fresh(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_list_loads_no_simulator():
    report = _fresh(_LIST)
    assert "repro.scenarios.catalog" in report["modules"]
    assert sorted(set(LIST_EXCLUDES) & set(report["modules"])) == []
    assert report["package_names"] == []


def test_p0_run_loads_no_unattached_runtime():
    report = _fresh(_P0_RUN)
    assert "repro.simulation.network" in report["modules"]
    assert sorted(set(P0_EXCLUDES) & set(report["modules"])) == []
    assert report["package_names"] == []
