"""Package metadata.

There is no ``pyproject.toml``: this file is the whole build definition, so
``pip install -e .`` (and the offline ``setup.py develop`` fallback pip uses
when the ``wheel`` package is missing) installs ``repro`` from ``src/``.  The
runtime needs the standard library only (``tests/test_sweep_cli.py`` runs a sweep
under ``python -S`` to keep it so); ``requirements-dev.txt`` is for tests,
benchmarks and lint.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
