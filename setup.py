"""Package metadata.

There is no ``pyproject.toml``: this file is the whole build definition, so
``pip install -e .`` (and the offline ``setup.py develop`` fallback pip uses
when the ``wheel`` package is missing) installs ``repro`` from ``src/`` with
its one runtime dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
