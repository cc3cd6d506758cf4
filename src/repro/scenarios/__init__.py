"""Named, sweepable scenario definitions.

``registry`` provides the mechanism (register / resolve / run by name),
``catalog`` the built-in entries: the six paper measurement periods plus the
stress scenarios (flash-crowd, diurnal-week, mass-outage, client-heavy,
hydra-scaling, crawler-vs-passive-under-burst).  ``python -m repro.sweep``
runs cartesian sweeps over this catalog.
"""

from repro.scenarios import catalog  # noqa: F401  (registers the built-in entries)
