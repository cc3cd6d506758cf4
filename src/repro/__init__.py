"""Reproduction of "Passively Measuring IPFS Churn and Network Size" (ICDCS 2022).

The package is organised in layers:

* :mod:`repro.libp2p`, :mod:`repro.kademlia`, :mod:`repro.ipfs`,
  :mod:`repro.hydra`, :mod:`repro.crawler` — the substrates: peer identities,
  the DHT, the go-ipfs client model, the hydra-booster, and the active-crawler
  baseline.
* :mod:`repro.simulation` — the discrete-event IPFS network simulator that
  stands in for the live network the paper measured.
* :mod:`repro.core` — the paper's contribution: passive measurement recording
  and the offline analyses (churn, meta data, horizon, time series, network
  size).
* :mod:`repro.experiments` — the measurement periods of Table I and the
  paper's reference values, plus the process pool the sweep runs on.
* :mod:`repro.scenarios` — the scenario registry: the paper periods plus
  stress scenarios (flash crowds, diurnal weeks, mass outages, …), every
  entry resolvable by name and sweepable via ``python -m repro.sweep``.

A package holds no names of its own: import each name from the module that
defines it, so a process loads only the modules its command runs.

Quick start::

    from repro.core.churn import connection_statistics
    from repro.scenarios.registry import run_scenario_by_name

    result = run_scenario_by_name("p2", n_peers=500, duration_days=0.25)
    report = connection_statistics(result.dataset("go-ipfs"))
    print(report.all_stats, report.peer_stats)
"""
