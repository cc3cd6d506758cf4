"""Fig. 6 — number of PIDs over time during the ~14 day measurement.

Regenerates both series of the figure — the cumulative number of PIDs ever
seen and the number of PIDs gone for more than three days that never returned —
and checks the findings the paper derives from it: continuous PID growth, a
plateau of *connected* PIDs, and a large gap between PIDs and simultaneous
connections (the "every peer has around two PIDs" argument).
"""

from repro.analysis.plots import ascii_series, downsample
from repro.core.timeseries import (
    connected_peers_over_time,
    gone_pids_over_time,
    pids_over_time,
    summarize_timeseries,
)
from repro.experiments.paper_values import PAPER

from conftest import scale_note

DAY = 86_400.0


def build_fig6(dataset):
    return {
        "all": pids_over_time(dataset, step=3 * 3600.0),
        ">=3d not connected": gone_pids_over_time(dataset, gone_threshold=3 * DAY, step=3 * 3600.0),
        "connected": connected_peers_over_time(dataset, limit=None),
    }


def test_fig6_pids_over_time(benchmark, p14_result):
    dataset = p14_result.dataset("go-ipfs")
    series = benchmark(build_fig6, dataset)
    summary = summarize_timeseries(dataset)

    print()
    print(f"P14: {scale_note(p14_result)}")
    print("Fig. 6 — PIDs over time (sparklines):")
    print(ascii_series({k: downsample(v, 80) for k, v in series.items()}))
    print(
        f"measured: {summary.total_pids} PIDs total, "
        f"{int(series['>=3d not connected'][-1][1])} gone >= 3 d, "
        f"plateau of connected PIDs ~{summary.plateau_connected_pids}, "
        f"{summary.pids_per_simultaneous_connection:.1f} PIDs per simultaneous connection"
    )
    print(
        f"paper:    ~{PAPER.fig6_total_pids:,.0f} PIDs after {PAPER.fig6_duration_days:.0f} d, "
        "continuous growth, plateau of connected PIDs, ~2 PIDs per simultaneous connection"
    )

    all_series = [v for _, v in series["all"]]
    gone_series = [v for _, v in series[">=3d not connected"]]
    connected_series = [v for _, v in series["connected"]]

    # Shape 1: the number of seen PIDs grows continuously over the measurement.
    assert all_series == sorted(all_series)
    first_half = all_series[len(all_series) // 2]
    assert all_series[-1] > first_half > 0

    # Shape 2: a growing set of PIDs has been gone for more than three days and
    # never returned (one-time users, rotated PIDs).
    assert gone_series[-1] > 0
    assert gone_series == sorted(gone_series)

    # Shape 3: connected PIDs plateau — the late-measurement level is far below
    # the cumulative PID count.
    late_connected = connected_series[-max(1, len(connected_series) // 10):]
    plateau = sum(late_connected) / len(late_connected)
    assert plateau < 0.6 * all_series[-1]

    # Shape 4: many more PIDs are seen than are ever connected simultaneously
    # (the paper's "around two PIDs per peer" indicator is > 1).
    assert summary.pids_per_simultaneous_connection > 1.2
