"""Tests for the session/duration distributions and the churn model library."""

import math
import random

import pytest

from repro.simulation.churn_models import (
    DAY,
    HOUR,
    MINUTE,
    DiurnalChurnModel,
    ExponentialDistribution,
    FlashCrowdChurnModel,
    LogNormalDistribution,
    MassOutageChurnModel,
    SessionModel,
    UniformDistribution,
    WeibullDistribution,
    always_on_session,
    light_session,
    normal_session,
    one_time_session,
)

from doubles import FixedDistribution


class TestDistributions:
    def test_fixed(self, rng):
        dist = FixedDistribution(42.0)
        assert dist.sample(rng) == 42.0
        assert dist.mean() == 42.0

    def test_uniform_within_bounds(self, rng):
        dist = UniformDistribution(10.0, 20.0)
        for _ in range(100):
            assert 10.0 <= dist.sample(rng) <= 20.0
        assert dist.mean() == 15.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformDistribution(20.0, 10.0)

    def test_exponential_mean_close_to_parameter(self, rng):
        dist = ExponentialDistribution(100.0)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert abs(sum(samples) / len(samples) - 100.0) < 10.0

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            ExponentialDistribution(0.0)

    def test_weibull_mean_formula(self, rng):
        dist = WeibullDistribution(scale=100.0, shape=1.0)  # reduces to exponential
        assert abs(dist.mean() - 100.0) < 1e-9
        samples = [dist.sample(rng) for _ in range(5000)]
        assert abs(sum(samples) / len(samples) - 100.0) < 10.0

    def test_lognormal_from_median(self, rng):
        dist = LogNormalDistribution.from_median_and_sigma(3600.0, 0.5)
        samples = sorted(dist.sample(rng) for _ in range(5001))
        median = samples[len(samples) // 2]
        assert 0.8 * 3600.0 < median < 1.2 * 3600.0
        assert dist.mean() > 3600.0  # log-normal mean exceeds the median

    def test_all_samples_non_negative(self, rng):
        distributions = [
            UniformDistribution(0.0, 5.0),
            ExponentialDistribution(5.0),
            WeibullDistribution(5.0, 0.7),
            LogNormalDistribution(1.0, 1.0),
        ]
        for dist in distributions:
            for _ in range(200):
                assert dist.sample(rng) >= 0.0


class TestSessionModels:
    def test_initial_state_respects_probability(self):
        model = SessionModel(
            uptime=FixedDistribution(10.0),
            downtime=FixedDistribution(20.0),
            initially_online_probability=1.0,
        )
        online, duration = model.initial_state(random.Random(0))
        assert online
        assert duration == 10.0

        model_offline = SessionModel(
            uptime=FixedDistribution(10.0),
            downtime=FixedDistribution(20.0),
            initially_online_probability=0.0,
        )
        online, duration = model_offline.initial_state(random.Random(0))
        assert not online
        assert duration == 20.0

    def test_heavy_sessions_outlast_measurements(self, rng):
        model = always_on_session()
        assert model.initially_online_probability == 1.0
        assert model.uptime.mean() > 3 * DAY

    def test_one_time_sessions_are_bounded(self, rng):
        model = one_time_session()
        assert model.max_sessions in (1, 2)
        assert model.uptime.mean() < 2 * HOUR

    def test_class_session_means_are_ordered(self):
        # heavy stays longest, then normal, then light, then one-time
        heavy = always_on_session().uptime.mean()
        normal = normal_session().uptime.mean()
        light = light_session().uptime.mean()
        once = one_time_session().uptime.mean()
        assert heavy > normal > light
        assert normal > once


def _all_churn_models():
    """One instance of every churn model, for the shared property checks."""
    base = SessionModel(
        uptime=ExponentialDistribution(2 * HOUR),
        downtime=ExponentialDistribution(4 * HOUR),
    )
    return [
        base,
        light_session(),
        DiurnalChurnModel(base=base, amplitude=0.6),
        FlashCrowdChurnModel(base=base, burst_start=2 * HOUR, burst_duration=1 * HOUR),
        MassOutageChurnModel(base=base, outage_start=6 * HOUR, outage_duration=2 * HOUR),
        one_time_session(),
    ]


class TestChurnModelProperties:
    """Seeded-random property checks shared by every model in the library."""

    @pytest.mark.parametrize("model_index", range(len(_all_churn_models())))
    def test_samples_positive_and_finite(self, model_index):
        model = _all_churn_models()[model_index]
        rng = random.Random(1234 + model_index)
        for _ in range(500):
            now = rng.uniform(0.0, 2 * DAY)
            up = model.next_uptime(rng, now)
            down = model.next_downtime(rng, now)
            assert up > 0 and math.isfinite(up)
            assert down > 0 and math.isfinite(down)

    @pytest.mark.parametrize("model_index", range(len(_all_churn_models())))
    def test_initial_state_duration_positive(self, model_index):
        model = _all_churn_models()[model_index]
        rng = random.Random(99 + model_index)
        for _ in range(100):
            online, duration = model.initial_state(rng)
            assert isinstance(online, bool)
            assert duration > 0 and math.isfinite(duration)

    @pytest.mark.parametrize("model_index", range(len(_all_churn_models())))
    def test_max_sessions_exposed(self, model_index):
        model = _all_churn_models()[model_index]
        assert model.max_sessions is None or model.max_sessions >= 1


class TestDiurnalChurnModel:
    def test_uptime_mean_preserved_over_full_cycle(self):
        base = SessionModel(
            uptime=FixedDistribution(1000.0), downtime=FixedDistribution(1000.0)
        )
        model = DiurnalChurnModel(base=base, amplitude=0.6)
        rng = random.Random(7)
        samples = [model.next_uptime(rng, rng.uniform(0.0, DAY)) for _ in range(8000)]
        assert sum(samples) / len(samples) == pytest.approx(1000.0, rel=0.03)

    def test_downtime_shorter_at_peak_than_trough(self):
        base = SessionModel(
            uptime=FixedDistribution(1000.0), downtime=FixedDistribution(1000.0)
        )
        model = DiurnalChurnModel(base=base, amplitude=0.6, peak_time=18 * HOUR)
        rng = random.Random(7)
        at_peak = model.next_downtime(rng, 18 * HOUR)
        at_trough = model.next_downtime(rng, 6 * HOUR)
        assert at_peak == pytest.approx(1000.0 / 1.6)
        assert at_trough == pytest.approx(1000.0 / 0.4)
        assert model.activity(18 * HOUR) == pytest.approx(1.6)
        assert model.activity(6 * HOUR) == pytest.approx(0.4)

    def test_rejects_amplitude_outside_unit_interval(self):
        base = normal_session()
        with pytest.raises(ValueError):
            DiurnalChurnModel(base=base, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalChurnModel(base=base, amplitude=-0.1)


class TestFlashCrowdChurnModel:
    def _model(self, **kwargs):
        base = SessionModel(
            uptime=FixedDistribution(600.0), downtime=FixedDistribution(1200.0)
        )
        defaults = dict(base=base, burst_start=1 * HOUR, burst_duration=1 * HOUR)
        defaults.update(kwargs)
        return FlashCrowdChurnModel(**defaults)

    def test_downtime_accelerated_only_inside_burst(self):
        model = self._model(intensity=6.0)
        rng = random.Random(3)
        assert model.next_downtime(rng, 0.0) == pytest.approx(1200.0)
        assert model.next_downtime(rng, 1.5 * HOUR) == pytest.approx(200.0)
        assert model.next_downtime(rng, 3 * HOUR) == pytest.approx(1200.0)

    def test_arrivals_concentrate_in_burst(self):
        model = self._model(arrival_share=1.0)
        rng = random.Random(5)
        for _ in range(200):
            arrival = model.arrival_time(rng, duration=4 * HOUR)
            assert 1 * HOUR <= arrival < 2 * HOUR

    def test_arrivals_spread_without_share(self):
        model = self._model(arrival_share=0.0)
        rng = random.Random(5)
        arrivals = [model.arrival_time(rng, duration=4 * HOUR) for _ in range(500)]
        assert min(arrivals) < 1 * HOUR  # some land before the burst
        assert all(0.0 <= a <= 4 * HOUR * 0.95 for a in arrivals)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            self._model(intensity=0.5)
        with pytest.raises(ValueError):
            self._model(burst_duration=0.0)
        with pytest.raises(ValueError):
            self._model(arrival_share=1.5)


class TestMassOutageChurnModel:
    def _model(self, **kwargs):
        base = SessionModel(
            uptime=FixedDistribution(1000.0), downtime=FixedDistribution(100.0)
        )
        defaults = dict(
            base=base, outage_start=500.0, outage_duration=300.0, recovery_spread=50.0
        )
        defaults.update(kwargs)
        return MassOutageChurnModel(**defaults)

    def test_uptime_truncated_at_outage_start(self):
        model = self._model()
        rng = random.Random(1)
        assert model.next_uptime(rng, 0.0) == pytest.approx(500.0)
        # far enough before the outage that the session ends naturally
        assert model.next_uptime(rng, 2000.0) == pytest.approx(1000.0)

    def test_online_mid_outage_only_flaps(self):
        model = self._model()
        rng = random.Random(1)
        assert model.next_uptime(rng, 600.0) == pytest.approx(MINUTE)

    def test_downtime_extended_past_outage_end(self):
        model = self._model()
        rng = random.Random(1)
        # would end at 550, inside the outage: pushed past 800 (+ jitter <= 50)
        extended = model.next_downtime(rng, 450.0)
        assert 350.0 <= extended <= 400.0
        # after the outage everything is back to normal
        assert model.next_downtime(rng, 900.0) == pytest.approx(100.0)

    def test_initial_session_cannot_span_outage_start(self):
        base = SessionModel(
            uptime=FixedDistribution(10_000.0),
            downtime=FixedDistribution(100.0),
            initially_online_probability=1.0,
        )
        model = MassOutageChurnModel(base=base, outage_start=500.0, outage_duration=300.0)
        online, duration = model.initial_state(random.Random(2))
        assert online
        assert duration <= 500.0
