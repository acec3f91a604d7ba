import math

import numpy as np
import pytest
from scipy import stats

from spatq.analytics import max_stable_rate
from spatq.traffic import ArrivalRateDistribution, ArrivalStream


class TestDistributionBasics:
    def test_kinds_validate(self):
        with pytest.raises(ValueError):
            ArrivalRateDistribution("weibull", 1.0)
        with pytest.raises(ValueError):
            ArrivalRateDistribution.deterministic(-0.1)
        with pytest.raises(ValueError):
            ArrivalRateDistribution.uniform(0.0)
        with pytest.raises(ValueError):
            ArrivalRateDistribution.exponential(-1.0)

    def test_means(self):
        assert ArrivalRateDistribution.deterministic(0.3).mean() == 0.3
        assert ArrivalRateDistribution.uniform(0.02).mean() == 0.01
        assert ArrivalRateDistribution.exponential(0.5).mean() == 0.5

    def test_cdf_values(self):
        assert ArrivalRateDistribution.exponential(0.01).cdf(0.0) == 0.0
        assert ArrivalRateDistribution.uniform(0.02).cdf(0.01) == 0.5
        det = ArrivalRateDistribution.deterministic(0.3)
        assert det.cdf(0.3) == 1.0  # right continuous step
        assert det.cdf(0.3 - 1e-12) == 0.0

    def test_exponential_cdf_at_stability_threshold(self):
        # threshold rate for a 5-user cell at theta=10, alpha=4
        x = max_stable_rate(5, 10.0, 4.0)
        assert x == pytest.approx(0.033516028462111165, rel=1e-12)
        dist = ArrivalRateDistribution.exponential(0.01)
        expected = 1.0 - math.exp(-100.0 * x)
        assert dist.cdf(x) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.9649718356793769, rel=1e-10)
        draws = dist.sample(np.random.default_rng(1), 1_000_000)
        empirical = np.mean(draws <= x)
        sigma = math.sqrt(expected * (1 - expected) / len(draws))
        assert empirical == pytest.approx(expected, abs=3 * sigma)

    def test_cdf_monotone_with_limits(self):
        for dist in (
            ArrivalRateDistribution.deterministic(0.4),
            ArrivalRateDistribution.uniform(0.7),
            ArrivalRateDistribution.exponential(0.2),
        ):
            grid = np.linspace(-1.0, 5.0, 400)
            values = dist.cdf(grid)
            assert np.all(np.diff(values) >= 0)
            assert dist.cdf(-10.0) == 0.0
            assert dist.cdf(1e9) == pytest.approx(1.0)


class TestSampling:
    def test_deterministic_is_constant(self):
        dist = ArrivalRateDistribution.deterministic(0.3)
        rng = np.random.default_rng(0)
        assert np.all(dist.sample(rng, 100) == 0.3)

    def test_uniform_mean(self):
        dist = ArrivalRateDistribution.uniform(0.02)
        draws = dist.sample(np.random.default_rng(3), 100_000)
        sigma = 0.02 / math.sqrt(12 * len(draws))
        assert draws.mean() == pytest.approx(0.01, abs=3 * sigma)

    def test_exponential_clamp_mass_is_negligible(self):
        # P(draw > 1) = e^-100 for mean 0.01
        dist = ArrivalRateDistribution.exponential(0.01)
        assert 1.0 - dist.cdf(1.0) < 1e-40
        draws = dist.sample(np.random.default_rng(4), 100_000)
        assert np.all(draws <= 1.0)

    @pytest.mark.parametrize(
        "dist",
        [ArrivalRateDistribution.uniform(0.02), ArrivalRateDistribution.exponential(0.01)],
    )
    def test_samples_match_cdf(self, dist):
        draws = dist.sample(np.random.default_rng(11), 100_000)
        result = stats.kstest(draws, lambda x: dist.cdf(x))
        assert result.pvalue > 0.01


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec,kind,param",
        [
            ("det:0.3", "deterministic", 0.3),
            ("unif:0:0.02", "uniform", 0.02),
            ("exp-mean:0.01", "exponential", 0.01),
        ],
    )
    def test_parse_and_round_trip(self, spec, kind, param):
        dist = ArrivalRateDistribution.parse(spec)
        assert dist.kind == kind
        assert dist.param == param
        assert ArrivalRateDistribution.parse(dist.spec_string()) == dist

    @pytest.mark.parametrize(
        "bad", ["norm:0:1", "det", "unif:0.01:0.02", "exp-mean:abc", "det:0.3:0.4"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            ArrivalRateDistribution.parse(bad)


class TestArrivalStream:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            ArrivalStream(rate=1.5, seed=1)
        with pytest.raises(ValueError):
            ArrivalStream(rate=0.3, seed=1).arrivals(-1, 10)
        with pytest.raises(ValueError):
            ArrivalStream(rate=0.3, seed=1).arrivals(10, 9)

    def test_degenerate_rates(self):
        assert not any(ArrivalStream(0.0, seed=2).arrivals(0, 500))
        assert all(ArrivalStream(1.0, seed=2).arrivals(0, 500))

    def test_batch_windows_consistent(self):
        # every window is a slice of the stream's one sequence of arrivals
        stream = ArrivalStream(0.3, seed=7)
        full = stream.arrivals(0, 5_000)
        for start, stop in [(0, 0), (0, 1), (120, 300), (299, 300), (0, 4_999), (4_000, 5_000)]:
            window = stream.arrivals(start, stop)
            assert window.dtype == bool
            assert np.array_equal(window, full[start:stop])
        assert np.array_equal(ArrivalStream(0.3, seed=7).arrivals(0, 5_000), full)

    def test_empirical_rate(self):
        arrivals = ArrivalStream(0.3, seed=8).arrivals(0, 1_000_000)
        sigma = math.sqrt(0.3 * 0.7 / 1_000_000)
        assert arrivals.mean() == pytest.approx(0.3, abs=3 * sigma)

    @pytest.mark.parametrize("rate", [0.005, 0.3, 0.9])
    def test_count_and_geometric_gaps(self, rate):
        n_slots = int(20_000 / rate)
        slots = np.flatnonzero(ArrivalStream(rate, seed=21).arrivals(0, n_slots))
        assert abs(len(slots) - rate * n_slots) <= 4.0 * math.sqrt(n_slots * rate * (1 - rate))
        # the first slot + 1 and every later gap are i.i.d. geometric(rate);
        # chi-square over bins of about equal mass, the last one open-ended
        gaps = np.diff(slots, prepend=-1)
        edges = np.unique(stats.geom.ppf(np.linspace(0.0, 1.0, 21)[1:-1], rate))
        observed = np.bincount(np.searchsorted(edges, gaps), minlength=len(edges) + 1)
        cdf = stats.geom.cdf(np.concatenate(([0.0], edges, [np.inf])), rate)
        assert stats.chisquare(observed, np.diff(cdf) * len(gaps)).pvalue > 1e-3

    def test_different_seeds_differ(self):
        a = ArrivalStream(0.5, seed=1).arrivals(0, 256)
        b = ArrivalStream(0.5, seed=2).arrivals(0, 256)
        assert not np.array_equal(a, b)
