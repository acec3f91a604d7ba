import math

import numpy as np
import pytest

from spatq.analytics import (
    CELL_AREA_VARIANCE_COEFF,
    DelayResult,
    NetworkParameters,
    achievable_rate,
    approx_success_probability,
    iterate_busy_probability,
    max_stable_rate,
    mean_delay,
    pmf_users_ppp,
    service_rate,
    sinc_delta,
    solve_busy_probability,
    stability_thresholds,
    success_probability,
    total_arrival_moments,
    unstable_probability,
    user_count_pmf,
)
from spatq.geometry import PcpParams
from spatq.traffic import ArrivalRateDistribution

# fixture parameters shared by the frozen-value checks: theta=10, alpha=4
SINC_HALF = 2.0 / math.pi
ROOT10 = math.sqrt(10.0)


def random_parameter_draw(rng):
    n = int(rng.integers(1, 51))
    xi0 = float(rng.uniform(0.0, 0.05))
    alpha = float(rng.uniform(2.001, 6.0))
    theta = float(rng.uniform(0.1, 100.0))
    return n, xi0, theta, alpha


class TestSincDelta:
    def test_value_at_alpha_four(self):
        assert sinc_delta(4.0) == pytest.approx(SINC_HALF, rel=1e-15)

    def test_degenerate_alpha_rejected(self):
        for alpha in (2.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                sinc_delta(alpha)

    def test_approaches_one_for_large_alpha(self):
        assert sinc_delta(1e6) == pytest.approx(1.0, abs=1e-10)


class TestBusyProbability:
    def test_zero_rate_is_idle(self):
        assert solve_busy_probability(10, 0.0, 10.0, 4.0) == 0.0
        assert iterate_busy_probability(10, 0.0, 10.0, 4.0) == 0.0

    def test_frozen_value(self):
        q = solve_busy_probability(10, 0.01, 10.0, 4.0)
        assert q == pytest.approx(0.1987002670942587, rel=1e-12)

    def test_closed_form_matches_iteration(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, xi0, theta, alpha = random_parameter_draw(rng)
            closed = solve_busy_probability(n, xi0, theta, alpha)
            iterated = iterate_busy_probability(n, xi0, theta, alpha, tol=1e-13)
            assert abs(closed - iterated) <= 1e-10

    def test_branches_continuous_at_critical_rate(self):
        for n, theta, alpha in [(10, 10.0, 4.0), (3, 0.7, 2.7), (40, 55.0, 5.5)]:
            b0 = max_stable_rate(n, theta, alpha)
            below = solve_busy_probability(n, b0 * (1 - 1e-9), theta, alpha)
            at = solve_busy_probability(n, b0, theta, alpha)
            assert at == 1.0
            assert below == pytest.approx(1.0, abs=1e-6)

    def test_capped_at_one_just_below_critical_rate(self):
        # at these cells the quotient rounds to 1 + 2e-16 .. 9e-15 one ulp
        # below the critical rate
        for n, theta, alpha in [(3, 3.7, 3.0), (3, 100.0, 2.5), (5, 0.5, 2.5), (7, 3.7, 5.0)]:
            xi0 = float(np.nextafter(max_stable_rate(n, theta, alpha), 0.0))
            assert solve_busy_probability(n, xi0, theta, alpha) <= 1.0
            success = approx_success_probability(n, xi0, theta, alpha)
            assert success == pytest.approx(success_probability(1.0, theta, alpha), rel=1e-12)

    def test_saturates_above_critical_rate(self):
        assert solve_busy_probability(10, 0.9, 10.0, 4.0) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_busy_probability(0, 0.01, 10.0, 4.0)
        with pytest.raises(ValueError):
            solve_busy_probability(10, 1.5, 10.0, 4.0)
        with pytest.raises(ValueError):
            solve_busy_probability(10, 0.01, -1.0, 4.0)


class TestSuccessProbability:
    def test_no_interference_is_certain(self):
        assert success_probability(0.0, 10.0, 4.0) == 1.0

    def test_frozen_value(self):
        assert success_probability(0.5, 10.0, 4.0) == pytest.approx(
            0.28705548550856125, rel=1e-12
        )

    def test_monotone_in_activity_and_threshold(self):
        qs = np.linspace(0.0, 1.0, 21)
        values = [success_probability(q, 10.0, 4.0) for q in qs]
        assert np.all(np.diff(values) < 0)
        thetas = np.geomspace(0.01, 1e4, 25)
        values = [success_probability(0.5, t, 4.0) for t in thetas]
        assert np.all(np.diff(values) < 0)

    def test_vanishes_for_huge_threshold(self):
        assert success_probability(0.5, 1e12, 4.0) < 1e-5

    def test_activity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            success_probability(1.2, 10.0, 4.0)


class TestApproxSuccessProbability:
    def test_idle_network_is_certain(self):
        assert approx_success_probability(10, 0.0, 10.0, 4.0) == 1.0

    def test_frozen_value_below_saturation(self):
        assert approx_success_probability(10, 0.01, 10.0, 4.0) == pytest.approx(
            0.5032705867101949, rel=1e-12
        )

    def test_saturated_value_independent_of_rate(self):
        sat = SINC_HALF / (SINC_HALF + ROOT10)
        for xi0 in (0.02, 0.5, 1.0):
            assert approx_success_probability(10, xi0, 10.0, 4.0) == pytest.approx(
                sat, rel=1e-12
            )
        assert sat == pytest.approx(0.1675801423105558, rel=1e-12)

    def test_consistent_with_busy_probability_elimination(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n, xi0, theta, alpha = random_parameter_draw(rng)
            q = solve_busy_probability(n, xi0, theta, alpha)
            direct = approx_success_probability(n, xi0, theta, alpha)
            assert success_probability(q, theta, alpha) == pytest.approx(
                direct, abs=1e-12
            )

    def test_branches_agree_at_critical_rate(self):
        for n, theta, alpha in [(10, 10.0, 4.0), (7, 3.0, 3.1)]:
            b0 = max_stable_rate(n, theta, alpha)
            s = sinc_delta(alpha)
            t = theta ** (2.0 / alpha)
            linear_branch = 1.0 - n * b0 * t / s
            assert approx_success_probability(n, b0, theta, alpha) == pytest.approx(
                linear_branch, abs=1e-12
            )


class TestRateAndService:
    def test_rate_vanishes_at_zero_threshold(self):
        assert achievable_rate(10, 0.01, 1e-9, 4.0) < 1e-8

    def test_rate_single_interior_peak(self):
        thetas = np.geomspace(1e-3, 1e8, 300)
        tau = np.array([achievable_rate(10, 0.01, t, 4.0) for t in thetas])
        rising = np.diff(tau) > 0
        assert np.count_nonzero(np.diff(rising.astype(int))) == 1
        assert tau[0] < 0.05 * tau.max() and tau[-1] < 0.05 * tau.max()
        assert tau.max() > 0.5

    def test_rate_increases_with_path_loss_exponent(self):
        for theta in (1.0, 10.0, 100.0):
            low = achievable_rate(10, 0.01, theta, 3.0)
            high = achievable_rate(10, 0.01, theta, 4.0)
            assert high > low

    def test_service_rate_frozen_value(self):
        assert service_rate(20, 0.005, 10.0, 4.0) == pytest.approx(
            0.025163529335509742, rel=1e-12
        )

    def test_service_rate_idle_single_user(self):
        assert service_rate(1, 0.0, 10.0, 4.0) == 1.0

    def test_service_rate_nonincreasing_in_users(self):
        values = [service_rate(n, 0.005, 10.0, 4.0) for n in range(1, 40)]
        assert np.all(np.diff(values) < 0)


class TestMeanDelay:
    def test_idle_single_user_takes_one_slot(self):
        assert mean_delay(1, 0.0, 10.0, 4.0) == DelayResult(1.0)

    def test_frozen_value(self):
        result = mean_delay(20, 0.005, 10.0, 4.0)
        assert not result.unstable
        assert result.value == pytest.approx(49.346519820204186, rel=1e-12)

    def test_overloaded_cell_is_unstable(self):
        result = mean_delay(40, 0.005, 10.0, 4.0)
        assert result.unstable
        assert result.value is None

    def test_finite_iff_below_user_bound(self):
        thresholds = stability_thresholds(0.005, 10.0, 4.0, beta=100.0)
        for n in range(1, 51):
            finite = not mean_delay(n, 0.005, 10.0, 4.0).unstable
            assert finite == (n < thresholds.a1)

    def test_meets_requirement_iff_below_tighter_bound(self):
        beta = 100.0
        thresholds = stability_thresholds(0.005, 10.0, 4.0, beta=beta)
        for n in range(1, 51):
            result = mean_delay(n, 0.005, 10.0, 4.0)
            meets = (not result.unstable) and result.value < beta
            assert meets == (n < thresholds.a2)

    def test_delay_result_validation(self):
        with pytest.raises(ValueError):
            DelayResult(0.5)
        assert DelayResult(None).unstable


class TestStabilityThresholds:
    def test_frozen_values(self):
        st = stability_thresholds(0.005, 10.0, 4.0, beta=100.0)
        assert st.a1 == pytest.approx(33.51602846211116, rel=1e-12)
        assert st.a2 == pytest.approx(25.134172076552343, rel=1e-12)
        assert st.b0 == pytest.approx(0.1675801423105558, rel=1e-12)

    def test_ordering_holds_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, _, theta, alpha = random_parameter_draw(rng)
            xi0 = float(rng.uniform(1e-4, 0.99))
            beta = float(rng.uniform(1.0001, 1e4))
            st = stability_thresholds(xi0, theta, alpha, beta)
            assert st.a1 > st.a2 > 0

    def test_loose_requirement_recovers_stability_bound(self):
        st = stability_thresholds(0.005, 10.0, 4.0, beta=1e12)
        assert st.a2 == pytest.approx(st.a1, rel=1e-9)

    def test_bound_brackets_the_requirement(self):
        beta = 100.0
        st = stability_thresholds(0.005, 10.0, 4.0, beta=beta)
        below = mean_delay(math.floor(st.a2), 0.005, 10.0, 4.0)
        above = mean_delay(math.ceil(st.a2), 0.005, 10.0, 4.0)
        assert below.value < beta
        assert above.unstable or above.value >= beta

    def test_validation(self):
        with pytest.raises(ValueError):
            stability_thresholds(0.0, 10.0, 4.0, beta=10.0)
        with pytest.raises(ValueError):
            stability_thresholds(0.01, 10.0, 4.0, beta=1.0)


class TestUserCountPmfs:
    def test_ppp_zero_count(self):
        assert pmf_users_ppp(0, 0.5, 4.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_ppp_normalizes(self):
        total = sum(pmf_users_ppp(k, 1.0, 10.0) for k in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_ppp_mode_near_mean(self):
        values = [pmf_users_ppp(k, 1.0, 10.0) for k in range(30)]
        assert int(np.argmax(values)) in (9, 10)

    def test_ppp_validation(self):
        with pytest.raises(ValueError):
            pmf_users_ppp(-1, 1.0, 10.0)
        with pytest.raises(ValueError):
            pmf_users_ppp(1, 1.0, 0.0)

    @staticmethod
    def _clustered(lambda_u=1.0):
        pcp = PcpParams(lambda_p=lambda_u / (1.1 * math.pi), lambda_c=1.1, r_c=1.0)
        return NetworkParameters(
            lambda_b=0.1, lambda_u=pcp.user_intensity, theta=10.0, alpha=4.0, pcp=pcp
        )

    def test_pcp_zero_count_closed_form(self):
        params = self._clustered()
        pcp = params.pcp
        s = 10.0
        expected = math.exp(
            pcp.lambda_p * s * (math.exp(-pcp.mean_cluster_size) - 1.0)
        )
        assert user_count_pmf("pcp", params, s)[0] == pytest.approx(expected, rel=1e-12)

    def test_pcp_normalizes_within_tolerance(self):
        params = NetworkParameters(
            lambda_b=0.1,
            lambda_u=1.0,
            theta=10.0,
            alpha=4.0,
            pcp=PcpParams(lambda_p=1 / (1.1 * math.pi), lambda_c=1.1, r_c=1.0),
        )
        tol = 1e-10
        pmf = user_count_pmf("pcp", params, 10.0, tol=tol)
        assert pmf.sum() == pytest.approx(1.0, abs=10 * tol)
        ppp = user_count_pmf("ppp", params, 10.0, tol=tol)
        assert ppp.sum() == pytest.approx(1.0, abs=10 * tol)

    def test_pcp_matches_panjer_recursion(self):
        # the count is compound Poisson: Poisson(lambda_p*s) clusters of
        # Poisson(m_c) users.  Panjer's recursion for a Poisson frequency,
        # f(k) = (lam/k) * sum_j j*g(j)*f(k-j), builds its pmf term by term
        # instead of summing the mixture over the parent count.
        params = self._clustered()
        s = 10.0
        lam = params.pcp.lambda_p * s
        m_c = params.pcp.mean_cluster_size
        n = 60
        g = [math.exp(-m_c + j * math.log(m_c) - math.lgamma(j + 1)) for j in range(n)]
        f = [math.exp(lam * (g[0] - 1.0))]
        for k in range(1, n):
            f.append(lam / k * sum(j * g[j] * f[k - j] for j in range(1, k + 1)))
        pmf = user_count_pmf("pcp", params, s)[:n]
        assert pmf == pytest.approx(f, rel=1e-10)

    def test_clustering_inflates_empty_cells(self):
        # same mean user count: clustered cells are empty more often
        for lambda_u, s in [(0.5, 6.0), (1.0, 10.0), (2.0, 8.0)]:
            params = self._clustered(lambda_u)
            assert user_count_pmf("pcp", params, s)[0] >= pmf_users_ppp(0, lambda_u, s)


class TestTotalArrivalMoments:
    def _params(self, lambda_u=1e-4, pcp=None):
        return NetworkParameters(
            lambda_b=1e-5, lambda_u=lambda_u, theta=10.0, alpha=4.0, pcp=pcp
        )

    def test_mean_and_variance_ppp(self):
        dist = ArrivalRateDistribution.deterministic(1.5)
        mean, var = total_arrival_moments(dist, self._params(), "ppp")
        assert mean == pytest.approx(15.0, rel=1e-12)
        assert var == pytest.approx(86.78, abs=0.01)

    def test_variance_vanishes_with_user_intensity(self):
        dist = ArrivalRateDistribution.deterministic(1.5)
        _, var = total_arrival_moments(dist, self._params(lambda_u=1e-12), "ppp")
        assert var < 1e-6

    def test_cluster_excess_is_exact(self):
        dist = ArrivalRateDistribution.deterministic(1.5)
        pcp = PcpParams(lambda_p=2e-5, lambda_c=5 / (math.pi * 1e4), r_c=100.0)
        _, var_ppp = total_arrival_moments(dist, self._params(), "ppp")
        _, var_pcp = total_arrival_moments(dist, self._params(pcp=pcp), "pcp")
        excess = dist.mean() ** 2 * 10.0 * pcp.mean_cluster_size
        assert var_pcp - var_ppp == pytest.approx(excess, rel=1e-9)
        assert var_pcp > var_ppp

    def test_coefficient_matches_gamma_fit(self):
        assert CELL_AREA_VARIANCE_COEFF == pytest.approx(0.2857, abs=2e-5)


class TestUnstableProbability:
    def _params(self, lambda_u, alpha=4.0, pcp=False):
        cluster = (
            PcpParams(lambda_p=1 / (1.1 * math.pi), lambda_c=1.1 * lambda_u, r_c=1.0)
            if pcp
            else None
        )
        return NetworkParameters(
            lambda_b=0.1, lambda_u=lambda_u, theta=10.0, alpha=alpha, pcp=cluster
        )

    def test_vanishes_without_users(self):
        dist = ArrivalRateDistribution.exponential(0.01)
        assert unstable_probability(dist, "ppp", self._params(1e-9), 10.0) < 1e-6

    def test_monotone_in_user_intensity(self):
        dist = ArrivalRateDistribution.exponential(0.01)
        grid = np.geomspace(0.01, 3.0, 12)
        values = [
            unstable_probability(dist, "ppp", self._params(lu), 10.0) for lu in grid
        ]
        assert np.all(np.diff(values) > 0)

    def test_decreasing_in_path_loss_exponent(self):
        dist = ArrivalRateDistribution.exponential(0.01)
        for lu in (0.05, 0.3, 1.0):
            p25 = unstable_probability(dist, "ppp", self._params(lu, alpha=2.5), 10.0)
            p4 = unstable_probability(dist, "ppp", self._params(lu, alpha=4.0), 10.0)
            assert p25 > p4

    def test_uniform_law_reproduces_index_split(self):
        # below the split index the cell is stable with certainty; above it the
        # stability mass is f(k)/b
        dist = ArrivalRateDistribution.uniform(0.02)
        params = self._params(0.5)
        s = 10.0
        computed = unstable_probability(dist, "ppp", params, s)
        pmf = user_count_pmf("ppp", params, s)
        total = pmf[0]
        for k in range(1, len(pmf)):
            f_k = max_stable_rate(k, params.theta, params.alpha)
            total += pmf[k] * (1.0 if f_k >= 0.02 else f_k / 0.02)
        assert computed == pytest.approx(1.0 - total, abs=1e-10)

    def test_probabilities_in_unit_interval(self):
        for dist in (
            ArrivalRateDistribution.exponential(0.5),
            ArrivalRateDistribution.uniform(1.0),
        ):
            for lu in (0.01, 1.0, 10.0):
                value = unstable_probability(dist, "pcp", self._params(lu, pcp=True), 10.0)
                assert 0.0 <= value <= 1.0

    def test_deterministic_law_rejected(self):
        dist = ArrivalRateDistribution.deterministic(0.01)
        with pytest.raises(ValueError):
            unstable_probability(dist, "ppp", self._params(1.0), 10.0)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            user_count_pmf("ppp", self._params(1.0), 10.0, tol=1e-3)


class TestNetworkParameters:
    def test_rejects_degenerate_alpha(self):
        with pytest.raises(ValueError):
            NetworkParameters(lambda_b=1.0, lambda_u=1.0, theta=10.0, alpha=2.0)

    def test_rejects_inconsistent_cluster_intensity(self):
        with pytest.raises(ValueError):
            NetworkParameters(
                lambda_b=1.0,
                lambda_u=5.0,
                theta=10.0,
                alpha=4.0,
                pcp=PcpParams(lambda_p=1.0, lambda_c=1.0, r_c=1.0),
            )

    def test_delta_property(self):
        params = NetworkParameters(lambda_b=1.0, lambda_u=1.0, theta=10.0, alpha=4.0)
        assert params.delta == 0.5
