import inspect
import math

import numpy as np
import pytest

from spatq import simulator
from spatq.analytics import NetworkParameters, solve_busy_probability
from spatq.geometry import (
    PER_CLUSTER,
    PER_USER,
    AssociationMap,
    PcpParams,
    PointPattern,
    Window,
    associate,
    estimate_cell_areas,
    sample_pcp,
    sample_ppp,
)
from spatq.harness import write_rows
from spatq.simulator import (
    MetricsReport,
    _queue_departures,
    classify_queue_stability,
    estimate_total_arrival_variance,
    run_coupled,
    run_delay_oracle,
    run_sir_static,
    simulate_network,
)
from spatq.traffic import ArrivalRateDistribution, ArrivalStream, _bernoulli_slots

PARAMS = NetworkParameters(lambda_b=1.0, lambda_u=5.0, theta=10.0, alpha=4.0)


def single_cell_instance(n_users: int, rate: float, seed: int = 0):
    w = Window(1.0, 1.0)
    rng = np.random.default_rng(seed)
    bss = PointPattern(np.array([[0.5, 0.5]]), w)
    users = PointPattern(rng.random((n_users, 2)), w)
    assoc = AssociationMap.from_serving(np.zeros(n_users, dtype=int), 1)
    rates = np.full(n_users, rate)
    return bss, users, assoc, rates


def per_slot_serve(
    arrival_slots, head, departed, serving_bs, pathloss, theta, interference,
    horizon, warmup, sched_rng, fading_rng,
):
    """Reference slot loop: one scheduling and one fading draw call per slot."""
    cell_sizes = np.bincount(serving_bs)
    live_bs = np.flatnonzero(cell_sizes)
    counts = cell_sizes[live_bs]
    offsets = np.cumsum(counts) - counts
    members_flat = np.argsort(serving_bs, kind="stable")
    busy_bs_slots = 0
    for t in range(horizon):
        draw = sched_rng.random(len(live_bs))
        chosen = members_flat[offsets + (draw * counts).astype(int)]
        act = arrival_slots[head[chosen]] <= t
        served_users = chosen[act]
        n_act = len(served_users)
        if n_act:
            if interference and n_act > 1:
                link = fading_rng.standard_exponential((n_act, n_act)) * pathloss[
                    served_users[:, None], live_bs[act]
                ]
                own = np.diagonal(link)
                winners = served_users[own > theta * (link.sum(axis=1) - own)]
            else:
                winners = served_users
            departed[head[winners]] = t
            head[winners] += 1
            if t >= warmup:
                busy_bs_slots += n_act
    return busy_bs_slots


def _queue_reference_loop(arrivals: np.ndarray, service_ok: np.ndarray) -> np.ndarray:
    """Slot-by-slot FIFO queue: a packet at the head departs in a slot with service_ok."""
    buffer: list[int] = []
    delays = []
    for t in range(len(arrivals)):
        if arrivals[t]:
            buffer.append(t)
        if buffer and service_ok[t]:
            delays.append(t - buffer.pop(0) + 1)
    return np.asarray(delays)


def geometric_service_loop(arrival_slots, service_slots, horizon):
    """Slot loop: the head packet i, from slot max(a_i, d_{i-1} + 1), is in
    service for service_slots[i] slots and departs in the last of them."""
    departed = np.full(len(arrival_slots), horizon)
    head, left = 0, 0  # packet at the head, its service slots still to run
    for t in range(horizon):
        if not left and head < len(arrival_slots) and arrival_slots[head] <= t:
            left = service_slots[head]
        if left:
            left -= 1
            if not left:
                departed[head] = t
                head += 1
    return departed


class TestQueueRecursion:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_slot_loop(self, seed):
        rng = np.random.default_rng(seed)
        xi0, mu = rng.uniform(0.01, 0.3), rng.uniform(0.05, 0.9)
        arrival_slots = np.flatnonzero(rng.random(50_000) < xi0)
        service = rng.geometric(mu, len(arrival_slots))
        departed = _queue_departures(arrival_slots, service, 50_000)
        assert np.array_equal(departed, geometric_service_loop(arrival_slots, service, 50_000))

    def test_departures_keep_arrival_order(self):
        rng = np.random.default_rng(9)
        arrival_slots = np.flatnonzero(rng.random(20_000) < 0.1)
        departed = _queue_departures(arrival_slots, rng.geometric(0.2, len(arrival_slots)), 20_000)
        served = departed < 20_000
        assert np.all(np.diff(departed[served]) > 0)
        assert np.all(departed >= arrival_slots)
        # the packets unserved at the horizon are the newest ones
        assert served[0] and not served[-1]
        assert np.all(np.diff(served.astype(int)) <= 0)

    def test_mean_delay_matches_bernoulli_service_loop(self):
        # the same queue law two ways: geometric service per packet against a
        # success draw per slot; each side's mean over 40 independent runs
        xi0, mu, horizon, runs = 0.1, 0.15, 50_000, 40
        rng = np.random.default_rng(5)
        ours, loops = [], []
        for _ in range(runs):
            arrivals = rng.random(horizon) < xi0
            loops.append(_queue_reference_loop(arrivals, rng.random(horizon) < mu).mean())
            arrival_slots = np.flatnonzero(rng.random(horizon) < xi0)
            departed = _queue_departures(
                arrival_slots, rng.geometric(mu, len(arrival_slots)), horizon
            )
            served = departed < horizon
            ours.append((departed[served] - arrival_slots[served] + 1).mean())
        diff = np.mean(ours) - np.mean(loops)
        stderr = math.sqrt((np.var(ours, ddof=1) + np.var(loops, ddof=1)) / runs)
        assert abs(diff) <= 4.0 * stderr
        # both sit near the M/M/1-like closed form (1 - xi0) / (mu - xi0)
        assert np.mean(ours) == pytest.approx((1 - xi0) / (mu - xi0), rel=0.1)


class TestBernoulliSlots:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(0)
        assert _bernoulli_slots(rng, 1000, 0.0).shape == (0,)
        assert np.array_equal(_bernoulli_slots(rng, 1000, 1.0), np.arange(1000))

    @pytest.mark.parametrize("p", [0.005, 0.2, 0.9])
    def test_sorted_in_range_with_bernoulli_count_and_gaps(self, p):
        horizon = 2_000_000
        slots = _bernoulli_slots(np.random.default_rng(1), horizon, p)
        assert np.all(np.diff(slots) > 0)
        assert slots[0] >= 0 and slots[-1] < horizon
        mean = p * horizon
        assert abs(len(slots) - mean) <= 5.0 * math.sqrt(mean * (1.0 - p))
        # consecutive gaps are geometric(p): mean 1/p, sd sqrt(1-p)/p
        gap_sd = math.sqrt(1.0 - p) / p / math.sqrt(len(slots) - 1)
        assert abs(np.diff(slots).mean() - 1.0 / p) <= 5.0 * gap_sd

    def test_same_rng_state_same_slots(self):
        a = _bernoulli_slots(np.random.default_rng(2), 1_000_000, 0.03)
        b = _bernoulli_slots(np.random.default_rng(2), 1_000_000, 0.03)
        assert np.array_equal(a, b)

    def test_blocks_join_when_the_first_falls_short(self):
        # unit gaps at p=0.01 outrun the first block's size many times over
        class UnitGaps:
            def geometric(self, p, size):
                return np.ones(size, dtype=np.int64)

        assert np.array_equal(_bernoulli_slots(UnitGaps(), 1000, 0.01), np.arange(1000))


class TestDelayOracle:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            run_delay_oracle(5, 0.01, 0.0, 1_000_000, seed=1)
        with pytest.raises(ValueError):
            run_delay_oracle(5, 0.01, 0.3, 1_000_000, seed=1)  # mu > 1/n
        with pytest.raises(ValueError):
            run_delay_oracle(5, 0.01, 0.2, 50_000, seed=1)

    def test_immediate_service_single_slot_delay(self):
        result = run_delay_oracle(1, 0.001, 1.0, 1_000_000, seed=2)
        assert result.value == 1.0

    def test_light_load_matches_formula(self):
        result = run_delay_oracle(5, 0.05, 0.2, 1_000_000, seed=3)
        expected = (1 - 0.05) / (0.2 - 0.05)
        assert result.value == pytest.approx(expected, rel=0.02)

    def test_overload_reports_unstable(self):
        result = run_delay_oracle(20, 0.02, 0.004, 1_000_000, seed=4)
        assert result.unstable

    def test_deterministic_in_seed(self):
        a = run_delay_oracle(5, 0.05, 0.2, 1_000_000, seed=5)
        b = run_delay_oracle(5, 0.05, 0.2, 1_000_000, seed=5)
        assert a == b


class TestStaticSir:
    def test_activity_bounds_checked(self):
        with pytest.raises(ValueError):
            run_sir_static(PARAMS, q=1.2, samples=100_000, seed=1)
        with pytest.raises(ValueError):
            run_sir_static(PARAMS, q=0.5, samples=1000, seed=1)

    def test_idle_interferers_always_succeed(self):
        p, se = run_sir_static(PARAMS, q=0.0, samples=100_000, seed=1)
        assert p == 1.0
        assert se == pytest.approx(0.0, abs=1e-6)

    def test_matches_closed_form_at_moderate_activity(self):
        p, se = run_sir_static(PARAMS, q=0.5, samples=150_000, seed=2)
        assert p == pytest.approx(0.28705548550856125, abs=0.01)

    def test_scale_invariant_in_station_intensity(self):
        dense = NetworkParameters(lambda_b=2.0, lambda_u=5.0, theta=10.0, alpha=4.0)
        p1, _ = run_sir_static(PARAMS, q=0.5, samples=100_000, seed=7)
        p2, _ = run_sir_static(dense, q=0.5, samples=100_000, seed=7)
        assert p1 == p2


class TestSimulateNetwork:
    def test_zero_rates_stay_idle(self):
        bss, users, assoc, rates = single_cell_instance(4, 0.0)
        report = simulate_network(
            bss, users, assoc, rates, 10.0, 4.0, horizon=2000, warmup=100, seed=1
        )
        assert report.empirical_busy_prob == 0.0
        assert report.delay_samples == 0
        assert math.isnan(report.per_user_mean_delay)
        assert report.unstable_fraction == 0.0

    def test_isolated_user_served_in_one_slot(self):
        # one user, no interference: every packet departs the slot it reaches
        # the head, so at low load the mean delay is exactly one slot
        bss, users, assoc, rates = single_cell_instance(1, 0.02)
        report = simulate_network(
            bss, users, assoc, rates, 10.0, 4.0, horizon=30_000, warmup=0, seed=2,
            interference=False,
        )
        assert report.per_user_mean_delay == pytest.approx(1.0, abs=1e-9)
        assert report.empirical_success_prob == 1.0

    def test_conservation_and_fifo(self):
        # per-packet FIFO order is checked against reference queues below
        report, trace = run_coupled(
            PARAMS,
            ArrivalRateDistribution.deterministic(0.01),
            horizon=3000,
            warmup=0,
            seed=11,
            mean_bss=36.0,
            detail=True,
        )
        assert trace.trace_slots[-1] == 3000 - 1
        assert np.array_equal(trace.queue_lengths[:, -1], trace.arrivals - trace.departures)
        n = len(trace.arrivals)
        assert np.array_equal(np.bincount(trace.delay_users, minlength=n), trace.departures)
        assert report.delay_samples == len(trace.delay_values)

    def test_warmup_counts_only_later_arrivals(self):
        report, trace = run_coupled(
            PARAMS,
            ArrivalRateDistribution.deterministic(0.02),
            horizon=3000,
            warmup=800,
            seed=7,
            mean_bss=36.0,
            detail=True,
        )
        assert report.delay_samples == len(trace.delay_values) > 0
        assert report.per_user_mean_delay == trace.delay_values.mean()
        assert np.array_equal(trace.queue_lengths[:, -1], trace.arrivals - trace.departures)
        assert np.all(trace.delay_values >= 1)
        # served packets that arrived during the warmup are left out
        assert np.all(np.bincount(trace.delay_users, minlength=len(trace.arrivals))
                      <= trace.departures)
        assert len(trace.delay_values) < trace.departures.sum()

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_one_or_two_slot_horizon_flags_no_drift(self, horizon):
        # the last half of the trace grid holds one slot: no slope to fit
        bss, users, assoc, rates = single_cell_instance(3, 1.0)
        with np.errstate(all="raise"):
            report = simulate_network(
                bss, users, assoc, rates, 10.0, 4.0, horizon=horizon, warmup=0, seed=1
            )
        assert report.unstable_fraction == 0.0

    def test_fifo_matches_reference_queues(self):
        # without interference every pick of a backlogged user is a success,
        # so each user is an independent queue served in the slots its
        # station picks it; rebuild those inputs from the seed layout
        n, rate, horizon, seed = 3, 0.08, 20_000, 3
        bss, users, assoc, rates = single_cell_instance(n, rate)
        _, trace = simulate_network(
            bss, users, assoc, rates, 10.0, 4.0, horizon=horizon, warmup=0, seed=seed,
            interference=False, detail=True,
        )
        arrivals_ss, sched_ss, _ = np.random.SeedSequence(seed).spawn(3)
        stream_seeds = arrivals_ss.generate_state(n, dtype=np.uint64)
        picks = np.floor(np.random.default_rng(sched_ss).random(horizon) * n)
        packets = 0
        for u in range(n):
            arrivals = ArrivalStream(rate=rate, seed=int(stream_seeds[u])).arrivals(0, horizon)
            ref_delays = _queue_reference_loop(arrivals, picks == u)
            assert np.array_equal(trace.delay_values[trace.delay_users == u], ref_delays)
            packets += len(ref_delays)
        assert packets == len(trace.delay_values) > 4000

    def test_deterministic_given_seed(self):
        dist = ArrivalRateDistribution.exponential(0.004)
        a = run_coupled(PARAMS, dist, horizon=1500, warmup=300, seed=5, mean_bss=25.0)
        b = run_coupled(PARAMS, dist, horizon=1500, warmup=300, seed=5, mean_bss=25.0)
        assert a == b

    def test_clamped_rate_fraction_reported(self):
        # a mean-1 exponential law puts mass exp(-1) above the rate cap of 1
        dist = ArrivalRateDistribution.parse("exp-mean:1")
        run = dict(horizon=200, warmup=50, seed=11, mean_bss=100.0)
        report = run_coupled(PARAMS, dist, **run)
        assert report.clamped_rate_fraction == pytest.approx(math.exp(-1.0), abs=0.1)
        assert report.seed == 11
        detailed, _ = run_coupled(PARAMS, dist, **run, detail=True)
        assert detailed == report

    def test_busy_probability_tracks_fixed_point(self):
        report = run_coupled(
            PARAMS,
            ArrivalRateDistribution.deterministic(0.005),
            horizon=8000,
            warmup=1600,
            seed=9,
            mean_bss=64.0,
        )
        q_star = solve_busy_probability(5, 0.005, 10.0, 4.0)
        assert report.empirical_busy_prob == pytest.approx(q_star, rel=0.2)

    def test_reduces_to_independent_queues_without_interference(self):
        bss, users, assoc, rates = single_cell_instance(3, 0.08)
        report = simulate_network(
            bss, users, assoc, rates, 10.0, 4.0, horizon=200_000, warmup=0, seed=3,
            interference=False,
        )
        mu = 1.0 / 3.0
        expected = (1 - 0.08) / (mu - 0.08)
        assert report.per_user_mean_delay == pytest.approx(expected, rel=0.05)

    def test_rates_validated(self):
        bss, users, assoc, rates = single_cell_instance(3, 0.5)
        with pytest.raises(ValueError):
            simulate_network(
                bss, users, assoc, rates * 3.0, 10.0, 4.0, 1000, 100, seed=1
            )

    @pytest.mark.parametrize(
        "serving,n_bs",
        [([0, 0], 1), ([0, 0, 0, 0, 0], 1), ([0, 1, 0, 0], 1), ([0, -1, 0, 0], 2)],
    )
    def test_serving_labels_must_cover_every_user(self, serving, n_bs):
        w = Window(1.0, 1.0)
        bss = PointPattern(np.array([[0.25, 0.5], [0.75, 0.5]])[:n_bs], w)
        users = PointPattern(np.random.default_rng(0).random((4, 2)), w)
        assoc = AssociationMap(serving_bs=np.array(serving))
        with pytest.raises(ValueError, match="station label"):
            simulate_network(bss, users, assoc, np.full(4, 0.1), 10.0, 4.0, 1000, 100, seed=1)

    def test_one_arrivals_call_per_user(self, monkeypatch):
        # the benchmark's tracer counts user-slots from these calls
        calls = []
        original = ArrivalStream.arrivals

        def spy(stream, start, stop):
            calls.append((start, stop))
            return original(stream, start, stop)

        monkeypatch.setattr(ArrivalStream, "arrivals", spy)
        bss, users, assoc, rates = single_cell_instance(4, 0.1)
        simulate_network(bss, users, assoc, rates, 10.0, 4.0, horizon=700, warmup=0, seed=1)
        assert calls == [(0, 700)] * 4

    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_blocked_draws_match_per_slot_draws(self, monkeypatch, block):
        # block 7 refills both buffers often and draws one slot per block
        monkeypatch.setattr(simulator, "_BLOCK", block)
        params = NetworkParameters(lambda_b=1.0, lambda_u=5.0, theta=10.0, alpha=4.0)
        dist = ArrivalRateDistribution.uniform(0.06)
        run = dict(horizon=9_000, warmup=1_000, seed=23, mean_bss=16.0, detail=True)
        report, trace = run_coupled(params, dist, **run)
        monkeypatch.setattr(simulator, "_serve_slots", per_slot_serve)
        ref_report, ref_trace = run_coupled(params, dist, **run)
        assert report.to_kv_text() == ref_report.to_kv_text()
        assert report.empirical_busy_prob > 0.2 and report.unstable_fraction > 0
        for name in (
            "trace_slots", "queue_lengths", "arrivals", "departures",
            "delay_values", "delay_users",
        ):
            mine, ref = getattr(trace, name), getattr(ref_trace, name)
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref), name

    def test_empty_users_rejected(self):
        w = Window(1.0, 1.0)
        bss = PointPattern(np.array([[0.5, 0.5]]), w)
        users = PointPattern(np.empty((0, 2)), w)
        assoc = AssociationMap.from_serving(np.empty(0, dtype=int), 1)
        with pytest.raises(ValueError):
            simulate_network(
                bss, users, assoc, np.empty(0), 10.0, 4.0, 1000, 100, seed=1
            )


class TestClassifyQueueStability:
    def test_flat_traces_are_stable(self):
        rng = np.random.default_rng(0)
        traces = rng.integers(0, 4, size=(5, 400))
        slots = np.linspace(0, 200_000, 400).astype(int)
        assert classify_queue_stability(traces, slots) == 0.0

    def test_drifting_queue_flagged(self):
        slots = np.linspace(0, 200_000, 400).astype(int)
        flat = np.random.default_rng(1).integers(0, 4, size=(4, 400))
        drifting = (0.01 * slots)[None, :]
        traces = np.vstack([flat, drifting])
        assert classify_queue_stability(traces, slots) == pytest.approx(0.2)

    def test_injected_oracle_instability_detected(self):
        # constructed overload: arrival rate far above service rate
        result = run_delay_oracle(10, 0.05, 0.01, 1_000_000, seed=6)
        assert result.unstable

    def test_matches_centred_least_squares(self, monkeypatch):
        # blocks of two rows; the slopes are those of the centred fit
        monkeypatch.setattr(simulator, "_BLOCK", 2 * 400)
        slots = np.linspace(0, 200_000, 400).astype(int)
        rng = np.random.default_rng(4)
        drift = rng.uniform(-3e-3, 3e-3, (41, 1))
        traces = (rng.integers(0, 50, (41, 400)) + 1e4 + drift * slots).astype(np.int64)
        half = slots >= slots[-1] / 2.0
        x_c = slots[half] - slots[half].mean()
        y = traces[:, half] - traces[:, half].mean(axis=1, keepdims=True)
        slopes = y @ x_c / (x_c**2).sum()
        assert np.min(np.abs(slopes - 1e-3)) > 1e-6  # no slope at the threshold
        expected = np.mean(slopes > 1e-3)
        assert 0.0 < expected < 1.0
        assert classify_queue_stability(traces, slots) == expected

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            classify_queue_stability(np.zeros((2, 100)), np.arange(100))

    def test_unstable_fraction_grows_with_user_intensity(self):
        # heavier per-cell load pushes more queues past their service rate
        dist = ArrivalRateDistribution.exponential(0.01)
        fractions = []
        for lambda_u in (2.0, 12.0):
            params = NetworkParameters(
                lambda_b=1.0, lambda_u=lambda_u, theta=10.0, alpha=4.0
            )
            report = run_coupled(
                params, dist, horizon=6000, warmup=1000, seed=13, mean_bss=36.0
            )
            fractions.append(report.unstable_fraction)
        assert fractions[1] > fractions[0]
        assert fractions[1] > 0.05


def associate_arrival_totals(params, dist, replications, seed, mean_bss):
    """Per-replication cell totals with every user associated: the reference."""
    clustered = params.pcp is not None
    side = math.sqrt(mean_bss / params.lambda_b)
    window = Window(side, side)
    totals = np.empty(replications)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        bs_ss, user_ss, aux_ss = child.spawn(3)
        bss = sample_ppp(params.lambda_b, window, bs_ss)
        if clustered:
            users = sample_pcp(params.pcp, window, user_ss)
        else:
            users = sample_ppp(params.lambda_u, window, user_ss)
        rng = np.random.default_rng(aux_ss)
        target = int(rng.integers(len(bss)))
        if len(users) == 0:
            totals[r] = 0.0
            continue
        serving = associate(users, bss, PER_CLUSTER if clustered else PER_USER).serving_bs
        draws = np.atleast_1d(dist.sample(rng, len(users)))
        totals[r] = float(draws[np.flatnonzero(serving == target)].sum())
    return totals


class TestArrivalVarianceEstimator:
    def test_replication_floor(self):
        dist = ArrivalRateDistribution.deterministic(1.0)
        with pytest.raises(ValueError):
            estimate_total_arrival_variance(PARAMS, dist, 10, seed=1)

    def test_zero_rate_has_zero_variance(self):
        dist = ArrivalRateDistribution.deterministic(0.0)
        mean, var = estimate_total_arrival_variance(PARAMS, dist, 1000, seed=1, mean_bss=49.0)
        assert mean == 0.0
        assert var == 0.0

    def test_typical_cell_mean_is_unbiased(self):
        dist = ArrivalRateDistribution.deterministic(1.5)
        mean, _ = estimate_total_arrival_variance(PARAMS, dist, 2000, seed=2, mean_bss=49.0)
        assert mean == pytest.approx(1.5 * 5.0, rel=0.05)

    def test_clustering_increases_variance(self):
        dist = ArrivalRateDistribution.deterministic(1.5)
        pcp = PcpParams(lambda_p=1.0, lambda_c=5 / math.pi, r_c=1.0)
        clustered = NetworkParameters(
            lambda_b=1.0, lambda_u=5.0, theta=10.0, alpha=4.0, pcp=pcp
        )
        _, var_ppp = estimate_total_arrival_variance(PARAMS, dist, 2000, seed=3, mean_bss=49.0)
        _, var_pcp = estimate_total_arrival_variance(clustered, dist, 2000, seed=4, mean_bss=49.0)
        assert var_pcp > 1.5 * var_ppp

    @pytest.mark.parametrize("model", ["ppp", "pcp"])
    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_totals_bit_identical_to_full_association(self, model, seed):
        dist = ArrivalRateDistribution.exponential(0.5)
        pcp = PcpParams(lambda_p=1.0, lambda_c=5 / math.pi, r_c=1.0)
        params = PARAMS if model == "ppp" else NetworkParameters(1.0, 5.0, 10.0, 4.0, pcp=pcp)
        _, _, totals = estimate_total_arrival_variance(
            params, dist, 1000, seed=seed, mean_bss=25.0, return_samples=True
        )
        reference = associate_arrival_totals(params, dist, 1000, seed, mean_bss=25.0)
        assert totals.tobytes() == reference.tobytes()


class TestMetricsReport:
    def test_serialization_round_trip(self):
        report = MetricsReport(
            empirical_busy_prob=0.125,
            empirical_success_prob=0.5,
            per_user_mean_delay=12.25,
            delay_samples=100,
            unstable_fraction=0.0,
            clamped_rate_fraction=0.0,
            seed=7,
            horizon=1000,
            warmup=100,
        )
        text = report.to_kv_text()
        parsed = dict(line.split("=") for line in text.strip().splitlines())
        assert float(parsed["empirical_busy_prob"]) == 0.125
        assert int(parsed["seed"]) == 7
        assert float(parsed["per_user_mean_delay"]) == 12.25


def test_parameters_the_benchmark_tracer_binds():
    # bench/tracer.py binds these arguments by name to count work per layer
    expected = {
        simulate_network: {"bss", "users", "horizon", "warmup", "detail"},
        associate: {"users", "bss", "mode"},
        ArrivalStream.arrivals: {"start", "stop"},
        estimate_cell_areas: {"probes"},
        run_sir_static: {"samples"},
        estimate_total_arrival_variance: {"replications"},
        write_rows: {"rows"},
    }
    for fn, names in expected.items():
        missing = names - set(inspect.signature(fn).parameters)
        assert not missing, f"{fn.__qualname__} lost {sorted(missing)}"
