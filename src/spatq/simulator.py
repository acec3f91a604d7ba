"""Monte Carlo engines: static SIR sampling, coupled slotted queues, and
spatial arrival-rate spread estimation.

These are deliberately direct simulations of the slot dynamics so they can
serve as independent checks on the closed forms in `analytics`.  Slot
convention throughout: arrivals land at the start of a slot and can be served
within it, so the smallest possible packet delay is one slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .analytics import DelayResult, NetworkParameters
from .geometry import (
    PER_USER,
    TOROIDAL,
    AssociationMap,
    PointPattern,
    Window,
    _in_cell,
    associate,
    sample_pcp,
    sample_ppp,
)
from .traffic import ArrivalRateDistribution, ArrivalStream, _bernoulli_slots

_TRACE_GRID = 2048
# values per refill of a draw buffer, and queues per block of the drift fit:
# both bound a buffer's memory while amortizing per-call overhead
_BLOCK = 1 << 16
# drift, in packets per slot, above which a queue counts as unstable
_SLOPE_EPS = 1e-3
# static-SIR samples drawn per batch
_SIR_BATCH = 4096


@dataclass(frozen=True)
class MetricsReport:
    """Empirical counterparts of the analytic quantities for one run."""

    empirical_busy_prob: float
    empirical_success_prob: float
    per_user_mean_delay: float
    delay_samples: int
    unstable_fraction: float
    clamped_rate_fraction: float
    seed: int
    horizon: int
    warmup: int

    def to_kv_text(self) -> str:
        lines = [f"{f.name}={_format_value(getattr(self, f.name))}" for f in fields(self)]
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class NetworkTrace:
    """Detailed per-queue bookkeeping from a coupled run (for verification).

    `queue_lengths[u, k]` is user u's backlog after slot `trace_slots[k]`,
    on the grid of at most 2048 slots that the drift classifier reads.
    `delay_values` and `delay_users` cover the served packets that arrived at
    or after the warmup, in departure order: by slot, then by station.
    """

    trace_slots: np.ndarray
    queue_lengths: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    delay_values: np.ndarray
    delay_users: np.ndarray


def _drift_fraction(traces: np.ndarray, slots: np.ndarray, slope_eps: float) -> float:
    """Fraction of queues whose length drifts upward over the last half.

    The least-squares slope of a row is its dot product with a weight per
    grid slot, zero outside the last half.  The weights sum to zero, so the
    rows need no centring, and they are reduced a block of rows at a time.
    """
    half = slots >= slots[-1] / 2.0
    if np.count_nonzero(half) < 2:  # no slope to fit
        return 0.0
    x_c = slots[half] - slots[half].mean()
    weights = np.zeros(len(slots))
    weights[half] = x_c / (x_c**2).sum()
    slopes = np.empty(len(traces))
    rows = max(1, _BLOCK // len(slots))
    for lo in range(0, len(traces), rows):
        slopes[lo : lo + rows] = traces[lo : lo + rows] @ weights
    return float(np.mean(slopes > slope_eps))


def classify_queue_stability(
    traces: np.ndarray,
    slots: np.ndarray | None = None,
    slope_eps: float = _SLOPE_EPS,
    min_span: int = 100_000,
) -> float:
    """Fraction of queues flagged unstable by a linear-drift test.

    `traces` holds queue lengths, one row per queue, sampled at `slots`
    (consecutive slots when omitted).  A queue is unstable when the
    least-squares slope of its length over the last half of the horizon
    exceeds `slope_eps` packets per slot.
    """
    traces = np.atleast_2d(np.asarray(traces))
    if slots is None:
        slots = np.arange(traces.shape[1])
    slots = np.asarray(slots)
    if traces.shape[1] != len(slots):
        raise ValueError("traces and slots disagree on length")
    if len(slots) < 8 or slots[-1] - slots[0] + 1 < min_span:
        raise ValueError(
            f"trace spans {0 if not len(slots) else slots[-1] - slots[0] + 1} slots; "
            f"need at least {min_span} for a drift test"
        )
    return _drift_fraction(traces, slots, slope_eps)


def run_sir_static(
    params: NetworkParameters,
    q: float,
    samples: int,
    seed: int,
    mean_bss: float = 200.0,
) -> tuple[float, float]:
    """Empirical success probability with interferers active independently w.p. q.

    Each sample draws the serving-link length from the nearest-station
    distance law and, independently, a fresh interference field: the active
    interferers, a station scatter thinned by q.  Thinning a Poisson count of
    `mean_bss` stations keeps each independently w.p. q, so the active count
    is drawn directly as Poisson(q * mean_bss), with positions uniform in the
    same square window and unit-mean exponential fading on every link.
    The serving distance and the interference field are decoupled exactly as
    in the closed form being checked; coupling them through one pattern would
    carve an interferer-free disc around the user and raise the result.
    Returns (estimate, standard error).  The window holds `mean_bss` stations
    on average, which bounds the far-field truncation bias; the result is
    scale invariant in the station intensity.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"activity probability must lie in [0, 1], got {q!r}")
    if samples < 100_000:
        raise ValueError("need at least 1e5 samples for a stable estimate")
    lam = params.lambda_b
    half_width = 0.5 * math.sqrt(mean_bss / lam)
    rng = np.random.default_rng(seed)
    exponent = -0.5 * params.alpha
    successes = 0
    done = 0
    while done < samples:
        n = min(_SIR_BATCH, samples - done)
        link_sq = -np.log(rng.random(n)) / (math.pi * lam)
        signal = rng.standard_exponential(n) * link_sq**exponent
        interference = _thinned_interference(rng, n, q * mean_bss, half_width, exponent)
        successes += int(np.count_nonzero(signal > params.theta * interference))
        done += n
    p_hat = successes / samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / samples)
    return p_hat, stderr


def _thinned_interference(
    rng: np.random.Generator, n: int, mean_active: float, half_width: float, exponent: float
) -> np.ndarray:
    """Interference at the origin of `n` independent fields of active stations.

    Each field holds Poisson(mean_active) stations uniform in the square of
    half-width `half_width`, with unit-mean exponential fading; flat arrays
    over all fields are reduced per field, so the work is one draw set per
    active station.  As a function of its own, it frees a batch's arrays
    before the caller draws the next batch.
    """
    owner = np.repeat(np.arange(n), rng.poisson(mean_active, n))
    xy = rng.uniform(-half_width, half_width, (len(owner), 2))
    pathloss = np.einsum("ij,ij->i", xy, xy)
    del xy
    np.power(pathloss, exponent, out=pathloss)
    pathloss *= rng.standard_exponential(len(owner))
    return np.bincount(owner, weights=pathloss, minlength=n)


def _queue_departures(
    arrival_slots: np.ndarray, service_slots: np.ndarray, horizon: int
) -> np.ndarray:
    """Departure slot per packet for a FIFO queue, `horizon` if not served.

    Packet i reaches the head at slot max(a_i, d_{i-1} + 1) and departs in
    the last of its G_i = `service_slots[i]` slots there.  With e_i = d_i + 1
    and C_i = G_1 + ... + G_i, e_i = max(a_i, e_{i-1}) + G_i unrolls to
    e_i - C_i = max over j <= i of (a_j - C_j + G_j).
    """
    ends = np.cumsum(service_slots)
    # updated in place to keep packet-sized temporaries few
    departed = arrival_slots - ends
    departed += service_slots
    np.maximum.accumulate(departed, out=departed)
    departed += ends
    departed -= 1
    return np.minimum(departed, horizon, out=departed)


def _queue_trace(
    arrival_slots: np.ndarray, departed: np.ndarray, first, ends, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trace grid of at most 2048 slots and each queue's length after them.

    Queue u owns the FIFO packets `first[u]:ends[u]`; unserved ones read `horizon`.
    """
    grid = np.unique(np.linspace(0, horizon - 1, min(_TRACE_GRID, horizon)).astype(int))
    lengths = np.empty((len(first), len(grid)), dtype=np.int64)
    for u, (lo, hi) in enumerate(zip(first, ends)):
        lengths[u] = np.searchsorted(arrival_slots[lo:hi], grid, "right")
        lengths[u] -= np.searchsorted(departed[lo:hi], grid, "right")
    return grid, lengths


def run_delay_oracle(
    n_users: float,
    xi0: float,
    mu: float,
    horizon: int,
    seed: int,
) -> DelayResult:
    """Mean sojourn time of a single queue with Bernoulli arrivals.

    Service succeeds with probability `mu` in every slot the queue is
    non-empty; a failure keeps the head packet in place.  `n_users` is the
    cell occupancy the service rate was derived from and bounds it by 1/n.
    A queue whose length drifts upward is reported as unstable instead of
    returning a divergent average.

    The slots a head packet waits for its success are geometric(mu) and
    independent of the past, as the i.i.d. success slots they stand for
    are, so one geometric draw per packet (`_queue_departures`) has the
    law of a success draw per slot, at a cost that grows with the packets.
    """
    if not (0.0 < mu <= 1.0):
        raise ValueError(f"service probability must lie in (0, 1], got {mu!r}")
    if n_users < 1 or mu * n_users > 1.0 + 1e-9:
        raise ValueError("service probability inconsistent with n_users (mu <= 1/n)")
    if not (0.0 <= xi0 <= 1.0):
        raise ValueError(f"arrival rate must lie in [0, 1], got {xi0!r}")
    if horizon < 1_000_000:
        raise ValueError("delay oracle needs a horizon of at least 1e6 slots")
    rng = np.random.default_rng(seed)
    arrival_slots = _bernoulli_slots(rng, horizon, xi0)
    if len(arrival_slots) == 0:
        raise ValueError("no packets arrived within the horizon; raise xi0 or horizon")
    departed = _queue_departures(
        arrival_slots, rng.geometric(mu, len(arrival_slots)), horizon
    )

    grid, lengths = _queue_trace(arrival_slots, departed, [0], [len(arrival_slots)], horizon)
    if _drift_fraction(lengths, grid, _SLOPE_EPS) > 0:
        return DelayResult(None)
    served = departed < horizon
    if not served.any():
        return DelayResult(None)
    delays = departed[served] - arrival_slots[served] + 1
    return DelayResult(float(delays.mean()))


def _serve_slots(
    arrival_slots: np.ndarray,
    head: np.ndarray,
    departed: np.ndarray,
    serving_bs: np.ndarray,
    pathloss: np.ndarray,
    theta: float,
    interference: bool,
    horizon: int,
    warmup: int,
    sched_rng: np.random.Generator,
    fading_rng: np.random.Generator,
) -> int:
    """Run the slot loop of `simulate_network`, updating `head` and `departed`.

    Returns the busy station-slots at or after `warmup`.  The scheduling
    uniforms are drawn a block of slots at a time, one row per slot and one
    column per station with users, and the fading exponentials come from a
    buffer refilled in stream order.  Both generators then yield the same
    values in the same order as one draw per slot would, with memory
    bounded by `_BLOCK` values per buffer.
    """
    cell_sizes = np.bincount(serving_bs)
    live_bs = np.flatnonzero(cell_sizes)
    counts = cell_sizes[live_bs]
    offsets = np.cumsum(counts) - counts
    members_flat = np.argsort(serving_bs, kind="stable")
    rows = max(1, _BLOCK // len(live_bs))
    fades = np.empty(0)
    used = 0  # fades consumed from the buffer

    busy_bs_slots = 0
    for start in range(0, horizon, rows):
        draws = sched_rng.random((min(rows, horizon - start), len(live_bs)))
        picks = members_flat[offsets + (draws * counts).astype(int)]
        for t, chosen in enumerate(picks, start):
            act = arrival_slots[head[chosen]] <= t
            served_users = chosen[act]

            n_act = len(served_users)
            if not n_act:
                continue
            if interference and n_act > 1:
                need = n_act * n_act
                if used + need > len(fades):
                    fresh = fading_rng.standard_exponential(max(need, _BLOCK))
                    fades = np.concatenate((fades[used:], fresh))
                    used = 0
                link = fades[used : used + need].reshape(n_act, n_act) * pathloss[
                    served_users[:, None], live_bs[act]
                ]
                used += need
                own = link.diagonal()
                total = link.sum(axis=1)
                winners = served_users[own > theta * (total - own)]
            else:
                winners = served_users
            departed[head[winners]] = t
            head[winners] += 1
            if t >= warmup:
                busy_bs_slots += n_act
    return busy_bs_slots


def simulate_network(
    bss: PointPattern,
    users: PointPattern,
    assoc: AssociationMap,
    rates: np.ndarray,
    theta: float,
    alpha: float,
    horizon: int,
    warmup: int,
    seed,
    interference: bool = True,
    detail: bool = False,
):
    """Run the coupled slotted dynamics on an explicit network instance.

    Per slot: arrivals are appended, every station draws one of its
    associated users uniformly, transmits iff the drawn queue is non-empty,
    and all concurrent transmissions interfere.  A success removes the head
    packet; its delay is departure - arrival + 1.

    The queues are one flat array of arrival slots, each user's run closed
    by a `horizon` sentinel, a head index per user to its oldest unserved
    packet and a departure slot per packet (`horizon` until served), so
    memory grows with the number of packets.  `detail` adds a `NetworkTrace`.
    """
    n_users = len(users)
    n_bs = len(bss)
    if n_users == 0:
        raise ValueError("cannot simulate an empty user pattern")
    if not horizon > warmup >= 0:
        raise ValueError("need horizon > warmup >= 0")
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (n_users,):
        raise ValueError("rates must give one Bernoulli parameter per user")
    if np.any((rates < 0) | (rates > 1)):
        raise ValueError("rates must lie in [0, 1]")
    serving = np.asarray(assoc.serving_bs)
    if serving.shape != (n_users,) or serving.min() < 0 or serving.max() >= n_bs:
        raise ValueError(f"assoc must give each user one station label in [0, {n_bs})")

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    arrivals_ss, sched_ss, fading_ss = ss.spawn(3)
    seed_value = int(ss.entropy) if isinstance(ss.entropy, int) else -1

    stream_seeds = arrivals_ss.generate_state(n_users, dtype=np.uint64)
    streams = (ArrivalStream(rate=float(r), seed=int(s)) for r, s in zip(rates, stream_seeds))
    # the sentinel is never due, so an empty queue's head fails the backlog test
    arrival_slots = np.concatenate(
        [np.append(np.flatnonzero(a.arrivals(0, horizon)), horizon) for a in streams]
    )
    ends = np.flatnonzero(arrival_slots == horizon)
    first = np.append(0, ends[:-1] + 1)
    head = first.copy()
    departed = np.full(len(arrival_slots), horizon)

    pathloss = bss.window.distance_sq(users.points, bss.points) ** (-0.5 * alpha)
    busy_bs_slots = _serve_slots(
        arrival_slots, head, departed, serving, pathloss, theta,
        interference, horizon, warmup, np.random.default_rng(sched_ss),
        np.random.default_rng(fading_ss),
    )

    # sentinels keep departed == horizon, so they count as never served
    counted = (departed < horizon) & (arrival_slots >= warmup)
    delays = departed[counted] - arrival_slots[counted] + 1
    successes = np.count_nonzero((departed >= warmup) & (departed < horizon))
    grid, queue_lengths = _queue_trace(arrival_slots, departed, first, ends, horizon)

    observed = horizon - warmup
    report = MetricsReport(
        empirical_busy_prob=busy_bs_slots / (n_bs * observed),
        empirical_success_prob=successes / busy_bs_slots if busy_bs_slots else 0.0,
        per_user_mean_delay=int(delays.sum()) / len(delays) if len(delays) else float("nan"),
        delay_samples=len(delays),
        unstable_fraction=_drift_fraction(queue_lengths, grid, _SLOPE_EPS),
        clamped_rate_fraction=0.0,
        seed=seed_value,
        horizon=horizon,
        warmup=warmup,
    )
    if not detail:
        return report
    packet_users = np.repeat(np.arange(n_users), ends - first + 1)[counted]
    order = np.lexsort((serving[packet_users], departed[counted]))
    trace = NetworkTrace(
        trace_slots=grid,
        queue_lengths=queue_lengths,
        arrivals=ends - first,
        departures=head - first,
        delay_values=delays[order].astype(float),
        delay_users=packet_users[order],
    )
    return report, trace


def run_coupled(
    params: NetworkParameters,
    dist: ArrivalRateDistribution,
    horizon: int,
    warmup: int,
    seed: int,
    mean_bss: float = 100.0,
    detail: bool = False,
):
    """Sample a network and run the coupled dynamics on it.

    Stations form a uniform scatter; users follow `params.pcp` when present,
    a uniform scatter otherwise, and associate to their nearest station.
    Each user gets an i.i.d. rate draw, clamped into [0, 1] with the clamp
    frequency recorded in the report.
    """
    if not horizon > warmup >= 0:
        raise ValueError("need horizon > warmup >= 0")
    side = math.sqrt(mean_bss / params.lambda_b)
    window = Window(side, side, TOROIDAL)
    ss = np.random.SeedSequence(seed)
    bs_ss, user_ss, rate_ss, net_ss = ss.spawn(4)
    bss = sample_ppp(params.lambda_b, window, bs_ss)
    if len(bss) == 0:
        raise RuntimeError("station sample came up empty; increase mean_bss")
    if params.pcp is not None:
        users = sample_pcp(params.pcp, window, user_ss)
    else:
        users = sample_ppp(params.lambda_u, window, user_ss)
    if len(users) == 0:
        raise ValueError("user sample came up empty; increase mean_bss or lambda_u")
    assoc = associate(users, bss, PER_USER)

    raw = np.atleast_1d(dist.sample(np.random.default_rng(rate_ss), len(users)))
    rates = np.clip(raw, 0.0, 1.0)
    clamped = float(np.mean(raw != rates))

    result = simulate_network(
        bss,
        users,
        assoc,
        rates,
        params.theta,
        params.alpha,
        horizon,
        warmup,
        net_ss,
        detail=detail,
    )
    if detail:
        report, trace = result
        return replace(report, clamped_rate_fraction=clamped), trace
    return replace(result, clamped_rate_fraction=clamped)


def estimate_total_arrival_variance(
    params: NetworkParameters,
    dist: ArrivalRateDistribution,
    replications: int,
    seed: int,
    mean_bss: float = 100.0,
    return_samples: bool = False,
):
    """Mean and variance of the summed arrival rate over one cell.

    Each replication samples fresh stations and users, picks a uniformly
    chosen station's cell, and sums raw (unclamped) rate draws of the users
    it serves.  Clustered users follow their parent's nearest station, which
    matches how the closed-form variance counts whole clusters per cell.
    Only the chosen cell is resolved (`geometry._in_cell`); its members are
    the ones `associate` would give it, so the totals are the same.
    Picking among the finite station count inflates the estimate by roughly
    1/mean_bss, so raise `mean_bss` when chasing percent-level agreement.
    """
    if replications < 1_000:
        raise ValueError("need at least 1000 replications")
    clustered = params.pcp is not None
    side = math.sqrt(mean_bss / params.lambda_b)
    window = Window(side, side, TOROIDAL)
    if clustered and 2.0 * params.pcp.r_c >= side:
        raise ValueError("cluster radius too large for the window; raise mean_bss")

    totals = np.empty(replications)
    children = np.random.SeedSequence(seed).spawn(replications)
    for r, child in enumerate(children):
        bs_ss, user_ss, aux_ss = child.spawn(3)
        bss = sample_ppp(params.lambda_b, window, bs_ss)
        if len(bss) == 0:
            raise RuntimeError("station sample came up empty; increase mean_bss")
        if clustered:
            users = sample_pcp(params.pcp, window, user_ss)
        else:
            users = sample_ppp(params.lambda_u, window, user_ss)
        rng = np.random.default_rng(aux_ss)
        target = int(rng.integers(len(bss)))
        if len(users) == 0:
            totals[r] = 0.0
            continue
        if clustered:
            in_cell = _in_cell(users.parents, bss.points, target, window)
            members = np.flatnonzero(in_cell[users.cluster_of])
        else:
            members = np.flatnonzero(_in_cell(users.points, bss.points, target, window))
        draws = np.atleast_1d(dist.sample(rng, len(users)))
        totals[r] = float(draws[members].sum())
    mean = float(totals.mean())
    variance = float(totals.var(ddof=1))
    if return_samples:
        return mean, variance, totals
    return mean, variance
