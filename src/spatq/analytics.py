"""Closed-form performance formulas for the slotted interference-limited network.

All functions are pure and stateless.  Rates are probabilities per slot,
delays are in slots, `theta` is the linear SIR threshold, and `alpha > 2` is
the path-loss exponent.  The recurring constant sinc(delta) with
delta = 2/alpha is sin(pi*delta)/(pi*delta); it comes from the Laplace
transform of Poisson shot-noise interference under unit-mean exponential
fading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .geometry import PcpParams
from .traffic import EXPONENTIAL, UNIFORM, ArrivalRateDistribution

PPP = "ppp"
PCP = "pcp"

# second moment of the gamma(3.5, 3.5) cell-area fit is 9/7, so the area
# variance coefficient is 2/7 (printed as 0.2857 elsewhere): the paper's
# constant, about 2% above the exact Poisson-Voronoi cell-area variance
# 0.2802/lambda^2 (Gilbert, Ann. Math. Stat. 1962)
CELL_AREA_VARIANCE_COEFF = 2.0 / 7.0

_MAX_FIXED_POINT_ITERATIONS = 50_000_000


def sinc_delta(alpha: float) -> float:
    """sin(pi*delta)/(pi*delta) for delta = 2/alpha; requires alpha > 2."""
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise ValueError(f"alpha must be > 2 (got {alpha!r}); alpha = 2 degenerates")
    delta = 2.0 / alpha
    return math.sin(math.pi * delta) / (math.pi * delta)


def _check_threshold(theta: float) -> None:
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be finite and positive, got {theta!r}")


def _check_rate(xi0: float) -> None:
    if not (0.0 <= xi0 <= 1.0):
        raise ValueError(f"arrival rate must lie in [0, 1], got {xi0!r}")


def _check_users(n_users: float) -> None:
    if not (math.isfinite(n_users) and n_users >= 1):
        raise ValueError(f"n_users must be >= 1, got {n_users!r}")


@dataclass(frozen=True)
class NetworkParameters:
    """Scalar model parameters shared by analytics and simulation."""

    lambda_b: float
    lambda_u: float
    theta: float
    alpha: float
    pcp: PcpParams | None = None

    def __post_init__(self):
        for name in ("lambda_b", "lambda_u"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        _check_threshold(self.theta)
        sinc_delta(self.alpha)  # validates alpha > 2
        if self.pcp is not None:
            implied = self.pcp.user_intensity
            if abs(implied - self.lambda_u) > 1e-6 * max(implied, self.lambda_u):
                raise ValueError(
                    f"pcp implies user intensity {implied!r}, got lambda_u={self.lambda_u!r}"
                )

    @property
    def delta(self) -> float:
        return 2.0 / self.alpha


@dataclass(frozen=True)
class StabilityThresholds:
    """Critical rate b0 (single user) and user-count bounds a1 > a2."""

    b0: float
    a1: float
    a2: float

    def __post_init__(self):
        if not (self.a1 > self.a2 > 0):
            raise ValueError("thresholds must satisfy a1 > a2 > 0")


@dataclass(frozen=True)
class DelayResult:
    """Mean delay in slots, or an explicit unstable marker (value None)."""

    value: float | None = None

    def __post_init__(self):
        if self.value is not None:
            if not (math.isfinite(self.value) and self.value >= 1.0 - 1e-9):
                raise ValueError(f"finite delay must be >= 1 slot, got {self.value!r}")

    @property
    def unstable(self) -> bool:
        return self.value is None


def max_stable_rate(n_users: float, theta: float, alpha: float) -> float:
    """Largest per-user arrival rate a cell of n users can sustain."""
    _check_users(n_users)
    _check_threshold(theta)
    s = sinc_delta(alpha)
    return s / (n_users * (s + theta ** (2.0 / alpha)))


def solve_busy_probability(n_users: float, xi0: float, theta: float, alpha: float) -> float:
    """Self-consistent station busy probability (closed form).

    Below the critical rate the buffer drains and the busy probability is the
    load amplified by interference; at or above it the station saturates at 1.
    """
    _check_rate(xi0)
    if xi0 < max_stable_rate(n_users, theta, alpha):
        s = sinc_delta(alpha)
        q = n_users * xi0 * s / (s - n_users * xi0 * theta ** (2.0 / alpha))
        # just below the critical rate, rounding can lift q a hair above 1
        return min(q, 1.0)
    return 1.0


def iterate_busy_probability(
    n_users: float,
    xi0: float,
    theta: float,
    alpha: float,
    tol: float = 1e-12,
    max_iter: int = _MAX_FIXED_POINT_ITERATIONS,
) -> float:
    """Busy probability by direct fixed-point iteration from q = 0.

    Serves as an independent check on the closed form.  The update map is
    affine with slope b below the saturation cap, so iteration stops once the
    geometric tail bound |dq| * b / (1 - b) falls under `tol`.
    """
    _check_users(n_users)
    _check_rate(xi0)
    _check_threshold(theta)
    s = sinc_delta(alpha)
    t = theta ** (2.0 / alpha)
    slope = n_users * xi0 * t / s
    q = 0.0
    for _ in range(max_iter):
        q_next = min(n_users * xi0 * (s + q * t) / s, 1.0)
        delta_q = abs(q_next - q)
        q = q_next
        if q == 1.0 or delta_q == 0.0:
            return q
        if slope < 1.0 and delta_q * slope / (1.0 - slope) < tol:
            return q
    raise RuntimeError(
        f"fixed-point iteration did not converge within {max_iter} steps"
    )


def success_probability(q: float, theta: float, alpha: float) -> float:
    """Transmission success probability when interferers are busy w.p. q."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"busy probability must lie in [0, 1], got {q!r}")
    _check_threshold(theta)
    s = sinc_delta(alpha)
    return s / (s + q * theta ** (2.0 / alpha))


def approx_success_probability(
    n_users: float, xi0: float, theta: float, alpha: float
) -> float:
    """Success probability at the busy level's fixed point."""
    q = solve_busy_probability(n_users, xi0, theta, alpha)
    return success_probability(q, theta, alpha)


def achievable_rate(n_users: float, xi0: float, theta: float, alpha: float) -> float:
    """Throughput in bits/slot/Hz at the decoding threshold."""
    return approx_success_probability(n_users, xi0, theta, alpha) * math.log2(1.0 + theta)


def service_rate(n_users: float, xi0: float, theta: float, alpha: float) -> float:
    """Per-user service probability per slot under uniform random scheduling."""
    return approx_success_probability(n_users, xi0, theta, alpha) / n_users


def mean_delay(n_users: float, xi0: float, theta: float, alpha: float) -> DelayResult:
    """Mean packet delay of a user sharing its station with n_users queues.

    The service pool counts every associated user, busy or not, which is the
    coupled engine's scheduling rule: a station picks among all its users.
    A scheduler that picks only among backlogged users would serve faster,
    so the value upper-bounds its delay; spatq implements no such scheduler.
    """
    mu = service_rate(n_users, xi0, theta, alpha)
    if mu <= xi0:
        return DelayResult(None)
    return DelayResult((1.0 - xi0) / (mu - xi0))


def stability_thresholds(
    xi0: float, theta: float, alpha: float, beta: float
) -> StabilityThresholds:
    """Critical rate and user-count bounds for stability and a delay target.

    A cell with fewer than a2 users meets the mean-delay requirement beta;
    between a2 and a1 it is stable but too slow; above a1 it is unstable.
    """
    if not (0.0 < xi0 < 1.0):
        raise ValueError("arrival rate must lie in (0, 1) for threshold analysis")
    if not beta > 1:
        raise ValueError("delay requirement beta must exceed 1 slot")
    _check_threshold(theta)
    s = sinc_delta(alpha)
    t = theta ** (2.0 / alpha)
    a1 = s / (xi0 * (t + s))
    a2 = s / ((1.0 / beta) * (1.0 - xi0) * s + xi0 * t + xi0 * s)
    return StabilityThresholds(b0=s / (s + t), a1=a1, a2=a2)


def _poisson_logpmf(k, mu: float) -> np.ndarray:
    """Log Poisson pmf; handles mu = 0 as a point mass at zero."""
    k = np.asarray(k, dtype=float)
    if mu == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return k * math.log(mu) - mu - gammaln(k + 1.0)


def _poisson_cutoff(mu: float) -> int:
    """Count K whose Poisson(mu) tail mass beyond K is below 1e-30."""
    return int(math.ceil(mu + 12.0 * math.sqrt(mu) + 50.0))


def pmf_users_ppp(k: int, lambda_u: float, s: float) -> float:
    """Probability of k users in a cell of area s under uniform scatter."""
    if k < 0 or int(k) != k:
        raise ValueError("user count must be a nonnegative integer")
    if lambda_u < 0:
        raise ValueError("lambda_u must be >= 0")
    if not s > 0:
        raise ValueError("cell area must be positive")
    return float(np.exp(_poisson_logpmf(k, lambda_u * s)))


def user_count_pmf(
    model: str,
    params: NetworkParameters,
    s: float,
    tol: float = 1e-10,
    k_max: int | None = None,
) -> np.ndarray:
    """PMF vector of the cell user count for k = 0..K.

    Clustered users are attributed whole to the cell containing their
    parent, making the count a Poisson mixture over the parent count.
    Without `k_max`, every series stops 12 standard deviations plus 50 past
    its Poisson mean, so the mass dropped is below 1e-29: far below any
    admissible `tol` in (0, 1e-6], which is validated but does not move the
    cutoff.  A cutoff at `tol` would shift small results of
    `unstable_probability`, which counts dropped mass as unstable.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")
    if not s > 0:
        raise ValueError("cell area must be positive")
    if model == PPP:
        mu = params.lambda_u * s
        k_top = k_max if k_max is not None else _poisson_cutoff(mu)
        ks = np.arange(k_top + 1, dtype=float)
        return np.exp(_poisson_logpmf(ks, mu))
    if model == PCP:
        if params.pcp is None:
            raise ValueError("pcp parameters required for the clustered model")
        pcp = params.pcp
        mu_parents = pcp.lambda_p * s
        m_c = pcp.mean_cluster_size
        a_max = _poisson_cutoff(mu_parents)
        k_top = k_max if k_max is not None else _poisson_cutoff(m_c * a_max)
        a = np.arange(a_max + 1, dtype=float)
        ks = np.arange(k_top + 1, dtype=float)
        log_weights = _poisson_logpmf(a, mu_parents)
        log_k_fact = gammaln(ks + 1.0)
        # rows: parent count a; cols: user count k
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mu = np.log(np.maximum(m_c * a, 1e-300))
            inner = ks[None, :] * log_mu[:, None] - (m_c * a)[:, None] - log_k_fact[None, :]
            inner[0, :] = np.where(ks == 0, 0.0, -np.inf)
        pmf = np.exp(log_weights[:, None] + inner).sum(axis=0)
        if not np.all(np.isfinite(pmf)):
            raise RuntimeError("cluster pmf series failed to converge numerically")
        return pmf
    raise ValueError(f"unknown population model {model!r}")


def total_arrival_moments(
    dist: ArrivalRateDistribution, params: NetworkParameters, model: str
) -> tuple[float, float]:
    """Mean and variance of the summed arrival rate over a typical cell.

    The variance treats each user's rate as its mean value, so it captures
    the user-count fluctuation (cell-size spread plus clustering), not the
    spread of the rate law itself.
    """
    ratio = params.lambda_u / params.lambda_b
    mean_rate = dist.mean()
    mean_total = mean_rate * ratio
    if model == PPP:
        extra = 1.0
    elif model == PCP:
        if params.pcp is None:
            raise ValueError("pcp parameters required for the clustered model")
        extra = params.pcp.mean_cluster_size + 1.0
    else:
        raise ValueError(f"unknown population model {model!r}")
    variance = mean_rate**2 * (CELL_AREA_VARIANCE_COEFF * ratio**2 + ratio * extra)
    return mean_total, variance


def unstable_probability(
    dist: ArrivalRateDistribution,
    model: str,
    params: NetworkParameters,
    s: float,
) -> float:
    """Probability that the typical user's queue cannot keep up with arrivals.

    Averages the stability condition (rate below the cell's sustainable
    per-user rate) over both the rate law and the user-count distribution of
    a cell with area s.  Empty cells count as stable.
    """
    if dist.kind not in (EXPONENTIAL, UNIFORM):
        raise ValueError(
            "unstable probability is defined for exponential or uniform rate laws"
        )
    pmf = user_count_pmf(model, params, s)
    ks = np.arange(1, len(pmf), dtype=float)
    s_const = sinc_delta(params.alpha)
    t_const = params.theta ** params.delta
    thresholds = s_const / (ks * (s_const + t_const))
    stable_mass = float((dist.cdf(thresholds) * pmf[1:]).sum()) + float(pmf[0])
    return float(min(max(1.0 - stable_mass, 0.0), 1.0))
