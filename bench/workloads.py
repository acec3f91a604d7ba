"""The benchmark's workloads: fixed op lists built from a seed, with output checks.

An op is one call into spatq's public API.  Each workload builds the same
op list for every pass; only the seeds the ops receive change, derived from
the workload seed and the pass index.  A check turns an op's output into a
comparable key (traced and untraced runs of one op must give equal keys) and
a list of problems; any problem fails the op.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from spatq import analytics, cli, geometry, harness, simulator
from spatq.analytics import NetworkParameters
from spatq.geometry import PcpParams, Window
from spatq.traffic import ArrivalRateDistribution

THETA, ALPHA = 10.0, 4.0


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[object, list[str]]]
    # work units the op performs, by kind; reported per second of op time
    work: dict[str, float] = field(default_factory=dict)


def api(module, name: str, *args, **kwargs) -> Callable[[], object]:
    """A call of `module.name` that looks the attribute up when it runs.

    Late lookup lets the tracer's wrappers, installed only while an op runs,
    see calls the benchmark makes itself.
    """
    return lambda: getattr(module, name)(*args, **kwargs)


def op_seed(seed: int, pass_index: int, k: int) -> int:
    """Seed of the k-th op of a pass, a pure function of its position."""
    return int(np.random.SeedSequence([seed, pass_index, k]).generate_state(1)[0])


def _keyed(check, key=repr):
    """Adapt a problems-only check to the (key, problems) interface."""
    return lambda result: (key(result), check(result))


def _within(name: str, value: float, target: float, tol: float) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{name}: |{value:.6g} - {target:.6g}| > {tol:.3g}"]


# --- coupled slot engine -------------------------------------------------------

_PROBABILITIES = (
    "empirical_busy_prob",
    "empirical_success_prob",
    "unstable_fraction",
    "clamped_rate_fraction",
)


def check_report(report, seed: int, horizon: int, warmup: int) -> list[str]:
    """Range and echo checks on one `run_coupled` report."""
    problems = [
        f"{name}={getattr(report, name)!r} outside [0, 1]"
        for name in _PROBABILITIES
        if not 0.0 <= getattr(report, name) <= 1.0
    ]
    if not report.per_user_mean_delay >= 1.0:
        problems.append(f"per_user_mean_delay={report.per_user_mean_delay!r} < 1 slot")
    if report.delay_samples <= 0:
        problems.append("no delay samples")
    echoed = (report.seed, report.horizon, report.warmup)
    if echoed != (seed, horizon, warmup):
        problems.append(f"seed/horizon/warmup echoed as {echoed}")
    return problems


class Coupled:
    """The coupled slot engine on one network realization, built at set-up.

    Each op is one `simulate_network` run, the engine behind `run_coupled`.
    An op's cost varies by up to 2.4x between realizations of the same
    network law (near the critical rate), so the realization is fixed and
    the workload seed drives the slot dynamics: scheduling and fading draws.
    """

    def __init__(self, params, rate: float, mean_bss: float, horizon=20_000, warmup=4_000):
        side = math.sqrt(mean_bss / params.lambda_b)
        window = Window(side, side)
        station_seed, user_seed = np.random.SeedSequence(NETWORK_SEED).spawn(2)
        self.bss = geometry.sample_ppp(params.lambda_b, window, station_seed)
        if params.pcp is None:
            self.users = geometry.sample_ppp(params.lambda_u, window, user_seed)
        else:
            self.users = geometry.sample_pcp(params.pcp, window, user_seed)
        self.assoc = geometry.associate(self.users, self.bss)
        self.rates = np.full(len(self.users), rate)
        self.params, self.horizon, self.warmup = params, horizon, warmup
        q_star = analytics.solve_busy_probability(
            params.lambda_u / params.lambda_b, rate, params.theta, params.alpha
        )
        # the gap to the mean-field fixed point is recorded, not checked
        self.info = {"stations": len(self.bss), "users": len(self.users),
                     "q_star": q_star, "busy_gap_to_q_star": []}

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        s = op_seed(seed, pass_index, 0)
        call = api(
            simulator, "simulate_network", self.bss, self.users, self.assoc, self.rates,
            self.params.theta, self.params.alpha, self.horizon, self.warmup, s,
        )
        return [Op(f"simulate_network seed={s}", call, partial(self._check, s),
                   {"user_slots": len(self.users) * self.horizon})]

    def _check(self, seed, report):
        gap = report.empirical_busy_prob / self.info["q_star"] - 1.0
        self.info["busy_gap_to_q_star"].append(gap)
        return report.to_kv_text(), check_report(report, seed, self.horizon, self.warmup)


# a realization whose busy ratio and drift share are typical of the
# saturated law (0.52 and 0.57 at mean_bss=100)
NETWORK_SEED = 12345


def coupled_light() -> Coupled:
    params = NetworkParameters(lambda_b=1.0, lambda_u=5.0, theta=THETA, alpha=ALPHA)
    return Coupled(params, rate=0.005, mean_bss=100.0)


def coupled_saturated() -> Coupled:
    pcp = PcpParams(lambda_p=1.0, lambda_c=5.0 / (math.pi * 0.25), r_c=0.5)
    params = NetworkParameters(
        lambda_b=1.0, lambda_u=pcp.user_intensity, theta=THETA, alpha=ALPHA, pcp=pcp
    )
    return Coupled(params, rate=0.03, mean_bss=100.0)


# --- Monte Carlo oracles against their closed forms --------------------------

SIR_QS = (0.2, 0.5, 1.0)
SIR_SAMPLES = 100_000
ARRIVAL_REPS = 1_000
CELL_WINDOW = Window(32.0, 32.0)  # ~1024 stations at unit intensity
CELL_PROBES = 1_000_000
DELAY_CELLS = ((20, 0.005), (10, 0.01), (5, 0.02))
# three times the acceptance horizon: the 2% bound then sits beyond 5
# standard deviations of the oracle's run-to-run spread
DELAY_HORIZON = 30_000_000


def check_sir(target: float, result) -> list[str]:
    estimate, stderr = result
    return _within("static SIR success", estimate, target, max(0.01, 4.0 * stderr))


def check_arrival_variance(reference: float, result) -> list[str]:
    _, variance, samples = result
    n = len(samples)
    m4 = float(np.mean((samples - samples.mean()) ** 4))
    stderr = math.sqrt(max(m4 - (n - 3) / (n - 1) * variance**2, 0.0) / n)
    tol = max(0.10, 4.0 * stderr / reference)
    return _within("arrival variance / closed form", variance / reference, 1.0, tol)


def check_cell_areas(areas: np.ndarray, window: Window, lam: float) -> list[str]:
    """First moment and normalized second moment of Voronoi cell areas.

    The mean area of N cells tiling the window is exactly |W|/N, so its
    standard error is the Poisson count's, mean/sqrt(N).  The ratio
    E[S^2]/E[S]^2 (9/7 under the gamma(3.5) fit) does not depend on the
    realized count; its standard error comes from the delta method.
    """
    n = len(areas)
    problems = _within("cell area sum / window area", areas.sum() / window.area, 1.0, 1e-9)
    m1 = float(areas.mean())
    problems += _within("E[S]*lambda", m1 * lam, 1.0, max(0.01, 4.0 * m1 * lam / math.sqrt(n)))
    m2 = float(np.mean(areas**2))
    influence = (areas**2 - m2) / m1**2 - 2.0 * m2 * (areas - m1) / m1**3
    stderr = float(influence.std(ddof=1)) / math.sqrt(n)
    target = 1.0 + analytics.CELL_AREA_VARIANCE_COEFF
    problems += _within("E[S^2]/E[S]^2 / (9/7)", m2 / m1**2 / target, 1.0,
                        max(0.03, 4.0 * stderr / target))
    return problems


def check_delay(reference: float, result) -> list[str]:
    if result.unstable:
        return ["delay oracle reported an unstable queue"]
    return _within("oracle delay / formula", result.value / reference, 1.0, 0.02)


def _cell_areas(seed: int) -> np.ndarray:
    station_seed, probe_seed = np.random.SeedSequence(seed).spawn(2)
    bss = geometry.sample_ppp(1.0, CELL_WINDOW, station_seed)
    return geometry.estimate_cell_areas(bss, CELL_WINDOW, CELL_PROBES, probe_seed)


class Oracles:
    """Each independent oracle once per pass, at fixed API arguments."""

    def __init__(self):
        self.info: dict = {}
        self.sir_params = NetworkParameters(1.0, 1.0, THETA, ALPHA)
        self.sir_targets = [analytics.success_probability(q, THETA, ALPHA) for q in SIR_QS]
        self.rate = ArrivalRateDistribution.deterministic(1.5)
        pcp = PcpParams(lambda_p=2e-5, lambda_c=5 / (math.pi * 100.0**2), r_c=100.0)
        self.arrival_params = {
            "ppp": NetworkParameters(1e-5, 1e-4, THETA, ALPHA),
            "pcp": NetworkParameters(1e-5, 1e-4, THETA, ALPHA, pcp=pcp),
        }
        self.arrival_refs = {
            model: analytics.total_arrival_moments(self.rate, params, model)[1]
            for model, params in self.arrival_params.items()
        }
        self.delay_cells = [
            (n, xi0, analytics.service_rate(n, xi0, THETA, ALPHA),
             analytics.mean_delay(n, xi0, THETA, ALPHA).value)
            for n, xi0 in DELAY_CELLS
        ]

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        seeds = (op_seed(seed, pass_index, k) for k in itertools.count())
        ops = []
        for q, target in zip(SIR_QS, self.sir_targets):
            ops.append(Op(
                f"run_sir_static q={q}",
                api(simulator, "run_sir_static", self.sir_params, q, SIR_SAMPLES,
                    seed=next(seeds)),
                _keyed(partial(check_sir, target)),
                {"sir_samples": SIR_SAMPLES},
            ))
        for model, params in self.arrival_params.items():
            ops.append(Op(
                f"estimate_total_arrival_variance {model}",
                api(simulator, "estimate_total_arrival_variance", params, self.rate,
                    ARRIVAL_REPS, seed=next(seeds), return_samples=True),
                _keyed(partial(check_arrival_variance, self.arrival_refs[model]),
                       key=lambda r: r[2].tobytes()),
                {"arrival_reps": ARRIVAL_REPS},
            ))
        ops.append(Op(
            "estimate_cell_areas",
            partial(_cell_areas, next(seeds)),
            _keyed(partial(check_cell_areas, window=CELL_WINDOW, lam=1.0),
                   key=lambda r: r.tobytes()),
            {"probes": CELL_PROBES},
        ))
        for n, xi0, mu, reference in self.delay_cells:
            ops.append(Op(
                f"run_delay_oracle n={n}",
                api(simulator, "run_delay_oracle", n, xi0, mu, DELAY_HORIZON,
                    seed=next(seeds)),
                _keyed(partial(check_delay, reference)),
                {"delay_slots": DELAY_HORIZON},
            ))
        return ops


# --- analytic figure sweeps through the command line -------------------------

FIGURES = tuple(harness.FIGURES)
_PROBABILITY_METRICS = {
    "busy_prob", "success_prob", "service_rate", "unstable_prob",
    "static_sir_success", "pmf_ppp", "pmf_pcp",
}


def check_csv(text: str) -> list[str]:
    """Probabilities in [0, 1], delays >= 1 slot or `unstable`, others finite >= 0."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(harness.CSV_COLUMNS):
        return ["unexpected CSV header"]
    problems = []
    for line in lines[1:]:
        metric, estimate = line.split(",")[2:4]
        if metric == "delay" and estimate == harness.UNSTABLE_TOKEN:
            continue
        value = float(estimate)
        if metric in _PROBABILITY_METRICS:
            ok = 0.0 <= value <= 1.0
        elif metric == "delay":
            ok = value >= 1.0
        else:
            ok = math.isfinite(value) and value >= 0.0
        if not ok:
            problems.append(f"{metric}={estimate} out of range")
    return problems


class AnalyticSweeps:
    """`spatq reproduce <fig>` for every figure, without --simulate, per pass.

    The seed only shuffles the figure order of each pass: the canned configs
    are the inputs, and every pass must write the same bytes as the first.
    """

    def __init__(self, outdir: Path):
        self.info: dict = {}
        self.outdir = Path(outdir)
        self.first: dict[str, dict[str, bytes]] = {}
        # CSV rows per figure, counted when its first pass is checked
        self.rows = {fig: {"sweep_points": 0} for fig in FIGURES}

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        order = list(FIGURES)
        random.Random(op_seed(seed, pass_index, 0)).shuffle(order)
        return [
            Op(f"reproduce {fig}", partial(self._reproduce, fig),
               partial(self._check, fig), self.rows[fig])
            for fig in order
        ]

    def _reproduce(self, figure: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["reproduce", figure, "--outdir", str(self.outdir)])
        return code, out.getvalue()

    def _check(self, figure: str, result):
        code, printed = result
        paths = [line[len("wrote "):] for line in printed.splitlines()
                 if line.startswith("wrote ")]
        files = {Path(p).name: Path(p).read_bytes() for p in paths}
        problems = [] if code == 0 and files else [f"exit code {code}, {len(files)} files"]
        if figure not in self.first:
            self.first[figure] = files
            self.rows[figure]["sweep_points"] = sum(d.count(b"\n") - 1 for d in files.values())
            for name, data in files.items():
                problems += [f"{name}: {p}" for p in check_csv(data.decode("ascii"))]
        elif files != self.first[figure]:
            problems.append("CSV bytes differ from the first pass")
        return files, problems


def make(name: str, scratch: Path):
    """Build the named workload; `scratch` is where it may write files."""
    if name == "coupled-light":
        return coupled_light()
    if name == "coupled-saturated":
        return coupled_saturated()
    if name == "mc-oracles":
        return Oracles()
    if name == "analytic-sweeps":
        return AnalyticSweeps(scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("coupled-light", "coupled-saturated", "mc-oracles", "analytic-sweeps")
