"""Experiment configs, parameter sweeps, and analytic-vs-simulated comparison.

Configs are flat INI-style files (sections of key = value); every run is
fully determined by the config plus its seed.  Sweep output is CSV with one
metric per row: sweep_var,value,metric,estimate,stderr,source.  Unstable
delays are rendered as the literal token `unstable`.
"""
from __future__ import annotations

import configparser
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import analytics, simulator
from .analytics import PCP, PPP, NetworkParameters
from .geometry import PcpParams
from .traffic import DETERMINISTIC, ArrivalRateDistribution

ENGINE_ANALYTIC = "analytic"

_SWEEP_VARS = (
    "lambda_u",
    "theta",
    "theta_db",
    "xi0",
    "n_users",
    "alpha",
    "q",
    "k",
    "cell_area",
)

OUTPUT_DIR_ENV = "SPATQ_OUTPUT_DIR"
CSV_COLUMNS = ("sweep_var", "value", "metric", "estimate", "stderr", "source")
UNSTABLE_TOKEN = "unstable"


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One sweep scenario: model parameters, grid, and simulation controls.

    The field defaults are the config file defaults too: `load_config`
    passes only the keys a file sets.
    """

    name: str
    sweep_var: str
    grid: tuple[float, ...]
    seed: int
    engine: str = ENGINE_ANALYTIC
    model: str = PPP
    metrics: tuple[str, ...] = ()
    lambda_b: float = 1.0
    lambda_u: float = 1.0
    theta: float = 10.0
    alpha: float = 4.0
    n_users: float = 1.0
    xi0: float | None = None
    cell_area: float = 1.0
    pcp_r_c: float | None = None
    pcp_lambda_p: float | None = None
    pcp_lambda_p_factor: float | None = None
    pcp_lambda_c: float | None = None
    pcp_lambda_c_factor: float | None = None
    dist: ArrivalRateDistribution = ArrivalRateDistribution.deterministic(0.0)
    horizon: int = 20_000
    warmup: int = 4_000
    replications: int = 1
    samples: int = 1_000_000
    q: float | None = None
    mean_bss: float = 100.0
    workers: int = 1
    output_dir: str = "."

    def __post_init__(self):
        if self.engine != ENGINE_ANALYTIC and self.engine not in _SIMULATIONS:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.model not in (PPP, PCP):
            raise ValueError(f"unknown population model {self.model!r}")
        if self.sweep_var not in _SWEEP_VARS:
            raise ValueError(
                f"unknown sweep variable {self.sweep_var!r}; expected one of {_SWEEP_VARS}"
            )
        if not self.grid:
            raise ValueError("sweep grid must not be empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if self.sweep_var == "k" and any(v < 0 or not float(v).is_integer() for v in self.grid):
            raise ValueError("k sweep values must be nonnegative integers")
        if self.engine == ENGINE_ANALYTIC and not self.metrics:
            raise ValueError("analytic sweeps must list at least one metric")
        unknown = set(self.metrics) - set(ANALYTIC_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")
        if self.model == PCP and self.pcp_r_c is None:
            raise ValueError("pcp model requires pcp_r_c")
        if self.model == PCP and self.pcp_lambda_c is None and self.pcp_lambda_c_factor is None:
            raise ValueError("pcp model needs pcp_lambda_c or pcp_lambda_c_factor")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    """One CSV record; estimate None encodes an unstable delay."""

    sweep_var: str
    value: float
    metric: str
    estimate: float | None
    stderr: float
    source: str


@dataclass(frozen=True)
class CompareRow:
    sweep_var: str
    value: float
    metric: str
    analytic: float | None
    simulated: float | None
    stderr: float
    rel_gap: float
    tolerance: float | None
    informational: bool
    ok: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[CompareRow, ...]
    passed: bool

    def summary(self) -> str:
        lines = []
        for row in self.rows:
            status = "PASS" if row.ok else ("INFO" if row.informational else "FAIL")
            tol = "-" if row.tolerance is None else f"{row.tolerance:g}"
            lines.append(
                f"{status} {row.metric}@{row.sweep_var}={row.value:g}: "
                f"analytic={_fmt_estimate(row.analytic)} simulated={_fmt_estimate(row.simulated)} "
                f"rel_gap={row.rel_gap:.4g} tol={tol}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} ({len(self.rows)} rows)")
        return "\n".join(lines) + "\n"


def _fmt_estimate(value: float | None) -> str:
    return UNSTABLE_TOKEN if value is None else f"{value:.17g}"


def write_rows(path, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                f"{row.sweep_var},{row.value:.17g},{row.metric},"
                f"{_fmt_estimate(row.estimate)},{row.stderr:.17g},{row.source}\n"
            )
    return path


def read_rows(path) -> list[SweepRow]:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            sweep_var, value, metric, estimate, stderr, source = line.split(",")
            rows.append(
                SweepRow(
                    sweep_var=sweep_var,
                    value=float(value),
                    metric=metric,
                    estimate=None if estimate == UNSTABLE_TOKEN else float(estimate),
                    stderr=float(stderr),
                    source=source,
                )
            )
    return rows


def _at(config: ExperimentConfig, value: float) -> ExperimentConfig:
    """The config at one grid value: the swept field set to `value`.

    `theta_db` sets `theta`, and an `xi0` sweep also sets a deterministic
    rate distribution.  A `k` sweep changes nothing, for `k` is the argument
    of a PMF, read from the grid value.  A deterministic distribution
    supplies `xi0` when the config leaves it unset.
    """
    changes = {}
    if config.sweep_var == "theta_db":
        changes["theta"] = 10.0 ** (value / 10.0)
    elif config.sweep_var != "k":
        changes[config.sweep_var] = value
    if config.dist.kind == DETERMINISTIC:
        if config.sweep_var == "xi0":
            changes["dist"] = ArrivalRateDistribution.deterministic(value)
        elif config.xi0 is None:
            changes["xi0"] = config.dist.param
    return replace(config, **changes)


def _network(config: ExperimentConfig) -> NetworkParameters:
    """Network parameters of a config, its PCP intensities resolved.

    Each PCP intensity is given outright or as a factor of `lambda_u`; a
    config that gives neither for `lambda_p` closes the product, so the
    implied user intensity is `lambda_u`.
    """
    pcp = None
    if config.model == PCP:
        lam_c = config.pcp_lambda_c
        if lam_c is None:
            lam_c = config.pcp_lambda_c_factor * config.lambda_u
        lam_p = config.pcp_lambda_p
        if lam_p is None and config.pcp_lambda_p_factor is not None:
            lam_p = config.pcp_lambda_p_factor * config.lambda_u
        elif lam_p is None:
            lam_p = config.lambda_u / (math.pi * config.pcp_r_c**2 * lam_c)
        pcp = PcpParams(lambda_p=lam_p, lambda_c=lam_c, r_c=config.pcp_r_c)
    return NetworkParameters(
        lambda_b=config.lambda_b,
        lambda_u=config.lambda_u,
        theta=config.theta,
        alpha=config.alpha,
        pcp=pcp,
    )


def _require(value, what: str):
    if value is None:
        raise ValueError(f"metric requires {what}, which the config does not define")
    return value


def _cell(config: ExperimentConfig) -> tuple[float, float, float, float]:
    """(n_users, xi0, theta, alpha): the arguments of the per-cell formulas."""
    return config.n_users, _require(config.xi0, "xi0"), config.theta, config.alpha


def _k(config: ExperimentConfig, value: float) -> int:
    if config.sweep_var != "k":
        raise ValueError("metric requires a k sweep, which the config does not define")
    return int(value)


def _pmf_pcp(config: ExperimentConfig, value: float) -> float:
    k = _k(config, value)
    return float(analytics.user_count_pmf(PCP, _network(config), config.cell_area, k_max=k)[k])


# metric -> estimate at (resolved config, grid value); each entry looks its
# analytics function up when called, so a patched module attribute is seen
_METRICS = {
    "busy_prob": lambda c, v: analytics.solve_busy_probability(*_cell(c)),
    "success_prob": lambda c, v: analytics.approx_success_probability(*_cell(c)),
    "achievable_rate": lambda c, v: analytics.achievable_rate(*_cell(c)),
    "service_rate": lambda c, v: analytics.service_rate(*_cell(c)),
    "delay": lambda c, v: analytics.mean_delay(*_cell(c)).value,
    "unstable_prob": lambda c, v: analytics.unstable_probability(
        c.dist, c.model, _network(c), c.cell_area
    ),
    "arrival_mean": lambda c, v: analytics.total_arrival_moments(
        c.dist, _network(c), c.model
    )[0],
    "arrival_variance": lambda c, v: analytics.total_arrival_moments(
        c.dist, _network(c), c.model
    )[1],
    "static_sir_success": lambda c, v: analytics.success_probability(
        _require(c.q, "q"), c.theta, c.alpha
    ),
    "pmf_ppp": lambda c, v: analytics.pmf_users_ppp(_k(c, v), c.lambda_u, c.cell_area),
    "pmf_pcp": _pmf_pcp,
}
ANALYTIC_METRICS = tuple(_METRICS)


def run_analytic_sweep(config: ExperimentConfig, output_dir=None) -> Path:
    """Evaluate the configured closed-form metrics over the grid; write CSV."""
    rows = []
    for value in config.grid:
        point = _at(config, value)
        for metric in config.metrics:
            estimate = _METRICS[metric](point, value)
            rows.append(
                SweepRow(config.sweep_var, value, metric, estimate, 0.0, "analytic")
            )
    out = _output_path(config, output_dir, "analytic")
    return write_rows(out, rows)


def _coupled_rows(config: ExperimentConfig):
    reports = [
        simulator.run_coupled(
            _network(config),
            config.dist,
            config.horizon,
            config.warmup,
            seed=config.seed + i,
            mean_bss=config.mean_bss,
        )
        for i in range(config.replications)
    ]
    for metric, attr in (
        ("busy_prob", "empirical_busy_prob"),
        ("success_prob", "empirical_success_prob"),
        ("delay", "per_user_mean_delay"),
        ("unstable_fraction", "unstable_fraction"),
    ):
        vals = np.array([getattr(r, attr) for r in reports], dtype=float)
        yield metric, float(np.mean(vals)), _stderr(vals)


def _static_sir_rows(config: ExperimentConfig):
    results = [
        simulator.run_sir_static(
            _network(config),
            _require(config.q, "q"),
            config.samples,
            seed=config.seed + i,
            mean_bss=config.mean_bss,
        )
        for i in range(config.replications)
    ]
    est = np.array([estimate for estimate, _ in results])
    se = _stderr(est) if len(est) > 1 else results[0][1]
    yield "static_sir_success", float(est.mean()), se


def _arrival_variance_rows(config: ExperimentConfig):
    mean, variance, samples = simulator.estimate_total_arrival_variance(
        _network(config),
        config.dist,
        config.replications,
        seed=config.seed,
        mean_bss=config.mean_bss,
        return_samples=True,
    )
    n = len(samples)
    yield "arrival_mean", mean, float(samples.std(ddof=1) / math.sqrt(n))
    centered = samples - samples.mean()
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - (n - 3) / (n - 1) * variance**2, 0.0) / n
    yield "arrival_variance", variance, math.sqrt(var_of_var)


def _delay_oracle_rows(config: ExperimentConfig):
    n_users, xi0, theta, alpha = _cell(config)
    mu = analytics.service_rate(n_users, xi0, theta, alpha)
    values = [
        simulator.run_delay_oracle(n_users, xi0, mu, config.horizon, seed=config.seed + i)
        for i in range(config.replications)
    ]
    if any(v.unstable for v in values):
        yield "delay", None, 0.0
    else:
        vals = np.array([v.value for v in values])
        yield "delay", float(vals.mean()), _stderr(vals)


# simulation engine -> (metric, estimate, stderr) rows at a resolved config;
# with `analytic`, its keys are the engines a config may name
_SIMULATIONS = {
    "coupled": _coupled_rows,
    "static-sir": _static_sir_rows,
    "arrival-variance": _arrival_variance_rows,
    "delay-oracle": _delay_oracle_rows,
}


def _simulate_point(config: ExperimentConfig, value: float) -> list[SweepRow]:
    return [
        SweepRow(config.sweep_var, value, metric, estimate, stderr, "simulation")
        for metric, estimate, stderr in _SIMULATIONS[config.engine](_at(config, value))
    ]


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def run_simulation_sweep(config: ExperimentConfig, output_dir=None) -> Path:
    """Run the configured Monte Carlo engine over the grid; write CSV.

    Replication i uses seed_i = seed + i, so output is deterministic and grid
    points may be dispatched to worker processes without changing results.
    """
    if config.engine not in _SIMULATIONS:
        raise ValueError(f"engine {config.engine!r} is not a simulation engine")
    if config.workers > 1 and len(config.grid) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_simulate_point, [config] * len(config.grid), config.grid))
    else:
        chunks = [_simulate_point(config, value) for value in config.grid]
    rows = [row for chunk in chunks for row in chunk]
    out = _output_path(config, output_dir, "simulated")
    return write_rows(out, rows)


def _output_path(config: ExperimentConfig, output_dir, kind: str) -> Path:
    base = output_dir if output_dir is not None else config.output_dir
    return Path(base) / f"{config.name}_{kind}.csv"


def parse_tolerances(spec: str) -> dict[str, tuple[float, bool]]:
    """Parse `metric:tol[:informational],...` into {metric: (tol, informational)}."""
    out: dict[str, tuple[float, bool]] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) == 2:
            out[parts[0]] = (float(parts[1]), False)
        elif len(parts) == 3 and parts[2] == "informational":
            out[parts[0]] = (float(parts[1]), True)
        else:
            raise ValueError(f"bad tolerance entry {item!r}")
    return out


def compare(
    analytic_csv,
    simulated_csv,
    tolerances: dict[str, tuple[float, bool]],
    output_path=None,
) -> ComparisonReport:
    """Join two sweep CSVs row-by-row and check relative gaps against tolerances.

    Metrics without a tolerance entry are reported informationally.  Grids
    must match exactly, and so must the sweep variable of each row pair;
    mismatches raise with the offending rows or variables named.
    """
    analytic = {(r.value, r.metric): r for r in read_rows(analytic_csv)}
    simulated = {(r.value, r.metric): r for r in read_rows(simulated_csv)}
    shared = sorted(set(analytic) & set(simulated))
    for key in shared:
        a_var, s_var = analytic[key].sweep_var, simulated[key].sweep_var
        if a_var != s_var:
            raise ValueError(f"sweep variables differ: analytic {a_var!r}, simulated {s_var!r}")
    compared_metrics = {m for _, m in shared}
    missing = [
        key
        for key in sorted(set(analytic) ^ set(simulated))
        if key[1] in compared_metrics
    ]
    if missing:
        raise ValueError(f"sweep grids do not match; unpaired rows: {missing}")
    if not shared:
        raise ValueError("no common (value, metric) rows to compare")

    rows = []
    passed = True
    for value, metric in shared:
        a = analytic[(value, metric)]
        s = simulated[(value, metric)]
        if (a.estimate is None) or (s.estimate is None):
            gap = 0.0 if a.estimate == s.estimate else math.inf
        else:
            gap = abs(a.estimate - s.estimate) / max(abs(a.estimate), 1e-300)
        tol_entry = tolerances.get(metric)
        tol, informational = tol_entry if tol_entry else (None, True)
        ok = gap <= tol if tol is not None else True
        if not ok and not informational:
            passed = False
        rows.append(
            CompareRow(
                sweep_var=a.sweep_var,
                value=value,
                metric=metric,
                analytic=a.estimate,
                simulated=s.estimate,
                stderr=s.stderr,
                rel_gap=gap,
                tolerance=tol,
                informational=informational,
                ok=ok or informational,
            )
        )
    report = ComparisonReport(rows=tuple(rows), passed=passed)
    if output_path is not None:
        _write_comparison(report, output_path)
    return report


def _write_comparison(report: ComparisonReport, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            "sweep_var,value,metric,analytic,simulated,stderr,rel_gap,tolerance,"
            "informational,ok\n"
        )
        for r in report.rows:
            tol = "" if r.tolerance is None else f"{r.tolerance:.17g}"
            fh.write(
                f"{r.sweep_var},{r.value:.17g},{r.metric},{_fmt_estimate(r.analytic)},"
                f"{_fmt_estimate(r.simulated)},{r.stderr:.17g},{r.rel_gap:.17g},{tol},"
                f"{int(r.informational)},{int(r.ok)}\n"
            )
    return path


# --- config file handling ---------------------------------------------------

_INT_KEYS = {"horizon", "warmup", "replications", "samples", "seed", "workers", "num"}
_STR_KEYS = {
    "name", "engine", "model", "metrics", "distribution", "variable", "directory",
    "grid", "scale",
}

# every key each INI section accepts
_SECTION_KEYS = {
    "scenario": {"name", "engine", "model", "metrics"},
    "network": {
        "lambda_b", "lambda_u", "theta", "theta_db", "alpha", "n_users", "xi0", "cell_area",
        "pcp_r_c", "pcp_lambda_p", "pcp_lambda_p_factor", "pcp_lambda_c", "pcp_lambda_c_factor",
    },
    "traffic": {"distribution"},
    "sweep": {"variable", "grid", "start", "stop", "num", "scale"},
    "simulation": {
        "seed", "horizon", "warmup", "replications", "samples", "q", "mean_bss", "workers",
    },
    "output": {"directory"},
}
# config keys that set an ExperimentConfig field of another name
_FIELD_OF = {"variable": "sweep_var", "distribution": "dist", "directory": "output_dir"}


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Load an ExperimentConfig from an INI-style file plus key overrides.

    Overrides use `section.key` form and take precedence over file values.
    The SIR threshold may be given as `theta` (linear) or `theta_db`.  Keys
    the file leaves out take the ExperimentConfig defaults; unknown keys
    are rejected.  Values are read verbatim: `%` is not an interpolation.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    if path is not None:
        read = cp.read(path)
        if not read:
            raise ValueError(f"config file {path!r} not found or unreadable")
    overrides = overrides or {}
    for dotted, value in overrides.items():
        if "." not in dotted:
            raise ValueError(f"override {dotted!r} must look like section.key")
        section, key = dotted.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    # an explicit threshold override displaces the file's other spelling
    if "network.theta_db" in overrides and "network.theta" not in overrides:
        cp.remove_option("network", "theta")
    if "network.theta" in overrides and "network.theta_db" not in overrides:
        cp.remove_option("network", "theta_db")
    # blank values (e.g. --set sweep.start=) drop the option entirely
    for section in cp.sections():
        for key, value in list(cp.items(section)):
            if value.strip() == "":
                cp.remove_option(section, key)

    values = {}
    for section in cp.sections():
        for key in cp.options(section):
            if key not in _SECTION_KEYS.get(section, ()):
                raise ValueError(f"unknown config key [{section}] {key}")
            raw = cp.get(section, key).strip()
            try:
                if key in _STR_KEYS:
                    values[key] = raw
                elif key in _INT_KEYS:
                    values[key] = int(raw)
                else:
                    values[key] = float(raw)
            except ValueError as exc:
                raise ValueError(f"config [{section}] {key} = {raw!r}: {exc}") from None
    for section, key in (("scenario", "name"), ("sweep", "variable"), ("simulation", "seed")):
        if key not in values:
            raise ValueError(f"config must set [{section}] {key}")

    theta_db = values.pop("theta_db", None)
    if theta_db is not None:
        if "theta" in values:
            raise ValueError("set either [network] theta or theta_db, not both")
        values["theta"] = 10.0 ** (theta_db / 10.0)
    grid = _parse_grid(values)
    if "metrics" in values:
        values["metrics"] = tuple(m.strip() for m in values["metrics"].split(",") if m.strip())
    if "distribution" in values:
        values["distribution"] = ArrivalRateDistribution.parse(values["distribution"])
    if "directory" not in values and OUTPUT_DIR_ENV in os.environ:
        values["directory"] = os.environ[OUTPUT_DIR_ENV]

    try:
        return ExperimentConfig(
            grid=grid, **{_FIELD_OF.get(key, key): value for key, value in values.items()}
        )
    except ValueError as exc:
        raise ValueError(f"invalid config {path!r}: {exc}") from None


def _parse_grid(values: dict) -> tuple[float, ...]:
    """Take the [sweep] grid keys out of `values` and return the grid."""
    raw, start, stop, num, scale = (
        values.pop(key, None) for key in ("grid", "start", "stop", "num", "scale")
    )
    if raw is not None:
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError:
            raise ValueError(f"config [sweep] grid = {raw!r} is not a number list") from None
    if start is None:
        raise ValueError("config must define [sweep] grid or start/stop/num")
    if stop is None or num is None:
        raise ValueError("config [sweep] start needs stop and num")
    if scale in (None, "linear"):
        return tuple(np.linspace(start, stop, num))
    if scale == "log":
        return tuple(np.geomspace(start, stop, num))
    raise ValueError(f"config [sweep] scale = {scale!r} must be linear or log")


# --- canned figure scenarios -------------------------------------------------

FIGURES = {
    "fig3": ("fig3_pmf_ppp", "fig3_pmf_pcp"),
    "fig6": ("fig6_variance_ppp", "fig6_variance_pcp"),
    "fig7": ("fig7_rate_a3", "fig7_rate_a4"),
    "fig8": ("fig8_pus_exp_ppp_a25", "fig8_pus_exp_ppp_a4",
             "fig8_pus_exp_pcp_a25", "fig8_pus_exp_pcp_a4"),
    "fig9": ("fig9_pus_unif_ppp_a25", "fig9_pus_unif_ppp_a4",
             "fig9_pus_unif_pcp_a25", "fig9_pus_unif_pcp_a4"),
    "fig10": ("fig10_pus_pcp1_exp", "fig10_pus_pcp2_exp",
              "fig10_pus_pcp1_unif", "fig10_pus_pcp2_unif"),
    "fig11": ("fig11_delay_a25", "fig11_delay_a3", "fig11_delay_a4"),
}


def load_canned_config(scenario: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    ref = resources.files("spatq.configs").joinpath(f"{scenario}.cfg")
    with resources.as_file(ref) as path:
        return load_config(path, overrides)


def reproduce(figure: str, output_dir=None, simulate: bool = False) -> list[Path]:
    """Write the canned sweep CSVs for one figure; returns the paths.

    Analytic curves are always produced; `simulate` adds the Monte Carlo
    counterpart for scenarios that define a simulation engine.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {sorted(FIGURES)}")
    paths = []
    for scenario in FIGURES[figure]:
        config = load_canned_config(scenario)
        paths.append(run_analytic_sweep(config, output_dir))
        if simulate and config.engine != ENGINE_ANALYTIC:
            paths.append(run_simulation_sweep(config, output_dir))
    return paths
