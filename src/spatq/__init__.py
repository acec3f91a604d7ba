"""Spatio-temporal traffic model: point patterns, queues, closed forms, sweeps."""

from .analytics import (
    DelayResult,
    NetworkParameters,
    PCP,
    PPP,
    StabilityThresholds,
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
from .geometry import (
    AssociationMap,
    PcpParams,
    PointPattern,
    Window,
    associate,
    cell_area_density,
    estimate_cell_areas,
    nearest_distance_density,
    read_pattern,
    sample_pcp,
    sample_ppp,
    write_pattern,
)
from .simulator import (
    MetricsReport,
    classify_queue_stability,
    estimate_total_arrival_variance,
    run_coupled,
    run_delay_oracle,
    run_sir_static,
    simulate_network,
)
from .traffic import ArrivalRateDistribution, ArrivalStream

__version__ = "0.1.0"
