"""Tests of the benchmark itself.  Run with `python3 -m pytest bench -q`."""
import dataclasses
import json
import time

import gauge
import run

spatq = run.import_spatq()

import tracer as tracing  # noqa: E402  (needs spatq on sys.path first)
import workloads  # noqa: E402
from spatq.analytics import NetworkParameters  # noqa: E402


def _small_coupled():
    params = NetworkParameters(lambda_b=1.0, lambda_u=5.0, theta=10.0, alpha=4.0)
    return workloads.Coupled(params, rate=0.005, mean_bss=20.0, horizon=3_000, warmup=500)


def _attributes():
    owners = {id(owner): owner for owner, _, _ in tracing.public_functions(spatq)}
    return {(key, name): value for key, owner in owners.items()
            for name, value in vars(owner).items()}


def test_tracer_restores_every_wrapped_attribute():
    before = _attributes()
    tracer = tracing.Tracer(spatq)
    wrapped = len(tracing.public_functions(spatq))
    try:
        with tracer.active(0):
            during = _attributes()
            assert sum(during[k] is not before[k] for k in before) == wrapped
            assert spatq.simulator.sample_ppp is not before[(id(spatq.simulator), "sample_ppp")]
            raise KeyboardInterrupt  # restoring must survive any exit
    except KeyboardInterrupt:
        pass
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_op_give_identical_output():
    op = _small_coupled().ops(seed=7, pass_index=0)[0]
    tracer = tracing.Tracer(spatq)
    _, plain, problems = run.run_op(op)
    _, traced, traced_problems = run.run_op(op, tracer, op_id=0)
    assert problems == [] and traced_problems == []
    assert plain == traced
    summary = tracer.summary()
    assert summary["simulator.simulate_network.calls"] == 1
    assert summary["traffic.ArrivalStream.arrivals.calls"] == tracer.counts["traffic.user_slots"] / 3_000
    assert 0.0 <= summary["simulator.simulate_network.self_s"] <= summary["simulator.simulate_network.s"]


def test_traced_run_reports_every_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer(spatq)
    measured = run.measure(_small_coupled(), seed=3, seconds=0, tracer=tracer)
    values = run.per_layer(measured, tracer)
    assert measured.attempted == 2 and measured.failed == 0
    assert 0.9 < values["trace.coverage"] <= 1.0
    assert 0.0 < values["simulator.busy_ratio"] < 1.0
    exercised = (
        "traffic.ArrivalStream.arrivals.self_s", "traffic.packets_arrived",
        "simulator.simulate_network.s", "simulator.simulate_network.self_s",
        "simulator.station_slots", "simulator.success_ratio", "simulator.delay_samples",
        "trace.overhead",
    )
    assert {m["name"] for m in spec["per_layer"]} >= set(exercised)
    assert all(name in values for name in exercised)


class _Fixed:
    """A workload whose second op returns a report with a wrong value."""

    def __init__(self, report, seed):
        self.report, self.seed = report, seed

    def ops(self, seed, pass_index):
        wrong = dataclasses.replace(self.report, empirical_busy_prob=1.5)
        check = workloads._keyed(lambda r: workloads.check_report(r, self.seed, 3_000, 500))
        return [workloads.Op("right", lambda: self.report, check),
                workloads.Op("wrong", lambda: wrong, check)]


def test_a_check_fed_a_wrong_value_counts_as_a_failure():
    workload = _small_coupled()
    seed = workloads.op_seed(5, 0, 0)
    report = workload.ops(5, 0)[0].call()
    measured = run.measure(_Fixed(report, seed), seed=0, seconds=0)
    assert (measured.attempted, measured.failed) == (2, 1)
    assert "empirical_busy_prob=1.5" in measured.failures[0]


def test_oracle_and_csv_checks_reject_wrong_values():
    assert workloads.check_sir(0.50, (0.50, 0.001)) == []
    assert workloads.check_sir(0.50, (0.52, 0.001)) != []
    assert workloads.check_delay(10.0, spatq.analytics.DelayResult(10.1)) == []
    assert workloads.check_delay(10.0, spatq.analytics.DelayResult(10.5)) != []
    header = ",".join(spatq.harness.CSV_COLUMNS)
    assert workloads.check_csv(f"{header}\nk,1,unstable_prob,0.5,0,analytic") == []
    assert workloads.check_csv(f"{header}\nk,1,unstable_prob,1.2,0,analytic") != []
    assert workloads.check_csv(f"{header}\nk,1,delay,unstable,0,analytic") == []
    assert workloads.check_csv(f"{header}\nk,1,delay,0.5,0,analytic") != []


def test_layer_map_names_only_benchmark_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS)
    entries = json.loads((run.ROOT / "bench" / "layer_map.json").read_text())["map"]
    for entry in entries:
        assert set(entry["layer"]) <= layer, entry
        assert set(entry["end_to_end"]) <= end_to_end, entry
        assert set(entry["moves_on"]) | set(entry["no_change_on"]) <= names, entry


def test_speed_gauge_stops_its_child_and_scales_by_the_speed_it_saw():
    with gauge.SpeedGauge() as speed_gauge:
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
    assert speed_gauge._proc.poll() is not None
    assert len(speed_gauge.samples) >= 3
    speed = speed_gauge.speed(start, end)
    assert speed > 0.0
    assert speed_gauge.scale(2.0, start, end) == 2.0 * speed
