import hashlib
import math

import pytest

from spatq import cli, harness
from spatq.harness import (
    ExperimentConfig,
    SweepRow,
    compare,
    load_canned_config,
    load_config,
    parse_tolerances,
    read_rows,
    run_analytic_sweep,
    run_simulation_sweep,
    write_rows,
)
from spatq.traffic import ArrivalRateDistribution

DELAY_CFG = """
# conditional delay sweep used by the harness tests
[scenario]
name = delay_sweep
engine = analytic
model = ppp
metrics = delay,success_prob

[network]
lambda_b = 0.1
lambda_u = 1.0
theta = 10
alpha = 4
n_users = 20

[traffic]
distribution = det:0.001

[sweep]
variable = xi0
grid = 0.001,0.005,0.02

[simulation]
seed = 3
"""


PCP_CFG = """
# clustered users with the parent intensity left to close the product
[scenario]
name = pcp_closed
model = pcp
metrics = unstable_prob

[network]
lambda_b = 0.1
lambda_u = 1.0
cell_area = 10
pcp_r_c = 1.0
pcp_lambda_c = 1.1

[traffic]
distribution = exp-mean:0.01

[sweep]
variable = alpha
grid = 2.5,4

[simulation]
seed = 1
"""


@pytest.fixture
def delay_config(tmp_path):
    path = tmp_path / "delay.cfg"
    path.write_text(DELAY_CFG)
    return path


class TestConfigLoading:
    def test_fields_parsed(self, delay_config):
        config = load_config(delay_config)
        assert config.name == "delay_sweep"
        assert config.metrics == ("delay", "success_prob")
        assert config.grid == (0.001, 0.005, 0.02)
        assert config.dist == ArrivalRateDistribution.deterministic(0.001)

    def test_overrides_win(self, delay_config):
        config = load_config(delay_config, {"network.alpha": "3", "simulation.seed": "9"})
        assert config.alpha == 3.0
        assert config.seed == 9

    def test_theta_db_converts(self, delay_config):
        config = load_config(delay_config, {"network.theta_db": "20"})
        assert config.theta == pytest.approx(100.0)

    def test_theta_conflict_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            DELAY_CFG.replace("theta = 10", "theta = 10\ntheta_db = 10")
        )
        with pytest.raises(ValueError):
            load_config(path)

    def test_seed_required(self, tmp_path):
        path = tmp_path / "noseed.cfg"
        path.write_text(DELAY_CFG.replace("seed = 3", ""))
        with pytest.raises(ValueError):
            load_config(path)

    def test_grid_must_increase(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(DELAY_CFG.replace("grid = 0.001,0.005,0.02", "grid = 0.02,0.005"))
        with pytest.raises(ValueError):
            load_config(path)

    def test_bad_value_diagnoses_field(self, tmp_path):
        path = tmp_path / "field.cfg"
        path.write_text(DELAY_CFG.replace("alpha = 4", "alpha = four"))
        with pytest.raises(ValueError, match=r"\[network\] alpha"):
            load_config(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ValueError):
            load_config("does_not_exist.cfg")

    def test_env_var_sets_output_dir(self, delay_config, monkeypatch):
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, "/tmp/spatq-out")
        config = load_config(delay_config)
        assert config.output_dir == "/tmp/spatq-out"

    def test_unknown_key_rejected(self, tmp_path, delay_config):
        path = tmp_path / "typo.cfg"
        path.write_text(DELAY_CFG.replace("lambda_u = 1.0", "lamda_u = 5"))
        with pytest.raises(ValueError, match=r"\[network\] lamda_u"):
            load_config(path)
        with pytest.raises(ValueError, match=r"\[network\] p_b"):
            load_config(delay_config, {"network.p_b": "2"})
        with pytest.raises(ValueError, match=r"\[simulation\] alpha"):
            load_config(delay_config, {"simulation.alpha": "3"})

    def test_missing_keys_take_field_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv(harness.OUTPUT_DIR_ENV, raising=False)
        path = tmp_path / "minimal.cfg"
        path.write_text(
            "[scenario]\nname = m\nmetrics = busy_prob\n"
            "[sweep]\nvariable = xi0\ngrid = 0.01\n[simulation]\nseed = 1\n"
        )
        assert load_config(path) == ExperimentConfig(
            name="m", metrics=("busy_prob",), sweep_var="xi0", grid=(0.01,), seed=1
        )

    def test_canned_configs_all_load(self):
        for figure, scenarios in harness.FIGURES.items():
            for scenario in scenarios:
                config = load_canned_config(scenario)
                assert config.name == scenario


class TestCsvRoundTrip:
    def test_rows_survive_full_precision(self, tmp_path):
        rows = [
            SweepRow("xi0", 1 / 3, "delay", 49.346519820204186, 0.0, "analytic"),
            SweepRow("xi0", 0.02, "delay", None, 0.0, "analytic"),
        ]
        path = write_rows(tmp_path / "rows.csv", rows)
        back = read_rows(path)
        assert back[0].value == rows[0].value
        assert back[0].estimate == rows[0].estimate
        assert back[1].estimate is None

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_rows(path)


class TestAnalyticSweep:
    def test_delay_sweep_has_unstable_tokens(self, delay_config, tmp_path):
        config = load_config(delay_config)
        path = run_analytic_sweep(config, tmp_path)
        rows = read_rows(path)
        delays = {r.value: r.estimate for r in rows if r.metric == "delay"}
        assert delays[0.001] is not None
        assert delays[0.001] < delays[0.005]  # delay grows with the arrival rate
        assert delays[0.02] is None  # past the stability bound for 20 users
        text = path.read_text()
        assert "unstable" in text
        assert len(rows) == 2 * len(config.grid)

    def test_single_point_grid(self, tmp_path):
        config = ExperimentConfig(
            name="one",
            engine="analytic",
            model="ppp",
            metrics=("success_prob",),
            sweep_var="xi0",
            grid=(0.005,),
            seed=1,
            n_users=10.0,
        )
        rows = read_rows(run_analytic_sweep(config, tmp_path))
        assert len(rows) == 1
        assert rows[0].estimate == pytest.approx(
            1 - 10 * 0.005 * math.sqrt(10.0) / (2 / math.pi), rel=1e-12
        )

    def test_unstable_prob_sweep_via_canned_config(self, tmp_path):
        config = load_canned_config(
            "fig8_pus_exp_ppp_a4", {"sweep.grid": "0.1,0.5", "sweep.start": ""}
        )
        rows = read_rows(run_analytic_sweep(config, tmp_path))
        assert len(rows) == 2
        assert 0.0 <= rows[0].estimate < rows[1].estimate <= 1.0

    def test_pmf_sweep_normalizes(self, tmp_path):
        config = load_canned_config("fig3_pmf_pcp")
        rows = read_rows(run_analytic_sweep(config, tmp_path))
        total = sum(r.estimate for r in rows)
        assert 0.97 < total <= 1.0 + 1e-9  # clustered tail beyond k=30 is ~0.7%


class TestLoadTimeChecks:
    def test_omitted_lambda_p_closes_the_product(self, tmp_path):
        path = tmp_path / "closed.cfg"
        path.write_text(PCP_CFG)
        closed = read_rows(run_analytic_sweep(load_config(path), tmp_path / "closed"))
        lambda_p = 1.0 / (math.pi * 1.0**2 * 1.1)  # lambda_u / (pi r_c^2 lambda_c)
        explicit = load_config(path, {"network.pcp_lambda_p": repr(lambda_p)})
        rows = read_rows(run_analytic_sweep(explicit, tmp_path / "explicit"))
        assert [r.estimate for r in closed] == [r.estimate for r in rows]
        assert closed[0].estimate != closed[1].estimate

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("pcp_r_c = 1.0\n", "", "pcp_r_c"),
            ("pcp_lambda_c = 1.1\n", "", "pcp_lambda_c"),
            ("variable = alpha\ngrid = 2.5,4", "variable = k\ngrid = 0,1.5", "k sweep"),
        ],
        ids=["no-r_c", "no-lambda_c", "fractional-k"],
    )
    def test_invalid_config_fails_to_load(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "bad.cfg"
        path.write_text(PCP_CFG.replace(old, new))
        with pytest.raises(ValueError, match=message):
            load_config(path)
        outdir = tmp_path / "out"
        assert cli.main(["analyze", "--config", str(path), "--outdir", str(outdir)]) == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_metric_names_checked_for_every_engine(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            ExperimentConfig(
                name="typo",
                engine="coupled",
                metrics=("delya",),
                sweep_var="lambda_u",
                grid=(1.0,),
                seed=1,
            )


class TestSimulationSweep:
    def _coupled_config(self, **kw):
        base = dict(
            name="coupled_small",
            engine="coupled",
            model="ppp",
            metrics=(),
            sweep_var="lambda_u",
            grid=(2.0, 5.0),
            seed=7,
            lambda_b=1.0,
            horizon=1500,
            warmup=300,
            replications=2,
            mean_bss=25.0,
            dist=ArrivalRateDistribution.deterministic(0.005),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_deterministic_output_bytes(self, tmp_path):
        config = self._coupled_config()
        p1 = run_simulation_sweep(config, tmp_path / "a")
        p2 = run_simulation_sweep(config, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_rate_config_idle(self, tmp_path):
        config = self._coupled_config(
            dist=ArrivalRateDistribution.deterministic(0.0), grid=(2.0,)
        )
        rows = read_rows(run_simulation_sweep(config, tmp_path))
        busy = [r for r in rows if r.metric == "busy_prob"]
        assert busy[0].estimate == 0.0

    def test_worker_pool_matches_serial(self, tmp_path):
        config = self._coupled_config()
        serial = run_simulation_sweep(config, tmp_path / "serial")
        parallel_config = self._coupled_config(workers=2)
        parallel = run_simulation_sweep(parallel_config, tmp_path / "parallel")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_static_sir_sweep_matches_closed_form(self, tmp_path):
        config = ExperimentConfig(
            name="sir_check",
            engine="static-sir",
            model="ppp",
            metrics=("static_sir_success",),
            sweep_var="q",
            grid=(0.5,),
            seed=4,
            samples=100_000,
        )
        analytic = read_rows(run_analytic_sweep(config, tmp_path))
        simulated = read_rows(run_simulation_sweep(config, tmp_path))
        assert simulated[0].estimate == pytest.approx(analytic[0].estimate, abs=0.012)

    def test_delay_oracle_sweep(self, tmp_path):
        config = ExperimentConfig(
            name="oracle",
            engine="delay-oracle",
            model="ppp",
            metrics=("delay",),
            sweep_var="xi0",
            grid=(0.05,),
            seed=12,
            n_users=5.0,
            theta=10.0,
            alpha=4.0,
            horizon=1_000_000,
        )
        rows = read_rows(run_simulation_sweep(config, tmp_path))
        analytic = read_rows(run_analytic_sweep(config, tmp_path))
        assert rows[0].estimate == pytest.approx(analytic[0].estimate, rel=0.02)


class TestCompare:
    def test_identical_files_pass(self, tmp_path):
        rows = [SweepRow("q", 0.5, "success_prob", 0.287, 0.0, "analytic")]
        a = write_rows(tmp_path / "a.csv", rows)
        b = write_rows(tmp_path / "b.csv", rows)
        report = compare(a, b, {"success_prob": (0.01, False)})
        assert report.passed
        assert report.rows[0].rel_gap == 0.0

    def test_grid_mismatch_lists_rows(self, tmp_path):
        a = write_rows(
            tmp_path / "a.csv",
            [
                SweepRow("q", 0.5, "m", 1.0, 0.0, "analytic"),
                SweepRow("q", 0.7, "m", 1.0, 0.0, "analytic"),
            ],
        )
        b = write_rows(tmp_path / "b.csv", [SweepRow("q", 0.5, "m", 1.0, 0.0, "simulation")])
        with pytest.raises(ValueError, match="0.7"):
            compare(a, b, {})

    def test_informational_failure_does_not_fail_report(self, tmp_path):
        a = write_rows(tmp_path / "a.csv", [SweepRow("q", 0.5, "m", 1.0, 0.0, "analytic")])
        b = write_rows(tmp_path / "b.csv", [SweepRow("q", 0.5, "m", 2.0, 0.0, "simulation")])
        strict = compare(a, b, {"m": (0.1, False)})
        assert not strict.passed
        soft = compare(a, b, {"m": (0.1, True)})
        assert soft.passed
        assert not soft.rows[0].ok or soft.rows[0].informational

    def test_unstable_rows_must_agree(self, tmp_path):
        a = write_rows(tmp_path / "a.csv", [SweepRow("x", 1.0, "delay", None, 0.0, "analytic")])
        b_match = write_rows(
            tmp_path / "b.csv", [SweepRow("x", 1.0, "delay", None, 0.0, "simulation")]
        )
        b_diff = write_rows(
            tmp_path / "c.csv", [SweepRow("x", 1.0, "delay", 12.0, 0.0, "simulation")]
        )
        assert compare(a, b_match, {"delay": (0.02, False)}).passed
        assert not compare(a, b_diff, {"delay": (0.02, False)}).passed

    def test_sweep_variable_mismatch_rejected(self, tmp_path):
        a = write_rows(tmp_path / "a.csv", [SweepRow("xi0", 0.5, "delay", 1.0, 0.0, "analytic")])
        b = write_rows(
            tmp_path / "b.csv", [SweepRow("theta", 0.5, "delay", 1.0, 0.0, "simulation")]
        )
        with pytest.raises(ValueError, match="'xi0'.*'theta'"):
            compare(a, b, {"delay": (0.02, False)})

    def test_report_file_written(self, tmp_path):
        rows = [SweepRow("q", 0.5, "m", 1.0, 0.0, "analytic")]
        a = write_rows(tmp_path / "a.csv", rows)
        b = write_rows(tmp_path / "b.csv", rows)
        out = tmp_path / "report.csv"
        compare(a, b, {}, output_path=out)
        assert out.exists()
        assert "rel_gap" in out.read_text().splitlines()[0]

    def test_tolerance_spec_parsing(self):
        spec = parse_tolerances("delay:0.02,busy_prob:0.1:informational")
        assert spec == {"delay": (0.02, False), "busy_prob": (0.1, True)}
        with pytest.raises(ValueError):
            parse_tolerances("delay:0.02:maybe")


class TestCli:
    def test_gen_writes_pattern(self, tmp_path, capsys):
        out = tmp_path / "points.csv"
        code = cli.main(
            ["gen", "--mode", "ppp", "--intensity", "1.0", "--width", "8",
             "--height", "8", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("x,y,parent_index")

    def test_gen_pcp(self, tmp_path):
        out = tmp_path / "clusters.csv"
        code = cli.main(
            ["gen", "--mode", "pcp", "--lambda-p", "0.2", "--lambda-c", "1.0",
             "--r-c", "1.0", "--width", "10", "--height", "10",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert ",-1" not in text.splitlines()[1]

    def test_analyze_and_compare_pipeline(self, delay_config, tmp_path, capsys):
        outdir = str(tmp_path)
        assert cli.main(["analyze", "--config", str(delay_config), "--outdir", outdir]) == 0
        analytic = tmp_path / "delay_sweep_analytic.csv"
        assert analytic.exists()
        # comparing a file against itself passes with zero gaps
        code = cli.main(
            ["compare", "--analytic", str(analytic), "--simulated", str(analytic),
             "--tolerances", "delay:0.02,success_prob:0.01"]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "overall: PASS" in summary

    def test_compare_failure_exits_nonzero(self, tmp_path):
        a = write_rows(tmp_path / "a.csv", [SweepRow("q", 0.5, "m", 1.0, 0.0, "analytic")])
        b = write_rows(tmp_path / "b.csv", [SweepRow("q", 0.5, "m", 2.0, 0.0, "simulation")])
        code = cli.main(
            ["compare", "--analytic", str(a), "--simulated", str(b),
             "--tolerances", "m:0.1"]
        )
        assert code == 1

    def test_config_error_exits_two(self, tmp_path):
        code = cli.main(["analyze", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2

    def test_sweep_start_without_stop_exits_two(self, tmp_path, capsys):
        path = tmp_path / "range.cfg"
        path.write_text(DELAY_CFG.replace("grid = 0.001,0.005,0.02", "start = 0.001\nnum = 3"))
        code = cli.main(["analyze", "--config", str(path), "--outdir", str(tmp_path)])
        assert code == 2
        assert "[sweep] start needs stop" in capsys.readouterr().err

    def test_percent_in_value_read_verbatim(self, tmp_path):
        path = tmp_path / "percent.cfg"
        path.write_text(DELAY_CFG.replace("name = delay_sweep", "name = a%b"))
        code = cli.main(["analyze", "--config", str(path), "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "a%b_analytic.csv").exists()

    def test_reproduce_writes_figure_data(self, tmp_path):
        code = cli.main(["reproduce", "fig7", "--outdir", str(tmp_path)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["fig7_rate_a3_analytic.csv", "fig7_rate_a4_analytic.csv"]
        rows = read_rows(tmp_path / "fig7_rate_a4_analytic.csv")
        values = [r.estimate for r in rows]
        assert max(values) > values[0] and max(values) > values[-1]

    def test_reproduce_writes_to_env_output_dir(self, tmp_path, monkeypatch):
        outdir = tmp_path / "env-out"
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(outdir))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reproduce", "fig7"]) == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == ["fig7_rate_a3_analytic.csv", "fig7_rate_a4_analytic.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["env-out"]


# sha256 of every CSV that `spatq reproduce` writes, recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1.  Values print at full precision, so
# another numpy or scipy release may move a last digit; otherwise a changed
# digest means the canned figure data changed.
CANNED_SHA256 = {
    "fig10_pus_pcp1_exp": "4f76d40e1006222ece962be5868af22091bb788fa57ef4babac81b7ca1902509",
    "fig10_pus_pcp1_unif": "fc83c5364d6857162ac7a9aa4dcb0131db8f3f608060850134c9425e87327f40",
    "fig10_pus_pcp2_exp": "3b5b8e7ca9aead13b9bca68df1b094596d13b6b383d3a8735a4887b68c254755",
    "fig10_pus_pcp2_unif": "36bab6b949b39759b5a706095283cdc32b2ca44a113e96b35d6727c8216d3cd2",
    "fig11_delay_a25": "98dbc9bc8e3fb96438df6c6671c0bae086ef8b7d98b5335e7420188b98aea77c",
    "fig11_delay_a3": "eb4cd324ca1e88c9c5e94882114a8995bd3f334b86e3791da3998b608176d1a7",
    "fig11_delay_a4": "daecabd79f824c3f60d5b900b6af3fcd57278ed5f2d6a25560783244e40ef328",
    "fig3_pmf_pcp": "e250b0720d7d3760cbf002e70277f1c3551be5670a9f79312f32bbb17d114c8d",
    "fig3_pmf_ppp": "ceefff5614ea63441cecb087c828fa732bbf558bf375f7b2ffd5b5eaabf2416a",
    "fig6_variance_pcp": "8ed7ba79386386930417724a0058097f19abf7764034d52b5c52f3813adfd9bb",
    "fig6_variance_ppp": "4228085f1c1cbe5694cf50975e6eeb80855e1660c9cc38c5b4de678e634ff530",
    "fig7_rate_a3": "fb433cca3706a394a613686fb8cd22af0288c6011f8aaadf6ae313906021f76c",
    "fig7_rate_a4": "82297754f9609ad12abbdb68ca7cf1e0d27b2059e1d658f03446eb20d1fe238f",
    "fig8_pus_exp_pcp_a25": "4fbe19e64dd77383d41487ff4fb2d2234c1a1fa1e49647bf5df1b48b5270e72c",
    "fig8_pus_exp_pcp_a4": "d83d8ad7019c01172b25e70a730f5e466226fec0705def36db4d91ce3968881b",
    "fig8_pus_exp_ppp_a25": "96583d3fcfd8ff56ab43e699515f57071dfbc7703c0a3c23842af04c5debbd02",
    "fig8_pus_exp_ppp_a4": "ae9ce983288f463f3fdbd8c108553e0d8d22c8331cea0183a990a2ea0d6436d1",
    "fig9_pus_unif_pcp_a25": "bb34fbea4ca8d07d6d970b33a1acbefdf90f3565fcb127cc0d306662a9121291",
    "fig9_pus_unif_pcp_a4": "47fa59d4c7c077862488b21299bc7d86acab45377ab52e93f756f7a80363947a",
    "fig9_pus_unif_ppp_a25": "76437aec2aed50bba23c000cdc88f58ed528d851db2c4cdc17446ae14444084a",
    "fig9_pus_unif_ppp_a4": "83d0679e13c8a20f04deb8d7d82bec8dd481e511d5d8e88522cd5bffa01599df",
}


def test_canned_figure_data_unchanged(tmp_path):
    for figure in harness.FIGURES:
        assert cli.main(["reproduce", figure, "--outdir", str(tmp_path)]) == 0
    digests = {
        path.name.removesuffix("_analytic.csv"): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == CANNED_SHA256
