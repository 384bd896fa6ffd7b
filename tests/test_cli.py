import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

from cartanhartogs import cli


def _run(args, env=None):
    return CliRunner().invoke(cli.main, args, env=env, catch_exceptions=False)


def _strip_times(text):
    return re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": 0', text)


def test_duality_reports_unit_root():
    res = _run(["duality", "--domain", "chn", "--n", "2"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    root = report["checks"][0]["parameters"]["root"]
    assert abs(root - 1.0) < 1e-9
    assert report["summary"]["overall"] == "pass"


def test_report_schema():
    res = _run(["darboux", "--domain", "polydisc", "--n", "1",
                "--mu", "0.5", "--points", "20"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert set(report) == {"config", "checks", "summary"}
    check = report["checks"][0]
    assert set(check) == {"name", "parameters", "status", "worst_residual",
                          "tolerance", "witnesses", "wall_time_s"}
    assert check["status"] == "pass"
    assert check["worst_residual"] <= check["tolerance"]
    assert report["summary"]["artifact_version"]
    assert report["summary"]["seed"] == 0
    # config echo is complete enough to re-run
    cfg = report["config"]
    assert cfg["kind"] == "polydisc" and cfg["n"] == 1
    assert cfg["mu"] == [0.5] and cfg["checks"] == ["darboux"]


def test_volume_example():
    res = _run(["volume", "--domain", "polydisc", "--n", "1", "--mu", "1",
                "--samples", "1e5", "--seed", "7"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    flat = report["checks"][0]["parameters"]
    assert flat["samples"] == 100_000
    assert abs(flat["estimate"] - np.pi**2 / 2) < 0.1


def test_failing_check_exits_one(tmp_path):
    out = tmp_path / "report.json"
    # both sides of darboux are closed forms: only a tolerance below rounding fails
    res = _run(["darboux", "--domain", "polydisc", "--n", "1",
                "--points", "10", "--tol", "1e-17", "--output", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["overall"] == "fail"
    assert report["checks"][0]["witnesses"]


def test_usage_errors_exit_two(tmp_path):
    assert _run(["darboux", "--domain", "nosuch", "--n", "1"]).exit_code == 2
    assert _run(["darboux", "--domain", "polydisc"]).exit_code == 2
    assert _run(["darboux", "--domain", "polydisc", "--n", "1",
                 "--mu", "-2"]).exit_code == 2
    assert _run(["darboux", "--domain", "type-I", "--p", "2"]).exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["darboux", "--config", str(bad)]).exit_code == 2
    missing_dir = tmp_path / "nodir" / "report.json"
    assert _run(["duality", "--domain", "chn", "--n", "1",
                 "--output", str(missing_dir)]).exit_code == 2


@pytest.mark.parametrize("args", [
    ["darboux", "--domain", "polydisc", "--n", "0"],
    ["darboux", "--domain", "type-I", "--p", "0", "--q", "2"],
    ["darboux", "--domain", "chn", "--n", "0"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--mu", "nan"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--mu", "inf"],
    ["selberg", "--domain", "polydisc", "--n", "1", "--mu", "inf"],
    ["selberg", "--domain", "polydisc", "--n", "1", "--tol", "nan"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--fd-step", "nan"],
    ["volume", "--domain", "polydisc", "--n", "1", "--samples", "inf"],
    ["selberg", "--domain", "type-I", "--p", "4", "--q", "4"],
    ["all", "--domain", "type-I", "--p", "4", "--q", "4"],
], ids=["polydisc-n0", "type-I-p0", "chn-n0", "mu-nan", "mu-inf", "selberg-mu-inf",
        "selberg-tol-nan", "fd-step-nan", "samples-inf", "selberg-rank4", "all-rank4"])
def test_out_of_range_inputs_exit_two(args):
    # out-of-range dimensions and non-finite numbers are usage errors, not
    # tracebacks, silent passes or (mu = inf: N^mu = 0) a sampler that never ends;
    # so is a base rank the selberg quadrature does not cover
    res = _run(args)
    assert res.exit_code == 2
    assert "Error:" in res.output


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "polydisc", "n": 2, "mu": [2.0],
                               "points": 15, "seed": 5}))
    res = _run(["darboux", "--config", str(cfg)])
    report = json.loads(res.output)
    assert report["config"]["seed"] == 5
    assert report["config"]["mu"] == [2.0]
    assert report["config"]["points"] == 15

    # flags win over the file
    res = _run(["darboux", "--config", str(cfg), "--mu", "0.5", "--seed", "9"])
    report = json.loads(res.output)
    assert report["config"]["seed"] == 9
    assert report["config"]["mu"] == [0.5]


def test_env_seed_default_and_flag_override():
    env = {"CHVERIFY_SEED": "33"}
    res = _run(["duality", "--domain", "chn", "--n", "1"], env=env)
    assert json.loads(res.output)["config"]["seed"] == 33
    res = _run(["duality", "--domain", "chn", "--n", "1", "--seed", "2"], env=env)
    assert json.loads(res.output)["config"]["seed"] == 2


def test_file_seed_beats_env_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "chn", "n": 1, "seed": 21}))
    res = _run(["duality", "--config", str(cfg)], env={"CHVERIFY_SEED": "33"})
    assert json.loads(res.output)["config"]["seed"] == 21


def test_report_determinism():
    args = ["psh", "--domain", "type-I", "--p", "1", "--q", "2",
            "--points", "50", "--seed", "4"]
    a = _strip_times(_run(args).output)
    b = _strip_times(_run(args).output)
    assert a == b


def test_csv_output():
    res = _run(["selberg", "--domain", "polydisc", "--n", "1",
                "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("name,status,worst_residual")
    assert len(lines) == 4  # header + s in {0, 1, 2.5}
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


def test_all_with_jobs_matches_serial(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": "polydisc", "n": 1, "mu": [1.0], "points": 12,
        "samples": 20000, "checks": ["duality", "selberg", "capacity"]}))
    serial = _strip_times(_run(["all", "--config", str(cfg)]).output)
    parallel = _strip_times(_run(["all", "--config", str(cfg),
                                  "--jobs", "3"]).output)
    # duality yields 2 results, selberg 3, capacity 2 (flat + dual at mu = 1)
    assert json.loads(serial)["summary"]["total"] == 7
    # jobs is echoed in the config, so compare checks and summary only
    sa, pa = json.loads(serial), json.loads(parallel)
    assert sa["checks"] == pa["checks"]
    assert sa["summary"] == pa["summary"]


def test_all_runs_every_family():
    res = _run(["all", "--domain", "polydisc", "--n", "1", "--points", "10",
                "--samples", "20000", "--seed", "1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    names = {c["name"] for c in report["checks"]}
    assert names == set(cli.verify.CHECKS)


def test_capacity_rank_three_runs():
    # the flat sampler draws inside Omega, so a rank-3 base fills its batch
    res = _run(["capacity", "--domain", "type-I", "--p", "3", "--q", "3",
                "--mu", "0.5", "--samples", "400"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    eps, mu = 1e-3, 0.5
    want = {"flat-hartogs": [np.pi * (1 - eps) ** 2, np.pi],
            "dual": [np.pi * (min(1.0, np.sqrt(mu)) - eps) ** 2, np.pi * min(1.0, mu)]}
    sides = {c["parameters"]["side"]: c for c in report["checks"]}
    assert set(sides) == set(want)
    for side, check in sides.items():
        assert check["status"] == "pass"
        npt.assert_allclose(check["parameters"]["interval"], want[side], rtol=1e-12)


@pytest.mark.parametrize("family", ["dual-darboux", "psh"])
def test_large_mu_reports_finite_residuals(tmp_path, family):
    # N(z, -zbar)^mu overflows at mu = 1e3; the Hessian and the Jacobian are
    # taken in t = u / G and 1/G, which do not
    out = tmp_path / "report.json"
    res = _run([family, "--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1e3",
                "--points", "50", "--output", str(out)])
    assert res.exit_code in (0, 1)
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 1
    assert all(np.isfinite(c["worst_residual"]) for c in checks)


def test_fd_step_is_accepted_but_unread():
    # --fd-step is validated and echoed, and no check reads it
    base = ["darboux", "--domain", "polydisc", "--n", "2", "--points", "20"]
    plain = json.loads(_run(base).output)
    stepped = json.loads(_run(base + ["--fd-step", "1e-3"]).output)
    assert stepped["config"]["fd_step"] == 1e-3
    assert all("fd_step" not in c["parameters"] for c in plain["checks"])
    strip = lambda rep: [{k: v for k, v in c.items() if k != "wall_time_s"}
                         for c in rep["checks"]]
    assert strip(plain) == strip(stepped)


@pytest.mark.parametrize("args, operations", [
    (["--domain", "type-I", "--p", "3", "--q", "3", "--mu", "1", "--samples", "2000"],
     ["mc_volume_dual"]),
    (["--domain", "polydisc", "--n", "1", "--mu", "1", "--samples", "1"],
     ["mc_volume_flat", "mc_volume_dual"]),
], ids=["no-flat-hit", "one-sample"])
def test_volume_zero_error_reports_fail(args, operations):
    # no flat hit on the rank-3 domain, or a single sample, leaves a zero
    # standard error and no z-score: the check must fail in the report, not raise
    res = _run(["volume"] + args)
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert [c["parameters"]["operation"] for c in report["checks"]] == operations
    for check in report["checks"]:
        assert check["status"] == "fail"
        assert check["worst_residual"] == float("inf")
    assert report["checks"][-1]["parameters"]["ratio"] > 0
