import json
import os

import numpy as np
import pytest

from fraclimit import ModelParams, constant_sigma, run_convergence, run_operator_study
from fraclimit.cli import build_parser, main
from fraclimit.harness import ConvergenceReport, emit
from fraclimit.params import FieldSpec
from fraclimit.errors import InvalidInput

L = 4 * np.pi


def _params(**kw):
    base = dict(
        alpha=1.5,
        cross_section=constant_sigma(1.0),
        field_spec=FieldSpec("zero"),
        domain_length=L,
        final_time=0.5,
        epsilon_schedule=(0.2, 0.1, 0.05),
        seed=11,
        particles=30_000,
        velocity_nodes=128,
        vmax_over_inv_eps=10.0,
        x_bins=32,
    )
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def small_report():
    return run_convergence(_params(), margin=0.06)


def test_run_convergence_report(small_report):
    assert len(small_report.cases) == 1
    case = small_report.cases[0]
    assert len(case["rows"]) == 3
    for row in case["rows"]:
        assert row["l1"] >= 0 and row["linf"] >= 0 and row["noise_floor"] >= 0
    assert case["verdict"] in ("PASS", "FAIL")
    assert case["monotone"]
    # report embeds the reproduction data
    assert small_report.seed == 11
    assert small_report.config["particles"] == 30_000


def test_verdict_pure_function(small_report):
    # re-evaluating the stored numbers reproduces the verdict
    case = small_report.cases[0]
    errs = [r["l1"] for r in case["rows"]]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    finest_ok = errs[-1] - case["rows"][-1]["noise_floor"] < 0.06
    assert (case["verdict"] == "PASS") == (monotone and finest_ok)


def test_run_convergence_rejects_bad_scaling():
    with pytest.raises(InvalidInput, match="unknown scaling 'hyperbolic'"):
        run_convergence(_params(), scaling="hyperbolic")


@pytest.mark.parametrize(
    "bins, match",
    [(0, "need particles >= 1 and x_bins >= 1"), (48, "x_bins=48 does not divide the 512-point macro grid")],
)
def test_run_convergence_refuses_x_bins(bins, match):
    with pytest.raises(InvalidInput, match=match):
        run_convergence(_params(x_bins=bins))


def test_emit_roundtrip(small_report, tmp_path):
    code = emit(small_report, tmp_path)
    data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert data["seed"] == 11
    assert len(data["cases"]) == 1
    csv = (tmp_path / "case_0.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "eps,l1,linf,noise_floor"
    assert len(csv) == 4
    assert code == (0 if small_report.all_pass else 1)


def test_emit_empty_report(tmp_path):
    rep = ConvergenceReport([], {}, 0)
    assert emit(rep, tmp_path) == 0
    data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert data["cases"] == []


def test_emit_fail_exit_code(tmp_path):
    rep = ConvergenceReport([{"verdict": "FAIL", "rows": []}], {}, 0)
    assert emit(rep, tmp_path) == 1


def test_operator_study_zero_field():
    p = _params(epsilon_schedule=(0.1, 0.05, 0.025), vmax_over_inv_eps=10.0)
    rep = run_operator_study(p)
    assert rep["monotone"]
    assert rep["fitted_order"] > 0


# -- CLI surface -------------------------------------------------------------


def _write_cfg(tmp_path, **kw):
    cfg = {
        "alpha": 1.5,
        "dim": 1,
        "cross_section": {"kind": "Constant", "nu0": 1.0},
        "field": {"kind": "zero", "e0": 0.0},
        "domain_length": L,
        "final_time": 0.2,
        "epsilon_schedule": [0.2, 0.1],
        "seed": 11,
        "particles": 5000,
        "velocity_grid": {"nodes": 128, "vmax_over_inv_eps": 10.0},
        "x_bins": 16,
        "time_step_macro": 0.001,
    }
    cfg.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_cli_coefficients(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "coefficients"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 1.5
    assert (tmp_path / "coefficients.json").exists()


def test_cli_equilibrium(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "equilibrium", "--field", "0.5", "--raw-field"]) == 0
    header = (tmp_path / "equilibrium.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "v,M,F,lambda,G,R"


def test_cli_macro_run(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "macro-run"]) == 0
    lines = (tmp_path / "macro_run.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,rho"
    assert len(lines) == 1 + 512  # one snapshot on the 512-point grid


def test_cli_kinetic_run(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "--threads", "2",
                 "kinetic-run", "--eps", "0.2", "--snapshot", "0.1",
                 "--snapshot", "0.2"]) == 0
    manifest = json.loads((tmp_path / "kinetic_manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 11 and manifest["threads"] == 2
    assert manifest["collisions"] > 0
    lines = (tmp_path / "kinetic_run.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,bin_center,rho"
    assert len(lines) == 1 + 2 * 16


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(tmp_path, threads):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(InvalidInput, match=f"--threads {threads} < 1"):
        main(["--config", cfg, "--out", str(tmp_path), "--threads", threads,
              "kinetic-run", "--eps", "0.2"])
    assert not (tmp_path / "kinetic_manifest.json").exists()


def test_cli_threads_default_to_usable_cores():
    assert build_parser().parse_args(["coefficients"]).threads == len(os.sched_getaffinity(0))


def test_cli_seed_override(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    main(["--config", cfg, "--out", str(tmp_path), "--seed", "99",
          "kinetic-run", "--eps", "0.2"])
    manifest = json.loads((tmp_path / "kinetic_manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 99


@pytest.mark.parametrize("command", ["converge", "macro-run", "operator-check", "kinetic-run"])
def test_cli_refuses_x_dependent_field(tmp_path, command):
    cfg = _write_cfg(tmp_path, field={"kind": "sinusoidal", "e0": 0.5})
    with pytest.raises(InvalidInput, match="unknown field kind 'sinusoidal'"):
        main(["--config", cfg, "--out", str(tmp_path), command])
