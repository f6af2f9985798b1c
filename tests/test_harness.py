import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import fraclimit
from fraclimit import cli, harness
from fraclimit import (
    CrossSection,
    ModelParams,
    advance,
    chi_decay_check,
    estimate_density,
    gaussian_bump,
    init_ensemble,
    run_convergence,
    run_operator_study,
)
from fraclimit.cli import build_parser, main
from fraclimit.harness import BUMP_WIDTH, MACRO_NODES, MARGIN, context, macro_limit
from fraclimit.macro import advance_macro
from fraclimit.montecarlo import BLOCK
from fraclimit.params import SCALINGS, FieldSpec, load_config
from fraclimit.errors import InvalidInput

L = 4 * np.pi


def _params(**kw):
    base = dict(
        alpha=1.5,
        cross_section=CrossSection(1.0),
        field_spec=FieldSpec(0.0),
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
def small_case():
    return run_convergence(_params())


def test_run_convergence_report(small_case):
    case = small_case
    assert len(case["rows"]) == 3
    for row in case["rows"]:
        assert row["l1"] >= 0 and row["linf"] >= 0 and row["noise_floor"] >= 0
        assert type(row["collisions"]) is int
    assert case["verdict"] in ("PASS", "FAIL")
    assert case["monotone"]


def test_verdict_pure_function(small_case):
    # re-evaluating the stored numbers reproduces the verdict
    case = small_case
    errs = [r["l1"] for r in case["rows"]]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    finest_ok = errs[-1] - case["rows"][-1]["noise_floor"] < MARGIN
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


def test_run_convergence_refuses_one_particle(monkeypatch):
    # the split-half noise floor divides by the count of each half
    monkeypatch.setattr(harness.mc, "block_counts", None)  # refused before any Monte Carlo
    with pytest.raises(InvalidInput, match=r"particles=1 < 2: the split-half noise floor needs two halves"):
        run_convergence(_params(particles=1))


def _whole_ensemble(params, eps, times, scaling):
    """The reference of the block-major driver: init_ensemble, then advance
    through `times`, yielding the whole ensemble at each."""
    ens = init_ensemble(params, width=BUMP_WIDTH)
    for t in times:
        ens = advance(ens, eps, params, t, scaling=scaling)
        yield ens


def _per_eps_reference(params, scaling):
    """run_convergence as one whole ensemble per eps: init_ensemble, advance,
    np.histogram of x, x[::2] and x[1::2]."""
    L, T, bins = params.domain_length, params.final_time, params.x_bins
    kap, drift = macro_limit(params, scaling)
    macro = advance_macro(gaussian_bump(L, BUMP_WIDTH, MACRO_NODES), params.alpha, kap, drift, T)
    macro_binned = macro.rho.reshape(bins, -1).mean(axis=1)
    dx = L / bins
    rows = []
    for eps in params.epsilon_schedule:
        (ens,) = _whole_ensemble(params, eps, [T], scaling)
        rho = np.histogram(ens.x, bins=bins, range=(0.0, L))[0] / (len(ens.x) * (L / bins))
        h1 = np.histogram(ens.x[::2], bins=bins, range=(0.0, L))[0]
        h2 = np.histogram(ens.x[1::2], bins=bins, range=(0.0, L))[0]
        noise = float(np.sum(np.abs(h1 / (len(ens.x[::2]) * dx) - h2 / (len(ens.x[1::2]) * dx))) * dx / 2.0)
        rows.append({"eps": eps, "l1": float(np.sum(np.abs(rho - macro_binned)) * dx),
                     "linf": float(np.max(np.abs(rho - macro_binned))), "noise_floor": noise,
                     "collisions": ens.collisions})
    errs = [r["l1"] for r in rows]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    return {
        "label": f"alpha={params.alpha} E={params.field_spec.e0} scaling={scaling}",
        "scaling": scaling,
        "kappa": kap,
        "drift": drift,
        "rows": rows,
        "fitted_order": float(np.polyfit(np.log(params.epsilon_schedule), np.log(errs), 1)[0]),
        "monotone": monotone,
        "verdict": "PASS" if monotone and errs[-1] - rows[-1]["noise_floor"] < MARGIN else "FAIL",
    }


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("e0", [0.0, 0.5])
@pytest.mark.parametrize("amplitude", [0.0, 0.5])
def test_run_convergence_equals_per_eps_reference(amplitude, e0, scaling):
    # odd N with a partial last block; every field bit for bit, at any thread count
    p = _params(cross_section=CrossSection(1.0, amplitude), field_spec=FieldSpec(e0),
                particles=3 * BLOCK + 17, final_time=0.3, epsilon_schedule=(0.2, 0.1))
    ref = _per_eps_reference(p, scaling)
    for threads in (1, 3):
        assert run_convergence(p, scaling, threads=threads) == ref


def test_run_convergence_memory_does_not_grow_with_particles():
    def peak(n):
        p = _params(field_spec=FieldSpec(0.5), particles=n, final_time=0.3, epsilon_schedule=(0.2, 0.1))
        tracemalloc.start()
        try:
            run_convergence(p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # caches filled outside the comparison
    # one block at a time: a whole ensemble per eps grows the peak by ~3 MB here
    assert abs(peak(32 * BLOCK) - peak(8 * BLOCK)) < 1e6


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("amplitude", [0.0, 0.5])
def test_cli_kinetic_run_equals_whole_ensemble(tmp_path, monkeypatch, amplitude, scaling):
    # a partial last block, a snapshot at 0 and a repeated one; every density
    # bit for bit (captured before CSV formatting), at any thread count
    n, snaps, eps = 3 * BLOCK + 17, [0.0, 0.1, 0.1, 0.3], 0.1
    cs = {"kind": "PerturbedConstant", "nu0": 1.0, "amplitude": amplitude}
    cfg = _write_cfg(tmp_path, particles=n, cross_section=cs, field={"kind": "constant", "e0": 0.5})
    p = _params(cross_section=CrossSection(1.0, amplitude), field_spec=FieldSpec(0.5), particles=n, x_bins=16)
    ref = []
    for t, ens in zip(snaps, _whole_ensemble(p, eps, snaps, scaling)):  # ens ends at the last snapshot
        dens = estimate_density(ens, p.x_bins)
        ref.extend((t, float(x), float(r)) for x, r in zip(dens.x + dens.dx / 2, dens.rho))
    written = {}
    monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows: written.update({header: list(rows)}))
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        argv = ["--config", cfg, "--out", str(out), "--threads", str(threads), "kinetic-run", "--eps", str(eps),
                "--scaling", scaling] + [a for t in snaps for a in ("--snapshot", str(t))]
        assert main(argv) == 0
        assert written.pop("t,bin_center,rho") == ref
        manifest = json.loads((out / "kinetic_manifest.json").read_text(encoding="utf-8"))
        assert manifest["collisions"] == ens.collisions and manifest["snapshots"] == snaps


def test_cli_kinetic_run_memory_does_not_grow_with_particles(tmp_path):
    cfg = _write_cfg(tmp_path, field={"kind": "constant", "e0": 0.5})

    def peak(n):
        tracemalloc.start()
        try:
            main(["--config", cfg, "--out", str(tmp_path), "kinetic-run", "--particles", str(n),
                  "--snapshot", "0.1", "--snapshot", "0.2"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # caches filled outside the comparison
    # one block at a time: the whole ensemble's x and v grow the peak by ~1.5 MB here
    assert abs(peak(32 * BLOCK) - peak(8 * BLOCK)) < 1e6


@pytest.mark.parametrize("study", ["convergence", "operator", "chi_decay"])
def test_order_fits_refuse_one_eps(study):
    p = _params(epsilon_schedule=(0.05,), velocity_nodes=64)
    run = {
        "convergence": lambda: run_convergence(p),
        "operator": lambda: run_operator_study(p),
        "chi_decay": lambda: chi_decay_check(gaussian_bump(L, 0.8, 64, band=4), [0.05], context(p)),
    }[study]
    with pytest.raises(InvalidInput, match=r"a fitted order needs at least two eps values; got \[0.05\]"):
        run()


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


def test_cli_converge_writes_report(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"  # created by the command
    code = main(["--config", cfg, "--out", str(out), "converge"])
    case = run_convergence(load_config(cfg))
    data = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(data) == ["seed", "config", "cases"]
    assert data["seed"] == 11
    assert data["config"] == json.loads(json.dumps(asdict(load_config(cfg))))
    assert isinstance(data["config"]["epsilon_schedule"], list)
    assert data["cases"] == [json.loads(json.dumps(case))]
    csv = (out / "case_0.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "eps,l1,linf,noise_floor"
    assert csv[1:] == [f"{r['eps']},{r['l1']},{r['linf']},{r['noise_floor']}" for r in case["rows"]]
    assert code == (0 if case["verdict"] == "PASS" else 1)


def test_cli_converge_fail_exit_code(tmp_path, monkeypatch, small_case, capsys):
    monkeypatch.setattr(cli, "run_convergence", lambda *args, **kw: {**small_case, "verdict": "FAIL"})
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "converge"]) == 1
    assert capsys.readouterr().out.endswith("-> FAIL\n")
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["cases"][0]["verdict"] == "FAIL"


def test_cli_one_eps_runs_without_an_order(tmp_path):
    cfg = _write_cfg(tmp_path, epsilon_schedule=[0.1])
    assert main(["--config", cfg, "--out", str(tmp_path), "kinetic-run", "--particles", "1000"]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path), "equilibrium", "--field", "0.5"]) == 0
    with pytest.raises(InvalidInput, match="a fitted order needs at least two eps values"):
        main(["--config", cfg, "--out", str(tmp_path), "converge"])


def test_cli_kinetic_run_final_time_follows_snapshots(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "kinetic-run", "--particles", "1000",
                 "--final-time", "0.01", "--snapshot", "0.005"]) == 0
    manifest = json.loads((tmp_path / "kinetic_manifest.json").read_text(encoding="utf-8"))
    assert manifest["snapshots"] == [0.005, 0.01]
    rows = (tmp_path / "kinetic_run.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.005] * 16 + [0.01] * 16


def test_cli_macro_run_final_time_follows_snapshots(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "macro-run",
                 "--final-time", "0.01", "--snapshot", "0.005"]) == 0
    rows = (tmp_path / "macro_run.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.005] * 512 + [0.01] * 512


@pytest.mark.parametrize("command", ["kinetic-run", "macro-run"])
def test_cli_final_time_zero_is_one_snapshot(tmp_path, command):
    # --final-time reaches both commands only through their snapshots
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), command, "--final-time", "0"]) == 0
    rows = next(tmp_path.glob("*_run.csv")).read_text(encoding="utf-8").splitlines()[1:]
    assert {r.split(",")[0] for r in rows} == {"0"}
    if command == "kinetic-run":
        manifest = json.loads((tmp_path / "kinetic_manifest.json").read_text(encoding="utf-8"))
        assert manifest["snapshots"] == [0.0] and manifest["collisions"] == 0


@pytest.mark.parametrize("command", ["kinetic-run", "macro-run"])
def test_cli_refuses_snapshot_past_final_time(tmp_path, command):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(InvalidInput, match=r"snapshot 0.02 lies past --final-time 0.01"):
        main(["--config", cfg, "--out", str(tmp_path), command,
              "--final-time", "0.01", "--snapshot", "0.005", "--snapshot", "0.02"])
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(tmp_path, threads):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(InvalidInput, match=f"--threads {threads} < 1"):
        main(["--config", cfg, "--out", str(tmp_path), "--threads", threads,
              "kinetic-run", "--eps", "0.2"])
    assert not (tmp_path / "kinetic_manifest.json").exists()


@pytest.mark.parametrize("override, match", [
    (["--eps", "0"], r"--eps 0.0 outside \(0, 1\]"),
    (["--eps", "-0.1"], r"--eps -0.1 outside \(0, 1\]"),
    (["--eps", "2"], r"--eps 2.0 outside \(0, 1\]"),
    (["--eps", "nan"], r"--eps nan outside \(0, 1\]"),
    (["--particles", "0"], r"need particles >= 1 and x_bins >= 1; got 0, 16"),
    (["--final-time", "nan"], r"time nan must be finite and non-negative"),
    (["--snapshot", "nan"], r"time nan must be finite and non-negative"),
    (["--snapshot", "0.1", "--snapshot", "inf"], r"time inf must be finite and non-negative"),
    (["--snapshot", "-0.1"], r"time -0.1 must be finite and non-negative"),
])
def test_cli_kinetic_run_refuses_bad_overrides(tmp_path, override, match):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(InvalidInput, match=match):
        main(["--config", cfg, "--out", str(tmp_path), "kinetic-run", *override])
    assert not (tmp_path / "kinetic_manifest.json").exists()


@pytest.mark.parametrize("override, time", [
    (["--final-time", "nan"], "nan"),
    (["--final-time", "inf"], "inf"),
    (["--final-time", "-1"], "-1.0"),
    (["--snapshot", "nan"], "nan"),
    (["--snapshot", "0.1", "--snapshot", "-0.1"], "-0.1"),
])
def test_cli_macro_run_refuses_bad_times(tmp_path, override, time):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(InvalidInput, match=f"time {time} must be finite and non-negative"):
        main(["--config", cfg, "--out", str(tmp_path), "macro-run", *override])
    assert not (tmp_path / "macro_run.csv").exists()


@pytest.mark.parametrize("argv, value", [
    (["equilibrium", "--field", "nan"], "nan"),
    (["equilibrium", "--field", "inf"], "inf"),
    (["equilibrium", "--raw-field", "--field=-inf"], "-inf"),
    (["all", "--field", "nan"], "nan"),
])
def test_cli_refuses_non_finite_field(tmp_path, argv, value):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(InvalidInput, match=f"--field {value} is not finite"):
        main(["--config", cfg, "--out", str(out), *argv])
    assert not out.exists()  # refused before any command writes


def test_cli_import_does_no_unused_work():
    # every command pays the import: SciPy serves only criterion 10's
    # cross-check and the tests, the thread pool only --threads > 1, and the
    # 128-point rule only the explicit solve_F
    src = os.path.dirname(os.path.dirname(fraclimit.__file__))
    code = ("import sys, fraclimit.cli; from fraclimit.equilibrium import _laguerre128; "
            "print([m in sys.modules for m in ('scipy', 'concurrent.futures')], _laguerre128.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[False, False] 0"


def test_cli_threads_default_to_usable_cores():
    assert build_parser().parse_args(["coefficients"]).threads == len(os.sched_getaffinity(0))


_GLOBAL_FLAGS = {"config": None, "out": "out", "seed": None}
_FIELD_FLAGS = {"field": None, "raw_field": False}
_TIME_FLAGS = {"final_time": None, "snapshot": None}
# every subcommand's parsed keys and defaults beyond the global flags
_CLI_SURFACE = {
    "equilibrium": _FIELD_FLAGS,
    "coefficients": {},
    "operator-check": {},
    "kinetic-run": {"eps": None, "particles": None, **_TIME_FLAGS, "scaling": "diffusive"},
    "macro-run": {**_TIME_FLAGS, "scaling": "diffusive"},
    "converge": {"scaling": "diffusive"},
    "all": {**_FIELD_FLAGS, "scaling": "diffusive"},
}


@pytest.mark.parametrize("command", sorted(_CLI_SURFACE))
def test_cli_surface(command):
    args = vars(build_parser().parse_args([command]))
    assert args.pop("threads") >= 1 and callable(args.pop("fn"))
    assert args == {**_GLOBAL_FLAGS, "command": command, **_CLI_SURFACE[command]}
    if "scaling" in args:
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flag = next(a for a in sub.choices[command]._actions if a.dest == "scaling")
        assert tuple(flag.choices) == SCALINGS


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
