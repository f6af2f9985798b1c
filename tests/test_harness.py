import argparse
import io
import json
import os
import re
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
from fraclimit.coefficients import limit_model
from fraclimit.harness import MACRO_NODES, MARGIN, context, macro_run
from fraclimit.macro import advance_macro
from fraclimit.montecarlo import BLOCK, BUMP_WIDTH, _Workspace, _blocks, _clock_pass, _draw_block, _rng_for, block_counts
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
    [(0, "need particles >= 1 and x_bins >= 1")],
)
def test_run_convergence_refuses_x_bins(bins, match):
    with pytest.raises(InvalidInput, match=match):
        run_convergence(_params(x_bins=bins))


def test_run_convergence_takes_x_bins_not_dividing_the_macro_grid():
    # the macro density enters as its exact bin means, so any bin count runs:
    # 48 does not divide the 512-point macro grid
    p = _params(x_bins=48, particles=2 * BLOCK, epsilon_schedule=(0.2, 0.1))
    case = run_convergence(p)
    assert case["verdict"] in ("PASS", "FAIL") and all(r["l1"] > 0 for r in case["rows"])
    _, _, (macro,) = macro_run(p, "diffusive", [p.final_time])
    rho = macro.bin_means(48)
    assert len(rho) == 48 and abs(np.sum(rho) * (L / 48) - 1.0) < 1e-12


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


def _shared_clock_counts(params, scaling, times):
    """block_counts composed by hand: per block, _draw_block, then one
    _clock_pass over a row per eps for each step of the sorted `times` (none
    for a step of length 0), and np.histogram of each row's x[::2] and x[1::2]
    at each time, summed over the blocks; with the collisions up to each time."""
    L, bins, N, m = params.domain_length, params.x_bins, params.particles, len(params.epsilon_schedule)
    halves, hits = np.zeros((m, len(times), 2, bins), dtype=np.int64), np.zeros((m, len(times)), dtype=np.int64)
    for b, sl in enumerate(_blocks(N)):
        rng = _rng_for(params.seed, b)
        x, v = np.empty((2, sl.stop - sl.start))
        _draw_block(rng, x, v, L, params.alpha, BUMP_WIDTH)
        x, v = np.tile(x, (m, 1)), np.tile(v, (m, 1))
        block_hits = np.zeros(m, dtype=np.int64)
        for k, (t0, t) in enumerate(zip((0.0, *times), times)):
            if t > t0:
                block_hits += _clock_pass(x, v, rng, params, scaling, params.epsilon_schedule, t - t0)
            hits[:, k] += block_hits
            for j in range(m):
                for h in (0, 1):
                    halves[j, k, h] += np.histogram(x[j, h::2], bins=bins, range=(0.0, L))[0]
    return halves, hits


def _shared_clock_reference(params, scaling):
    """run_convergence composed by hand from `_shared_clock_counts` at the
    final time."""
    L, T, bins, N = params.domain_length, params.final_time, params.x_bins, params.particles
    kap, drift, (macro,) = macro_run(params, scaling, [T])
    macro_binned = macro.bin_means(bins)
    dx = L / bins
    halves, hits = (a[:, 0] for a in _shared_clock_counts(params, scaling, [T]))
    rows = []
    for eps, (h1, h2), hits_j in zip(params.epsilon_schedule, halves, hits):
        rho = (h1 + h2) / (N * (L / bins))
        noise = float(np.sum(np.abs(h1 / (len(range(0, N, 2)) * dx) - h2 / (len(range(1, N, 2)) * dx))) * dx / 2.0)
        rows.append({"eps": eps, "l1": float(np.sum(np.abs(rho - macro_binned)) * dx),
                     "linf": float(np.max(np.abs(rho - macro_binned))), "noise_floor": noise,
                     "collisions": int(hits_j)})
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
    # odd N with a partial last block; every field bit for bit, at any thread
    # count.  The eps rows share one clock per block (_clock_pass), so the
    # reference composes the blocks by hand rather than advancing a whole
    # ensemble per eps
    p = _params(cross_section=CrossSection(1.0, amplitude), field_spec=FieldSpec(e0),
                particles=3 * BLOCK + 17, final_time=0.3, epsilon_schedule=(0.2, 0.1))
    ref = _shared_clock_reference(p, scaling)
    for threads in (1, 3):
        assert run_convergence(p, scaling, threads=threads) == ref


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("amplitude", [0.0, 0.5])
def test_block_counts_equals_shared_clock_reference(amplitude, scaling):
    # three eps on one clock and snapshots with a repeat: block_counts' one
    # bincount per step over every row and parity against np.histogram of
    # each row's halves, bit for bit at any thread count
    p = _params(cross_section=CrossSection(1.0, amplitude), field_spec=FieldSpec(0.5),
                particles=3 * BLOCK + 17, final_time=0.3)
    times = [0.1, 0.1, 0.3]
    halves, hits = _shared_clock_counts(p, scaling, times)
    assert np.all(hits[:, 0] == hits[:, 1]) and np.all(hits[:, 1] < hits[:, 2])
    for threads in (1, 3):
        counts, collisions = block_counts(p, scaling, p.epsilon_schedule, times, threads)
        assert np.array_equal(counts, halves) and np.array_equal(collisions, hits)


def test_reused_buffers_change_no_result():
    # a study reuses one set of buffers per worker thread across its blocks
    # and steps, and advance one across its blocks: two studies back to back
    # in one thread (the second needs smaller buffers and other Poisson
    # tables), and threads 1 and 5 with an advance between them, each equal
    # the reference, whose passes allocate afresh
    times = [0.1, 0.3]
    big = _params(field_spec=FieldSpec(0.5), particles=3 * BLOCK + 17)
    small = _params(alpha=1.0, cross_section=CrossSection(1.0, 0.5), particles=BLOCK + 5,
                    epsilon_schedule=(0.2, 0.1))
    refs = [_shared_clock_counts(p, "diffusive", times) for p in (big, small)]
    for p, (halves, hits) in zip((big, small), refs):
        counts, collisions = block_counts(p, "diffusive", p.epsilon_schedule, times, 1)
        assert np.array_equal(counts, halves) and np.array_equal(collisions, hits)
    for threads in (1, 5):
        counts, collisions = block_counts(big, "diffusive", big.epsilon_schedule, times, threads)
        assert np.array_equal(counts, refs[0][0]) and np.array_equal(collisions, refs[0][1])
        advance(init_ensemble(small), 0.05, small, 0.2)
    # what a pass returns is its own: a second pass on the same buffers leaves it
    work, (x, v) = _Workspace(), np.empty((2, 3, BLOCK))
    _draw_block(_rng_for(1, 0), x[0], v[0], L, big.alpha, None, work)
    x[1:], v[1:] = x[0], v[0]
    first = _clock_pass(x, v, _rng_for(1, 0), big, "diffusive", big.epsilon_schedule, 0.3, work)
    kept = first.copy()
    _clock_pass(x, v, _rng_for(1, 1), big, "diffusive", big.epsilon_schedule, 0.3, work)
    assert np.array_equal(first, kept)


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
    # the last report time is the largest snapshot, in whatever order given
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "kinetic-run", "--particles", "1000",
                 "--snapshot", "0.01", "--snapshot", "0.005"]) == 0
    manifest = json.loads((tmp_path / "kinetic_manifest.json").read_text(encoding="utf-8"))
    assert manifest["snapshots"] == [0.005, 0.01]
    rows = (tmp_path / "kinetic_run.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.005] * 16 + [0.01] * 16


def test_cli_macro_run_final_time_follows_snapshots(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "macro-run",
                 "--snapshot", "0.01", "--snapshot", "0.005"]) == 0
    rows = (tmp_path / "macro_run.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.005] * 512 + [0.01] * 512


@pytest.mark.parametrize("scaling", SCALINGS)
def test_cli_macro_run_advances_each_snapshot_from_zero(tmp_path, monkeypatch, scaling):
    # converge's rule: every snapshot is the bump advanced from t = 0 in one
    # step, bit for bit (captured before CSV formatting), a snapshot at 0, a
    # repeated one and the final time included
    cfg = _write_cfg(tmp_path, field={"kind": "constant", "e0": 0.5})
    p, snaps = load_config(cfg), [0.1, 0.2, 0.0, 0.1]
    kap, drift = limit_model(context(p, max(p.vmax, 1000.0)), p.field_spec.e0, scaling)
    bump = gaussian_bump(p.domain_length, BUMP_WIDTH, MACRO_NODES)
    ref = []
    for t in sorted(snaps):
        state = advance_macro(bump, p.alpha, kap, drift, t)
        ref.extend((t, float(x), float(r)) for x, r in zip(state.x, state.rho))
    assert p.final_time == max(snaps)
    written = {}
    monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows: written.update({header: list(rows)}))
    assert main(["--config", cfg, "--out", str(tmp_path), "macro-run", "--scaling", scaling]
                + [a for t in snaps for a in ("--snapshot", str(t))]) == 0
    assert written["t,x,rho"] == ref


@pytest.mark.parametrize("command", ["kinetic-run", "macro-run"])
def test_cli_final_time_zero_is_one_snapshot(tmp_path, command):
    cfg = _write_cfg(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), command, "--snapshot", "0"]) == 0
    rows = next(tmp_path.glob("*_run.csv")).read_text(encoding="utf-8").splitlines()[1:]
    assert {r.split(",")[0] for r in rows} == {"0"}
    if command == "kinetic-run":
        manifest = json.loads((tmp_path / "kinetic_manifest.json").read_text(encoding="utf-8"))
        assert manifest["snapshots"] == [0.0] and manifest["collisions"] == 0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(tmp_path, threads):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(InvalidInput, match=f"--threads {threads} < 1"):
        main(["--config", cfg, "--out", str(tmp_path), "--threads", threads,
              "kinetic-run", "--eps", "0.2"])
    assert not (tmp_path / "kinetic_manifest.json").exists()


@pytest.mark.parametrize("override, match", [
    # a bad --eps is refused by block_counts' shared eps rule, which names it
    (["--eps", "0"], r"in \(0,1\].*\[0.0\]"),
    (["--eps", "-0.1"], r"in \(0,1\].*\[-0.1\]"),
    (["--eps", "2"], r"in \(0,1\].*\[2.0\]"),
    (["--eps", "nan"], r"in \(0,1\].*\[nan\]"),
    (["--particles", "0"], r"need particles >= 1 and x_bins >= 1; got 0, 16"),
    (["--snapshot", "0.1", "--snapshot", "nan"], r"time nan must be finite and non-negative"),
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
    (["--snapshot", "nan"], "nan"),
    (["--snapshot", "inf"], "inf"),
    (["--snapshot", "-1"], "-1.0"),
    (["--snapshot", "0.1", "--snapshot", "nan"], "nan"),
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
_TIME_FLAGS = {"snapshot": None}
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


@pytest.mark.parametrize("command", ["coefficients", "converge"])
def test_cli_refuses_an_out_that_is_a_file(tmp_path, capsys, monkeypatch, command):
    # refused before any work: nothing printed, and no study started; also
    # a directory to be made under the file
    cfg = _write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    monkeypatch.setattr(cli, "run_convergence", lambda *a, **k: pytest.fail("the study ran"))
    for out in (taken, taken / "sub"):
        with pytest.raises(InvalidInput, match=re.escape(f"--out {out}: {taken} exists and is not a directory")):
            main(["--config", cfg, "--out", str(out), command])
        assert capsys.readouterr().out == "" and taken.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize("command", ["converge", "macro-run"])
def test_cli_refuses_high_field_at_alpha_one(tmp_path, monkeypatch, command):
    # at alpha = 1 the high-field limit is not pure transport; converge
    # refuses it through the macro solve, before any Monte Carlo
    monkeypatch.setattr(harness.mc, "block_counts", lambda *a, **k: pytest.fail("the Monte Carlo ran"))
    cfg = _write_cfg(tmp_path, alpha=1.0, field={"kind": "constant", "e0": 0.5})
    out = tmp_path / "out"
    with pytest.raises(InvalidInput, match="high-field scaling needs alpha > 1"):
        main(["--config", cfg, "--out", str(out), command, "--scaling", "high_field"])
    assert not out.exists()


def test_write_csv_bytes():
    # floats as f"{c:.12g}", anything else (ints, strings) as str, one line per row
    rows = [(float("nan"), float("inf"), -float("inf")), (-0.0, 5e-324, 1e16), (3, "x", 0.1 + 0.2),
            (np.float64(2.5), np.int64(7), True)]
    buf = io.StringIO()
    cli._write_csv(buf, "a,b,c", rows)
    assert buf.getvalue() == ("a,b,c\nnan,inf,-inf\n-0,4.94065645841e-324,1e+16\n3,x,0.3\n2.5,7,True\n")
    rule = "".join(",".join(f"{c:.12g}" if isinstance(c, float) else str(c) for c in row) + "\n" for row in rows)
    assert buf.getvalue() == "a,b,c\n" + rule
    buf = io.StringIO()
    cli._write_csv(buf, "t,x,rho", [])
    assert buf.getvalue() == "t,x,rho\n"
