"""Benchmark worker: one fresh interpreter that imports fraclimit and drives
it through `fraclimit.cli.main(argv)`, as a user's shell would.

    worker.py PLAN --probe                  import, load configs, print "ready <scaled s> <raw s>"
    worker.py PLAN --seconds S --trace 0|1  run whole rounds, write PLAN's result file

A round runs every operation of the workload once, on the same configs.
A fixed calibration kernel runs before the first operation and after each
one, and every time is also reported scaled to a host of reference speed:
raw seconds x CAL_REF_S / (the kernel's time next to it).
Untraced runs keep starting rounds while the next one is expected to end
within S seconds (at least one).  Traced runs make two untraced rounds and
then one traced round; the trace's overhead is the traced round's wall
time minus the second untraced round's (the first one also pays for
first-call costs).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

T_START = time.perf_counter()  # set-up is timed from here, before fraclimit or NumPy is imported

# The calibration kernel's time on a host of reference speed; the shared
# host the reference figures come from runs it in about 40 ms.
CAL_REF_S = 0.040


def load(plan: dict):
    import fraclimit.cli
    from fraclimit.params import load_config

    for path in plan["config_paths"].values():
        load_config(path)
    return fraclimit.cli


@functools.cache
def _calibration_input():
    import numpy as np

    return np.random.default_rng(0).standard_normal(250_000)


def calibration_kernel() -> float:
    """Seconds for a fixed piece of work: elementwise passes over 2.5e5
    doubles and a sort.  Of four kernels tried (interpreted Python, small
    NumPy calls, dense 128x128 solves, this one), this one's time tracked
    the operations' times best on a shared host (bench/README.md)."""
    import numpy as np

    x = _calibration_input()
    t0 = time.perf_counter()
    for _ in range(8):
        np.sort(np.sqrt(x * x + 1.0))
    return time.perf_counter() - t0


def _digest(outdir: str) -> str:
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(outdir)):
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()


def run_round(cli, plan: dict, digests: dict) -> dict:
    import checks

    ops = []
    tables: dict = {}
    cal_before = calibration_kernel()
    for op in plan["ops"]:
        outdir = os.path.join(plan["workdir"], "out", op["label"].replace(" ", "_"))
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["--config", plan["config_paths"][op["config"]], "--out", outdir,
                "--threads", "1", *op["argv"]]
        raised = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # an operation that raises is a failed operation
            raised = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        cal_after = calibration_kernel()
        scaled = seconds * CAL_REF_S / ((cal_before + cal_after) / 2)
        cal_before = cal_after
        if raised:
            problems = [raised]
        else:
            problems = [f"exit code {code}"] if code != 0 else []
            try:
                problems += checks.check_op(op, plan["configs"][op["config"]], outdir, tables)
            except Exception as exc:  # unreadable output fails the operation
                problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
            # same configs every round, so every round must write the same bytes
            if digests.setdefault(op["label"], _digest(outdir)) != _digest(outdir):
                problems.append("output differs from the first round's")
        ops.append({"label": op["label"], "seconds": seconds, "scaled_s": scaled,
                    "problems": problems, "expected_failure": checks.is_known_fault(op, problems)})
    return {"wall_s": sum(o["seconds"] for o in ops), "ops": ops}


def env_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = load(plan)
    if args.probe:
        seconds = time.perf_counter() - T_START
        cal = statistics.median(calibration_kernel() for _ in range(3))
        print(f"ready {seconds * CAL_REF_S / cal!r} {seconds!r}", flush=True)
        return 0

    t_start = time.perf_counter()
    digests: dict = {}
    rounds = [run_round(cli, plan, digests)]
    result: dict = {"env": env_stamp()}
    if args.trace:
        import tracing

        rounds.append(run_round(cli, plan, digests))
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_round(cli, plan, digests)
        tracer.dump(os.path.join(plan["workdir"], "trace.json"))
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"]["trace.overhead_s"] = traced["wall_s"] - rounds[-1]["wall_s"]
        rounds.append(traced)
    else:
        while time.perf_counter() - t_start + statistics.median(r["wall_s"] for r in rounds) <= args.seconds:
            rounds.append(run_round(cli, plan, digests))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = rounds
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
