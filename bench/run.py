"""fraclimit benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload converge-mc --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  The seed becomes the Monte Carlo
seed of every generated config.  Set-up is timed in fresh interpreters;
the operations run in one more, through `fraclimit.cli.main`.  End-to-end
times are scaled to a reference host speed by a calibration kernel timed
next to them (worker.py, bench/README.md); the raw times are printed too.  With
`--trace 0` the last line carries the end-to-end metrics, with `--trace 1`
the per-layer metrics of one traced round.  Each failed operation is
listed with its exception or deviation before that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
DEADLINE_S = 170.0


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    # one BLAS thread: the deterministic layers' small dense solves run
    # steadier single-threaded, and --threads stays 1 for Monte Carlo
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe(plan_path: str, env: dict, timeout: float) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import fraclimit and load and
    validate every config, as the probe measures them itself (so the noisy
    cost of spawning a process is left out): scaled to the reference host
    speed, and raw."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, "--probe"],
                          capture_output=True, text=True, env=env, timeout=timeout)
    if done.returncode != 0 or not done.stdout.startswith("ready "):
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    scaled, raw = done.stdout.split()[1:3]
    return float(scaled), float(raw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if not os.path.isfile(os.path.join("src", "fraclimit", "cli.py")):
        return fail("src/fraclimit not found; run from the root of a fraclimit checkout")
    units = declared_units()
    t_begin = time.perf_counter()

    workdir = os.path.abspath(os.path.join(".bench_run", f"{args.workload}-{args.seed}-{args.trace}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "configs"))
    configs, ops = WORKLOADS[args.workload](args.seed)
    config_paths = {}
    for name, cfg in configs.items():
        config_paths[name] = os.path.join(workdir, "configs", f"{name}.json")
        with open(config_paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
    plan = {"workdir": workdir, "configs": configs,
            "config_paths": config_paths, "ops": ops,
            "result_path": os.path.join(workdir, "result.json")}
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=2)

    env = worker_env()
    setup = []
    if not args.trace:
        try:
            probe(plan_path, env, 60.0)  # warm-up: bytecode caches, page cache
            setup = [probe(plan_path, env, 60.0) for _ in range(SETUP_SAMPLES)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc))

    remaining = DEADLINE_S - (time.perf_counter() - t_begin)
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {DEADLINE_S:.0f} s")
    if done.returncode != 0:
        return fail(f"worker exited with code {done.returncode}")
    with open(plan["result_path"], encoding="utf-8") as fh:
        result = json.load(fh)

    rounds = result["rounds"]
    all_ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in all_ops if op["problems"]]
    unexpected = [op for op in failed if not op["expected_failure"]]
    seen: dict = {}
    for op in failed:
        key = (op["label"], "; ".join(op["problems"]), op["expected_failure"])
        seen[key] = seen.get(key, 0) + 1
    for (label, problems, expected), n in seen.items():
        print(f"FAILED [{'known fault' if expected else 'UNEXPECTED'}] {label} (x{n}): {problems}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in result["env"].items()))

    if args.trace:
        values = result["layers"]
    else:
        # each operation's median over rounds, summed: a burst of load from
        # elsewhere on the host then moves one operation, not a whole round.
        # Minimums spread more from run to run on a shared host (bench/README.md).
        def per_op_medians(key):
            return sum(statistics.median(r["ops"][i][key] for r in rounds)
                       for i in range(len(rounds[0]["ops"])))

        values = {
            "wall_s": per_op_medians("scaled_s"),
            "setup_s": statistics.median(scaled for scaled, _ in setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"rounds: {len(rounds)}, raw round wall times: "
              + ", ".join(f"{r['wall_s']:.3f}" for r in rounds))
        print(f"raw wall_s {per_op_medians('seconds'):.4f} s, "
              f"raw setup_s {statistics.median(raw for _, raw in setup):.4f} s")
        print("set-up times, scaled/raw: " + ", ".join(f"{a:.4f}/{b:.4f}" for a, b in setup))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(all_ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
