"""Make the reference figures: every workload on several seeds, then one
traced run each; prints medians, quartiles and the spread of every
end-to-end metric, and the per-layer metrics of the traced run.

    python3 bench/reference.py --seeds 1-10 --seconds 45

Run from the root of the checkout, like run.py.  The spread is the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=float, default=45.0)
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    for workload in WORKLOADS:
        results = [run(workload, seed, args.seconds, 0) for seed in range(first, last + 1)]
        shares = {f"{r['failed']}/{r['attempted']}" for r in results}
        print(f"{workload}: correct {all(r['correct'] for r in results)}, failed/attempted {sorted(shares)}")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:.4g} {m['unit']}  quartiles {q1:.4g} .. {q3:.4g}  "
                  f"spread {(q3 - q1) / med:.3f}  ({len(values)} runs)")
        traced = run(workload, first, args.seconds, 1)
        print(f"  traced run, seed {first}:")
        for name, m in traced["metrics"].items():
            print(f"    {name:34s} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
