"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload recon --seeds 1-10

Runs from the checkout root, one untraced run at a time, with run_seconds
from BENCHMARK.json. For every metric it prints the median of the runs and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, beside the metric's bound; and the failed share.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seeds)
    args = p.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, shares = {}, []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{out}", file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "n/a"
        print(f"{name:34s} median {med:<14.6g} spread {spread:>8s}  bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
