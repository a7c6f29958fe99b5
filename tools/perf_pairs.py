"""Alternating parent/change benchmark pairs, compared by perf.compare.

``python3 tools/perf_pairs.py --base REV [--workload W] [--pairs 10]``
(``make perf-pairs BASE=REV WORKLOAD=W PAIRS=10``) checks ``REV`` out
into a temporary ``git worktree`` — or takes ``--base`` as is when it
names a directory — and runs ``python3 -m perf.run --seed S --json``
once in each tree per pair, seeds S, S+1, …, the side that goes first
flipped every pair so neither always meets the warmer machine. Each
side's runs are merged into one file and ``python3 -m perf.compare
BASE CHANGE`` is printed: medians, ratio and verdict for every
end-to-end metric, the base on the left. Every run's own numbers are
printed as it ends; before the table, each (workload, metric) gets one
line of its pairs as ``base/change`` and how many the change won (ties
count for neither side) — the list a claimed gain is judged on.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def print_pair_wins(base_runs, change_runs) -> None:
    """One line per (workload, end-to-end metric): every pair's two
    values and the number of pairs the change won."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        declared = json.load(source)["end_to_end"]
    for workload in dict.fromkeys(run["workload"] for run in base_runs):
        for metric in declared:
            name = metric["name"]
            pairs = [
                (a["metrics"][name]["value"], b["metrics"][name]["value"])
                for a, b in zip(base_runs, change_runs)
                if a["workload"] == workload == b["workload"]
            ]
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in pairs)
            print(f"pairs {workload:16} {name:14}",
                  " ".join(f"{a:.4g}/{b:.4g}" for a, b in pairs),
                  f" change won {wins} of {len(pairs)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision or checkout")
    parser.add_argument("--workload", help="default: all of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="perf.run's default")
    args = parser.parse_args()
    extra = ["--workload", args.workload] if args.workload else []
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        base = args.base
        if not os.path.isdir(base):
            base = os.path.join(scratch, "base")
            subprocess.run(
                ["git", "worktree", "add", "--detach", base, args.base],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
        try:
            merged = {"base": None, "change": None}
            for pair in range(args.pairs):
                sides = [("base", base), ("change", ROOT)]
                for side, tree in sides[::-1] if pair % 2 else sides:
                    out = os.path.join(scratch, "run.json")
                    command = [sys.executable, "-m", "perf.run", "--seed",
                               str(args.seed + pair), "--json", out] + extra
                    subprocess.run(command, cwd=tree, check=True,
                                   stdout=subprocess.DEVNULL)
                    with open(out) as source:
                        made = json.load(source)
                    if merged[side] is None:
                        merged[side] = made
                    else:
                        merged[side]["runs"] += made["runs"]
                    for run in made["runs"]:
                        print(f"pair {pair + 1:2} {side:6} {run['workload']:16}",
                              *(f"{name}={metric['value']:.4g}"
                                for name, metric in run["metrics"].items()),
                              flush=True)
            print_pair_wins(merged["base"]["runs"], merged["change"]["runs"])
            paths = []
            for side, runs in merged.items():
                paths.append(os.path.join(scratch, side + ".json"))
                with open(paths[-1], "w") as sink:
                    json.dump(runs, sink)
            return subprocess.run(
                [sys.executable, "-m", "perf.compare"] + paths, cwd=ROOT
            ).returncode
        finally:
            if base != args.base:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", base], cwd=ROOT
                )


if __name__ == "__main__":
    sys.exit(main())
