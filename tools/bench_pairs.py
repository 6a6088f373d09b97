"""Compare two source trees on the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --seeds 4701-4710 --out BENCH_<n>.json

Both trees are plain checkouts of this repository.  Each must pass its own
Tier-1 suite first (``python -m pytest -q --continue-on-collection-errors``
with ``PYTHONPATH=src``); a tree that fails is refused and nothing is
measured.  Then, for every seed and every workload that ``BENCHMARK.json``
declares, it runs

    python3 bench/run.py --workload W --seed S --seconds T

once in each tree, the pair's first run alternating ABBA (the parent first
on even-numbered pairs, the change first on odd ones), because the run that
goes second in a pair tends to read slower on a shared host.  ``T`` is the
benchmark's own ``run_seconds``.

The output file holds, for each workload and each end-to-end metric, the
median and quartiles of both trees over the pairs, the pairs the change
won and tied (by the metric's ``better`` direction), the relative change of
the median and the gap between the medians over the parent's quartile
spread; and every run with its exit status and correctness, the trees'
git heads and a digest of their ``src/``, the CPU count and the Python
version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def parse_seeds(text: str) -> list[int]:
    """'4701-4710' or '1,5,9' (or both, comma-separated) -> seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def describe(tree: str) -> dict:
    """The tree's git head, whether it differs from it, and a digest of src/."""
    def git(*args):
        done = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    for root, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None
            else None, "src_sha256": digest.hexdigest()}


def tier1(tree: str) -> str:
    """Run the tree's Tier-1 suite; its summary line, or SystemExit if it fails."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: Tier-1 fails in {tree}: {summary}")
    return summary


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    record = {"exit": done.returncode}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):  # exit 2: the harness could not run
        record["error"] = done.stderr[-500:]
        return record
    record.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"],
                  metrics={k: v["value"] for k, v in result["metrics"].items()})
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metric: dict) -> dict:
    name = metric["name"]
    pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name])
             for r in runs if "metrics" in r["parent"] and "metrics" in r["change"]]
    if len(pairs) < 2:
        return {"pairs": len(pairs)}
    sign = 1 if metric["better"] == "lower" else -1
    parent = spread([a for a, _ in pairs])
    change = spread([b for _, b in pairs])
    iqr = parent["q3"] - parent["q1"]
    gap = change["median"] - parent["median"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "pairs": len(pairs), "parent": parent, "change": change,
        "change_wins": sum(1 for a, b in pairs if sign * (a - b) > 0),
        "ties": sum(1 for a, b in pairs if a == b),
        "relative_change": gap / parent["median"] if parent["median"] else None,
        "gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit's tree")
    parser.add_argument("--change", required=True, help="the changed tree")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 4701-4710; one pair per seed and workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    report = {
        "trees": {side: describe(tree) for side, tree in trees.items()},
        "tier1": {side: tier1(tree) for side, tree in trees.items()},
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version()},
        "seconds": seconds, "seeds": args.seeds,
        "order": "ABBA: the parent runs first on even-numbered pairs, the change on odd",
        "workloads": {},
    }
    runs = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
            runs[workload].append(pair)
            print(f"pair {i + 1}/{len(args.seeds)} {workload}: "
                  f"{pair['parent']['exit']}/{pair['change']['exit']}", file=sys.stderr)
    for workload in workloads:
        report["workloads"][workload] = {
            "metrics": {m["name"]: summarize(runs[workload], m)
                        for m in benchmark["end_to_end"]},
            "runs": runs[workload],
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
