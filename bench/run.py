"""The clentropy benchmark: one command per workload run.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

Runs from the root of a plain checkout (``PYTHONPATH=src``, no install).
Workloads (see README.md for why each exists):

* ``entropy-deep``: cold CLI requests at deep truncation levels (p = 2);
* ``cli-mix``: a seeded stream of short cold CLI requests, all subcommands;
* ``warm-sweep``: one library process reading warm level caches;
* ``oracle``: brute-force automorphism counts.

Each is a closed loop with one client, sending as many whole cycles as
``--seconds`` buys at the workload's nominal pace.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs one cycle untraced and one traced,
plus the layer micro-batches, and reports the per-layer metrics and the
tracing overhead.  Every answer is checked against ``refs.json``; the last
line of stdout is the result object, the line before it the details and
the environment.  Exit status: 0 correct, 1 a wrong answer (the result is
still printed), 2 the benchmark could not run (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)  # the checker reads clentropy's closed forms

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_SETUP_REPEATS = 9
LIBRARY_SETUP_REPEATS = 3
RUN_DEADLINE_S = 170  # every child is killed past this, so a run ends in time

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "answers_per_s": "1/s",
    "answer_ratio": "1",
    "peak_rss_mb": "MB",
    "width_over_ref_p50": "1",
}
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "entropy.self_s": "s",
    "entropy.truncation_level": "count",
    "zeta.self_s": "s",
    "zeta.kl_direct.truncation_level": "count",
    "zeta.level_weight.partitions": "count",
    "measures.self_s": "s",
    "measures.level_stats.calls": "count",
    "measures.level_stats.hit_ratio": "1",
    "measures.level_fill_s": "s",
    "measures.level_fill_s_per_level": "s",
    "measures.bound_series_tail.calls": "count",
    "measures.bound_series_tail.ms_per_call": "ms",
    "groups.self_s": "s",
    "groups.aut_order_parts.calls": "count",
    "groups.aut_order_parts.us_per_call": "us",
    "groups.oracle.evals": "count",
    "groups.oracle.ns_per_eval": "ns",
    "partitions.visited": "count",
    "partitions.us_per_partition": "us",
    "numerics.calls": "count",
    "numerics.iv_add.ns": "ns",
    "numerics.iv_mul.ns": "ns",
    "numerics.iv_log_int.ns": "ns",
    "numerics.iv_recip_int.ns": "ns",
    "micro.partition.us": "us",
    "micro.bound_series_tail.ms": "ms",
    "micro.oracle.ns_per_eval": "ns",
    "trace.overhead_s": "s",
    "trace.overhead_share": "1",
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Harness:
    """Child processes of one run, their scratch files and the deadline."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self._files = 0

    def path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.scratch, f"{self._files}-{stem}")

    def spawn(self, cmd: list[str], extra_env=None) -> dict:
        """Run one child to completion: wall time, exit code, peak RSS, stdout."""
        out_path, err_path = self.path("out"), self.path("err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            started = time.perf_counter()
            env = {**os.environ, **BLAS_PIN, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0",
                   "CLENTROPY_BENCH_T0": repr(started), **(extra_env or {})}
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - started, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            latency = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise HarnessError(f"{' '.join(cmd)} killed (signal {-proc.returncode}) at the "
                               f"{RUN_DEADLINE_S} s run deadline")
        with open(out_path) as fh:
            stdout = fh.read()
        return {"exit": proc.returncode, "latency_s": latency, "maxrss_kb": usage.ru_maxrss,
                "stdout": stdout, "stderr_path": err_path}

    def spawn_ok(self, cmd: list[str], extra_env=None) -> dict:
        result = self.spawn(cmd, extra_env)
        if result["exit"] != 0:
            with open(result["stderr_path"]) as fh:
                tail = fh.read()[-2000:]
            raise HarnessError(f"{' '.join(cmd)} exited {result['exit']}:\n{tail}")
        return result


# -- cold CLI workloads ------------------------------------------------------

def cli_setup(harness: Harness, repeats: int) -> list[float]:
    """Interpreter start plus ``import clentropy.cli``, which every request pays."""
    cmd = [sys.executable, "-c", "import clentropy.cli"]
    harness.spawn_ok(cmd)  # compiles bytecode on a fresh checkout; not measured
    return [harness.spawn_ok(cmd)["latency_s"] for _ in range(repeats)]


def cli_pass(harness, workload, seed, cycles, catalog, refs, traced=False):
    trace_paths = []

    def send(argv):
        if traced:
            trace_paths.append(harness.path("trace.json"))
            result = harness.spawn([sys.executable, os.path.join(BENCH, "cli_boot.py"),
                                    *argv.split()], {"CLENTROPY_BENCH_TRACE": trace_paths[-1]})
        else:
            result = harness.spawn([sys.executable, "-m", "clentropy.cli", *argv.split()])
        result["request"] = argv
        return result

    records, phase = workloads.run_closed_loop(workload, seed, cycles, catalog, send)
    traces = []
    for path in trace_paths:
        if os.path.exists(path):  # a request that failed to start wrote none
            with open(path) as fh:
                traces.append(json.load(fh))
    for rec in records:
        rec.update(check.check_cli(rec["request"], rec["exit"], rec["stdout"], refs))
        rec["seed_refused"] = refs["cli"][rec["request"]]["exit"] == check.EXIT_REFUSED
        del rec["stdout"]
    rss = max(rec["maxrss_kb"] for rec in records)
    return {"records": records, "phase_s": phase, "rss_kb": rss, "traces": traces}


# -- library workloads -------------------------------------------------------

def library_run(harness, workload, seed, cycles, *, setup_only=False, traced=False) -> dict:
    out_path = harness.path("library.json")
    cmd = [sys.executable, os.path.join(BENCH, "library.py"), "--workload", workload,
           "--seed", str(seed), "--cycles", str(cycles), "--out", out_path]
    if setup_only:
        cmd.append("--setup-only")
    trace_path = harness.path("trace.json") if traced else None
    if traced:
        cmd += ["--trace-out", trace_path]
    result = harness.spawn_ok(cmd)
    with open(out_path) as fh:
        run = json.load(fh)
    run["rss_kb"] = result["maxrss_kb"]
    run["traces"] = []
    if traced:
        with open(trace_path) as fh:
            run["traces"].append(json.load(fh))
    return run


def library_pass(harness, workload, seed, cycles, refs, **kwargs) -> dict:
    run = library_run(harness, workload, seed, cycles, **kwargs)
    for rec in run["records"]:
        rec.update(check.check_library(rec, refs))
        rec["seed_refused"] = bool(refs["library"][workloads.request_key(rec["request"])]
                                   .get("refused"))
    return run


# -- metrics -----------------------------------------------------------------

def latency_metrics(records: list[dict]) -> dict:
    """Median and tail latency; a failed request ranks above every answer.

    A refused or wrong request is given twice the slowest good latency of
    the run.  The tail is the highest percentile with at least ten samples
    beyond it (the eleventh-largest latency); a run too short for that
    percentile to lie above the median reports its largest latency.
    """
    good = [r["latency_s"] for r in records if r["status"] in check.OK_STATUSES]
    penalty = 2 * max(good) if good else 2 * sum(r["latency_s"] for r in records)
    ranked = sorted(r["latency_s"] if r["status"] in check.OK_STATUSES else penalty
                    for r in records)
    n = len(ranked)
    beyond = 10 if n >= 21 else 0
    return {
        "p50": statistics.median(ranked),
        "tail": ranked[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
        "samples": n,
    }


def end_to_end(run: dict, setup_runs: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, and the details behind them."""
    records = run["records"]
    lat = latency_metrics(records)
    busy = run["phase_s"] - sum(r["latency_s"] for r in records if r["seed_refused"])
    answers = sum(1 for r in records if not r["seed_refused"] and r["status"] == "answer")
    widths = [r["widths"] for r in records if r["status"] == "answer" and r["widths"]]
    ok = sum(1 for r in records if r["status"] in check.OK_STATUSES)
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "answers_per_s": answers / busy,
        "answer_ratio": ok / len(records),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "width_over_ref_p50": 1.0,  # neutral where no request has a target (oracle)
    }
    if widths:
        metrics["width_over_ref_p50"] = statistics.median(w / ref for w, ref, _ in widths)
        lat["width_over_target_p50"] = statistics.median(w / target for w, _, target in widths)
    return metrics, lat


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy

        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (ImportError, TypeError, KeyError):  # older numpy or another BLAS layout
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "blas": blas,
        "blas_threads": BLAS_PIN,
        "seed": seed,
    }


# -- runs --------------------------------------------------------------------

def measure(harness, workload, seed, seconds, refs) -> tuple[dict, dict, list]:
    catalog = refs["catalog"]
    cycles = workloads.cycles_for(workload, seconds)
    if workload in workloads.CLI_WORKLOADS:
        setup_runs = cli_setup(harness, CLI_SETUP_REPEATS)
        run = cli_pass(harness, workload, seed, cycles, catalog, refs)
    else:
        setup_runs = [library_run(harness, workload, seed, cycles, setup_only=True)["setup_s"]
                      for _ in range(LIBRARY_SETUP_REPEATS - 1)]
        run = library_pass(harness, workload, seed, cycles, refs)
        setup_runs.append(run["setup_s"])
    metrics, lat = end_to_end(run, setup_runs)
    details = {"cycles": cycles, "phase_s": run["phase_s"], "setup_runs": setup_runs,
               "latency": lat}
    return metrics, details, run["records"]


def measure_layers(harness, workload, seed, refs) -> tuple[dict, dict, list]:
    """One cycle untraced, the same cycle traced, then the micro-batches."""
    catalog = refs["catalog"]
    if workload in workloads.CLI_WORKLOADS:
        cli_setup(harness, 0)
        plain = cli_pass(harness, workload, seed, 1, catalog, refs)
        traced = cli_pass(harness, workload, seed, 1, catalog, refs, traced=True)
        plain_s, traced_s = plain["phase_s"], traced["phase_s"]
    else:
        plain = library_pass(harness, workload, seed, 1, refs)
        traced = library_pass(harness, workload, seed, 1, refs, traced=True)
        plain_s = plain["setup_s"] + plain["phase_s"]
        traced_s = traced["setup_s"] + traced["phase_s"]
    if not traced["traces"]:
        raise HarnessError("the traced pass wrote no trace")
    micro = harness.spawn_ok([sys.executable, os.path.join(BENCH, "micro.py")])
    metrics = tracing.layer_metrics(traced["traces"])
    metrics.update(json.loads(micro["stdout"].splitlines()[-1]))
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    details = {"untraced_s": plain_s, "traced_s": traced_s}
    return metrics, details, plain["records"] + traced["records"]


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description="clentropy benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clentropy", "cli.py")):
        print(f"run.py: no clentropy sources under {SRC}", file=sys.stderr)
        return 2
    refs = workloads.load_refs()
    scratch = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    harness = Harness(scratch)
    try:
        if args.trace:
            metrics, details, records = measure_layers(harness, args.workload, args.seed, refs)
            units = PER_LAYER
        else:
            metrics, details, records = measure(
                harness, args.workload, args.seed, args.seconds, refs)
            units = END_TO_END
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it

    statuses = {}
    for rec in records:
        statuses[rec["status"]] = statuses.get(rec["status"], 0) + 1
    problems = [f"{rec['request']}: {rec['status']}: {rec['reason']}"
                for rec in records if rec["status"] in check.FAILED_STATUSES]
    correct = statuses.get("wrong", 0) == 0
    print(json.dumps({"workload": args.workload, "trace": args.trace, "details": details,
                      "statuses": statuses, "problems": problems[:10],
                      "environment": environment(args.seed)}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(statuses.get(s, 0) for s in check.FAILED_STATUSES),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
