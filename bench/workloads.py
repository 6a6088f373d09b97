"""Workload catalogs and the seeded request stream of each workload.

A workload is a closed loop of cycles: one client sends the requests of a
cycle one at a time, each after the previous one has completed.  A cycle
is a fixed-composition sample drawn from the workload's catalog with a
seeded RNG, so every seed yields the same mix of request kinds while the
concrete parameters differ.  The sample is stratified: each kind's catalog
is sorted by a cost key, cut into as many strata as the cycle draws from
it, and one entry is drawn from each stratum.  So a cycle costs about the
same under every seed, and the figures of two seeds compare.  The warm
library sweep and the fixed lists (entropy-deep, oracle) send their whole
catalog every cycle, in a seeded order.

A run sends a fixed number of whole cycles, set by ``--seconds`` through the
workload's nominal cycle time.  So the run's work depends only on its
arguments: two commits run on the same seed send the same requests, and the
latency order statistics do not jump when drift adds or drops a cycle.

The catalogs themselves are candidate grids defined here and filtered once,
when the references are generated (``make_refs.py``), to the entries that
stay cheap and certified on the seed; the accepted catalog, in cost order,
is stored next to the references in ``refs.json`` so that every request
the benchmark can send has a reference to be checked against.
"""

from __future__ import annotations

import json
import os
import random
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

WORKLOADS = ("entropy-deep", "cli-mix", "warm-sweep", "oracle")
CLI_WORKLOADS = ("entropy-deep", "cli-mix")
# Seconds per cycle at the seed on a 2-core Xeon VM; a run of S seconds
# sends round(S / nominal) cycles, at least one.
NOMINAL_CYCLE_S = {"entropy-deep": 17.0, "cli-mix": 9.0, "warm-sweep": 4.6, "oracle": 10.4}

# -- entropy-deep: deep truncation levels at p = 2, cold CLI -----------------
DEEP_REQUESTS = (
    "entropy --p 2 --u 0 --eps 1e-06",
    "kl --p 2 --u1 0 --u2 1 --mode both",
    "entropy --p 2 --u 0 --eps 1e-10",
)
# The seed refuses the last request (its level needs more partitions than
# the enumeration budget allows); an answer, once given, is checked against
# the eps = 1e-6 reference, which any correct enclosure must overlap.
DEEP_FALLBACK = {"entropy --p 2 --u 0 --eps 1e-10": "entropy --p 2 --u 0 --eps 1e-06"}

# -- cli-mix: short cold CLI requests over all five subcommands --------------
MIX_PRIMES = (2, 3, 5, 7, 11, 13, 23, 31, 53, 97)
MIX_UNIT_RANKS = (0, 1, 2, 0.5, 1.5, -0.5)
MIX_EPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
MIX_KL_RANKS = (0, 1, 2, 0.5, -0.5)
MIX_ZETA_K = (1, 3, 8)
MIX_ZETA_S = (-0.5, 0, 0.5, 1, 2)
MIX_TABLE = [(p, u, e) for p in (2, 3, 97) for u in (0, 0.5) for e in (6, 12)]
VERIFY_SUITES = ("lemma1", "exceptions", "monotone", "hall", "zeta", "margins")
# Catalog filter: keep requests whose certified truncation level needs at
# most this many partitions in total (a cold request stays well under 1 s).
MIX_MAX_PARTITIONS = 3000
# Per cycle, besides every verify suite.  One zeta draw per k keeps the
# requests over 0.35 s (monotone, hall, zeta at k = 8) to 3 a cycle, so the
# tail percentile of a 3-cycle run lies in the dense part of the latencies.
MIX_CYCLE = (("entropy", 16), ("kl", 6), ("zeta", 3), ("table", 4))

# -- warm-sweep: one library process reading warm level caches --------------
SWEEP_PRIMES = (2, 3, 5)
SWEEP_MAX_LEVEL = 26  # set-up fills levels up to the catalog's need, at most this
SWEEP_ZETA_N = 20

# -- oracle: brute-force automorphism counts inside the default budget ------
ORACLE_GROUPS = (
    (2, (4, 4)),
    (2, (2, 2, 2)),
    (2, (3, 1, 1, 1)),
    (2, (5, 2, 1)),
    (2, (3, 2, 2)),
    (2, (6, 2)),
    (3, (3, 1, 1)),
    (3, (2, 1, 1)),
    (2, (2, 1, 1, 1, 1)),  # 4.3e9 image evaluations: must be refused
)


def _num(x) -> str:
    return f"{x:g}"


def mix_candidates() -> dict[str, list[str]]:
    """Unfiltered cli-mix candidates, grouped by request kind."""
    return {
        "entropy": [
            f"entropy --p {p} --u {_num(u)} --eps {_num(eps)}"
            for p in MIX_PRIMES for u in MIX_UNIT_RANKS for eps in MIX_EPS
        ],
        "kl": [
            f"kl --p {p} --u1 {_num(a)} --u2 {_num(b)} --mode both"
            for p in MIX_PRIMES for a in MIX_KL_RANKS for b in MIX_KL_RANKS if a != b
        ],
        "zeta": [
            f"zeta --p {p} --k {k} --s {_num(s)}"
            for p in MIX_PRIMES for k in MIX_ZETA_K for s in MIX_ZETA_S
        ],
        "table": [
            f"table --p {p} --u {_num(u)} --max-order-exponent {e}"
            for p, u, e in MIX_TABLE
        ],
        "verify": [f"verify --suite {s}" for s in VERIFY_SUITES],
    }


def sweep_candidates() -> dict[str, list[list]]:
    """Unfiltered warm-sweep library calls, grouped by request kind."""
    pairs_kl = ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (0.5, 1), (1, 0.5), (2, 0.5), (1, 1))
    pairs_ce = ((1, 2), (2, 1), (1, 0), (2, 0), (0.5, 1), (1, 1))
    ps = SWEEP_PRIMES
    return {
        "entropy": [
            ["entropy", p, u, eps]
            for p in ps for u in (0, 1, 2, 3, 0.5, 1.5, 0.25)
            for eps in (1e-4, 1e-6, 1e-8, 1e-10)
        ],
        "kl": [["kl", p, a, b, tol] for p in ps for a, b in pairs_kl for tol in (1e-6, 1e-8)],
        "cross_entropy": [
            ["cross_entropy", p, a, b, tol] for p in ps for a, b in pairs_ce for tol in (1e-5, 1e-7)
        ],
        "total_mass": [
            ["total_mass", p, u, eps] for p in ps for u in (0, 1, 2, 0.5) for eps in (1e-4, 1e-6, 1e-8)
        ],
        "zeta": [
            ["zeta", p, k, s, SWEEP_ZETA_N] for p in ps for k in MIX_ZETA_K for s in MIX_ZETA_S
        ],
    }


def request_key(request) -> str:
    """Reference key: the argv string of a CLI request, JSON of a library call."""
    return request if isinstance(request, str) else json.dumps(request)


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def _stratified(rng: random.Random, entries: list, n: int) -> list:
    """One entry from each of ``n`` consecutive strata of a cost-sorted list."""
    size = len(entries)
    return [entries[rng.randrange(i * size // n, (i + 1) * size // n)] for i in range(n)]


def cycle(workload: str, seed: int, index: int, catalog: dict) -> list:
    """The requests of cycle ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "entropy-deep":
        requests = list(DEEP_REQUESTS)
    elif workload == "oracle":
        requests = [["oracle", p, list(parts)] for p, parts in ORACLE_GROUPS]
    elif workload == "cli-mix":
        kinds = catalog["cli-mix"]
        requests = [r for kind, n in MIX_CYCLE for r in _stratified(rng, kinds[kind], n)]
        requests += kinds["verify"]
    elif workload == "warm-sweep":
        requests = [r for entries in catalog["warm-sweep"].values() for r in entries]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def run_closed_loop(workload, seed, cycles, catalog, send):
    """Send ``cycles`` whole cycles, one request at a time.

    Returns the records ``send`` produced and the wall time of the phase.
    """
    started = time.perf_counter()
    records = [send(request) for index in range(cycles)
               for request in cycle(workload, seed, index, catalog)]
    return records, time.perf_counter() - started
