"""Layer micro-batches: the unit costs the ROADMAP tracks, untraced.

``PYTHONPATH=src python3 bench/micro.py`` prints one JSON object:

* ns per call of iv_add, iv_mul, iv_log_int and iv_recip_int (loop cost
  subtracted, call and argument unpacking included);
* µs per partition for iter_partitions(40) plus aut_order_parts(2, .);
* ms per bound_series_tail call (p = 2, rate 1, N = 20, entropy-shaped
  coefficients);
* ns per image evaluation of the brute-force oracle on Z/9 x Z/3 x Z/3.

Inputs are fixed, so the figures compare across runs and workloads.
"""

import json
import random
import statistics
import time

from clentropy.groups import AbelianPGroup, aut_order_bruteforce, aut_order_parts
from clentropy.groups import bruteforce_hom_count
from clentropy.measures import bound_series_tail
from clentropy.numerics import ONE, Interval, iv_add, iv_log_int, iv_mul, iv_recip_int
from clentropy.partitions import iter_partitions

REPEATS = 5


def _per_call_ns(fn, arg_tuples) -> float:
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for args in arg_tuples:
            fn(*args)
        t1 = time.perf_counter_ns()
        for args in arg_tuples:
            pass
        t2 = time.perf_counter_ns()
        runs.append(((t1 - t0) - (t2 - t1)) / len(arg_tuples))
    return statistics.median(runs)


def _median_seconds(fn, repeats: int) -> float:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main() -> dict:
    rng = random.Random(0)
    intervals = []
    for _ in range(50_000):
        lo = rng.uniform(-2.0, 2.0)
        intervals.append(Interval(lo, lo + rng.uniform(0.0, 1e-6)))
    pairs = list(zip(intervals, reversed(intervals)))
    auts = [(aut_order_parts(2, parts),) for parts in iter_partitions(22)]  # 1002 big ints
    auts = (auts * 50)[:50_000]

    def partitions_40():
        for parts in iter_partitions(40):
            aut_order_parts(2, parts)

    count_40 = sum(1 for _ in iter_partitions(40))
    coeffs = [Interval(0.5, 0.5000001), Interval(0.69, 0.6900001)]
    group = AbelianPGroup(3, (2, 1, 1))
    evals = bruteforce_hom_count(group) * group.order
    return {
        "numerics.iv_add.ns": _per_call_ns(iv_add, pairs),
        "numerics.iv_mul.ns": _per_call_ns(iv_mul, pairs),
        "numerics.iv_log_int.ns": _per_call_ns(iv_log_int, auts),
        "numerics.iv_recip_int.ns": _per_call_ns(iv_recip_int, auts),
        "micro.partition.us": _median_seconds(partitions_40, 1) / count_40 * 1e6,
        "micro.bound_series_tail.ms": _median_seconds(
            lambda: bound_series_tail(2, 1, 20, coeffs, ONE), 9) * 1e3,
        "micro.oracle.ns_per_eval": _median_seconds(
            lambda: aut_order_bruteforce(group), 3) / evals * 1e9,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
