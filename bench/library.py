"""Library side of the benchmark: the warm-sweep and oracle workloads.

Run as a worker process by ``run.py`` (one library process per run, like a
caller that imports clentropy and keeps it warm)::

    PYTHONPATH=src python3 bench/library.py --workload warm-sweep --seed 1 \
        --cycles 5 --out result.json

The worker imports clentropy, does the workload's set-up (cache warm-up),
then sends the seeded request cycles one at a time and writes one record
per request to ``--out``.  Checking the records against the references is
left to the parent.  ``--setup-only`` stops after set-up; ``--trace-out``
installs the per-layer tracer before set-up and writes it at exit.  Set-up
time runs from the parent's ``perf_counter`` at spawn, passed in the
environment as ``CLENTROPY_BENCH_T0`` (the clock is system-wide).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads


def execute(request) -> dict:
    """Run one library request; the result's ``value`` is its enclosure.

    Route partners that belong to the request (the closed KL next to the
    direct one, the zeta product next to the group sum) are computed here
    and timed with it; RefusalError propagates to the caller.
    """
    from clentropy import (
        AbelianPGroup,
        CLParams,
        ZetaParams,
        aut_order_bruteforce,
        cross_entropy_direct,
        entropy,
        kl_closed,
        kl_direct,
        total_mass,
        zeta_product,
        zeta_sum,
    )

    kind = request[0]
    if kind == "entropy":
        _, p, u, eps = request
        result = entropy(CLParams(p, u), eps).H
        return {"value": [result.value.lo, result.value.hi], "level": result.truncation_level,
                "target": eps}
    if kind == "kl":
        _, p, u1, u2, tol = request
        closed = kl_closed(p, u1, u2).value
        direct = kl_direct(p, u1, u2, tol=tol)
        box = direct.enclosure(symmetric=True)
        return {"value": [box.lo, box.hi], "closed": [closed.lo, closed.hi],
                "level": direct.truncation_level, "target": tol}
    if kind == "cross_entropy":
        _, p, u1, u2, tol = request
        result = cross_entropy_direct(p, u1, u2, tol=tol)
        box = result.enclosure()
        return {"value": [box.lo, box.hi], "level": result.truncation_level, "target": tol}
    if kind == "total_mass":
        _, p, u, eps = request
        result = total_mass(CLParams(p, u), eps=eps)
        box = result.enclosure()
        return {"value": [box.lo, box.hi], "level": result.truncation_level, "target": eps}
    if kind == "zeta":
        _, p, k, s, n = request
        params = ZetaParams(p, k, s)
        box = zeta_sum(params, n).enclosure()
        product = zeta_product(params)
        return {"value": [box.lo, box.hi], "product": [product.lo, product.hi], "level": n}
    if kind == "oracle":
        _, p, parts = request
        return {"count": aut_order_bruteforce(AbelianPGroup(p, tuple(parts)))}
    raise ValueError(f"unknown request kind {kind!r}")


def send(request) -> dict:
    """Time one request; the record carries its outcome and results."""
    from clentropy import RefusalError

    started = time.perf_counter()
    try:
        result = execute(request)
        outcome = "ok"
    except RefusalError as exc:
        result = {"diagnostic": str(exc)}
        outcome = "refused"
    latency = time.perf_counter() - started
    return {"request": request, "latency_s": latency, "outcome": outcome, **result}


def setup(workload: str, catalog: dict) -> None:
    """Cache warm-up: what a long-lived caller pays once before serving."""
    from clentropy import AbelianPGroup, ZetaParams, aut_order_bruteforce, level_stats, zeta_sum

    if workload == "warm-sweep":
        for p, depth in catalog["warm_levels"].items():
            for n in range(1, depth + 1):
                level_stats(int(p), n)
            for k in workloads.MIX_ZETA_K:
                zeta_sum(ZetaParams(int(p), k, 0), workloads.SWEEP_ZETA_N)
    else:  # oracle: the first brute-force call loads numpy and its BLAS
        aut_order_bruteforce(AbelianPGroup(2, (2, 1)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("warm-sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import clentropy  # noqa: F401  (start-up cost belongs to set-up)

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        catalog = workloads.load_refs()["catalog"]
        setup(args.workload, catalog)
        result = {"setup_s": time.perf_counter() - float(os.environ["CLENTROPY_BENCH_T0"])}
        if not args.setup_only:

            def traced_send(request):
                if tracer is not None:
                    tracer.request = workloads.request_key(request)
                return send(request)

            records, phase = workloads.run_closed_loop(
                args.workload, args.seed, args.cycles, catalog, traced_send)
            result.update(records=records, phase_s=phase)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
