"""Generate ``refs.json``: the accepted catalogs and their reference answers.

Run once, at the commit whose answers become the references::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_refs.py

Every candidate request of ``workloads.py`` is answered in this process.
CLI requests go through ``clentropy.cli.main`` (the same code path as a
cold ``python -m clentropy.cli``; answers do not depend on warm caches).
Candidates are kept only when the seed answers them within the catalog's
depth limit: a guard around ``check_enumeration_budget`` stops a request
before it enumerates more levels than the workload allows.  The oracle
references are brute-force counts that must equal both closed forms.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import sys
from importlib import metadata

import check
import library
import workloads
from clentropy import AbelianPGroup, RefusalError, aut_order_block_formula, partition_count
from clentropy import cli

COMMAND = "PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_refs.py"
GUARDED_MODULES = ("clentropy.measures", "clentropy.entropy", "clentropy.zeta")


class TooDeep(Exception):
    """The request needs more levels than its catalog allows."""


@contextlib.contextmanager
def depth_guard(max_level=None, max_partitions=None):
    modules = [importlib.import_module(name) for name in GUARDED_MODULES]
    original = modules[0].check_enumeration_budget

    def guarded(N):
        work = sum(partition_count(n) for n in range(N + 1))
        if (max_level is not None and N > max_level) or (
            max_partitions is not None and work > max_partitions
        ):
            raise TooDeep(N)
        original(N)

    for module in modules:
        module.check_enumeration_budget = guarded
    try:
        yield
    finally:
        for module in modules:
            module.check_enumeration_budget = original


def run_cli(argv: str) -> tuple[dict, list[dict]]:
    """The reference of one CLI request, and its raw records."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv.split())
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    if code == check.EXIT_REFUSED:
        return {"exit": code}, records
    if code != check.EXIT_OK:
        raise SystemExit(f"{argv}: exit code {code}")
    return {"exit": code, "records": [check.summarize(rec) for rec in records]}, records


def _flag(argv: str, name: str) -> float:
    tokens = argv.split()
    return float(tokens[tokens.index(name) + 1])


def cli_cost(kind: str, argv: str, records: list[dict]):
    """Sort key that orders a kind's cold CLI requests by cost."""
    if kind in ("entropy", "kl"):  # levels to fill dominate
        return (max(rec["truncation_level"] for rec in records), _flag(argv, "--p"))
    if kind == "zeta":  # rank-truncated weight sums grow with k, then with p
        return (_flag(argv, "--k"), _flag(argv, "--p"), _flag(argv, "--s"))
    if kind == "table":
        return (_flag(argv, "--max-order-exponent"), _flag(argv, "--p"), _flag(argv, "--u"))
    return ()


def library_cost(request: list, result: dict):
    """Sort key for warm calls: tail walks grow with the truncation level."""
    if request[0] == "zeta":
        return tuple(request[1:])
    return (result["level"], request[1])


def cli_refs(refs: dict, catalog: dict) -> None:
    for argv in workloads.DEEP_REQUESTS:
        refs[argv] = run_cli(argv)[0]
        print(f"entropy-deep  {argv}: exit {refs[argv]['exit']}", file=sys.stderr)
    for argv, fallback in workloads.DEEP_FALLBACK.items():
        if refs[argv]["exit"] == check.EXIT_REFUSED:
            refs[argv]["fallback"] = fallback
    accepted = {}
    for kind, candidates in workloads.mix_candidates().items():
        # Only the level-series requests pick their own depth.
        limit = workloads.MIX_MAX_PARTITIONS if kind in ("entropy", "kl") else None
        costs = {}
        with depth_guard(max_partitions=limit):
            for argv in candidates:
                try:
                    ref, records = run_cli(argv)
                except TooDeep:
                    continue
                if ref["exit"] == check.EXIT_OK:
                    refs[argv] = ref
                    costs[argv] = cli_cost(kind, argv, records)
        accepted[kind] = sorted(costs, key=costs.get)
        print(f"cli-mix {kind}: {len(accepted[kind])} of {len(candidates)}", file=sys.stderr)
    catalog["cli-mix"] = accepted


def library_refs(refs: dict, catalog: dict) -> None:
    accepted = {}
    deepest = {}
    with depth_guard(max_level=workloads.SWEEP_MAX_LEVEL):
        for kind, candidates in workloads.sweep_candidates().items():
            costs = []
            for request in candidates:
                try:
                    result = library.execute(request)
                except (TooDeep, RefusalError):
                    continue
                result.pop("target", None)
                refs[workloads.request_key(request)] = result
                costs.append((library_cost(request, result), request))
                if kind != "zeta":
                    deepest[request[1]] = max(deepest.get(request[1], 0), result["level"])
            accepted[kind] = [request for _, request in sorted(costs)]
            print(f"warm-sweep {kind}: {len(accepted[kind])} of {len(candidates)}",
                  file=sys.stderr)
    catalog["warm-sweep"] = accepted
    catalog["warm_levels"] = {str(p): n for p, n in sorted(deepest.items())}
    for request in workloads.cycle("oracle", 0, 0, catalog):
        group = AbelianPGroup(request[1], tuple(request[2]))
        try:
            count = library.execute(request)["count"]
        except RefusalError:
            refs[workloads.request_key(request)] = {"refused": True}
            continue
        if not count == group.aut_order == aut_order_block_formula(group):
            raise SystemExit(f"oracle mismatch on {request}")
        refs[workloads.request_key(request)] = {"count": count}


def main() -> None:
    catalog, cli_section, library_section = {}, {}, {}
    cli_refs(cli_section, catalog)
    library_refs(library_section, catalog)
    doc = {
        "command": COMMAND,
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "mpmath": metadata.version("mpmath"),
        },
        "catalog": catalog,
        "cli": cli_section,
        "library": library_section,
    }
    path = os.path.join(workloads.HERE, "refs.json")
    with open(path, "w") as fh:
        # One line per request keeps the file diffable.
        fh.write("{\n")
        items = list(doc.items())
        for i, (section, body) in enumerate(items):
            fh.write(f"{json.dumps(section)}: ")
            if section in ("cli", "library"):
                lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in body.items()]
                fh.write("{\n" + ",\n".join(lines) + "\n}")
            else:
                fh.write(json.dumps(body))
            fh.write(",\n" if i < len(items) - 1 else "\n")
        fh.write("}\n")


if __name__ == "__main__":
    main()
