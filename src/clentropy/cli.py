"""Deterministic command-line front end.

Subcommands: entropy | kl | table | verify | zeta.  Every run emits a fixed
sequence of records, as newline-delimited JSON (one record per line) or as
CSV with a fixed header; float endpoints are printed with 17 significant
digits so the underlying doubles round-trip exactly, and identical
invocations produce byte-identical output.

Exit codes: 0 ok, 2 usage error, 3 a certified computation refused
(diagnostic in the single emitted record), 4 verification failure.
Records are buffered per command, so a refusal never leaves partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .errors import RefusalError
from .groups import AbelianPGroup, check_aut_lower_bound, is_prime
from .measures import (
    CLParams,
    cl_measure,
    hall_sum_partial,
    hall_tail_bounds,
    normalizing_constant,
)
from .numerics import ONE, iv_div
from .partitions import enumerate_partitions

# Every CLI call is a fresh process, so each handler imports what only it
# needs (entropy, zeta, csv): a subcommand does not pay to load another's.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_VERIFY_FAILED = 4

MAX_PRIME = 97
# Integral u enters exact powers p^(u+i); at this bound the slowest call,
# table --p 97 --max-order-exponent 20, takes about 1 s.
MAX_UNIT_RANK = 400
EPS_MIN, EPS_MAX = 1e-12, 1e-1
VERIFY_SUITES = ("lemma1", "exceptions", "monotone", "hall", "zeta", "margins")
# A token starting "-digit" or "-.digit" is a value, never an option.
NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    raise TypeError(f"unformattable scalar {v!r}")


def _json_line(record: dict) -> str:
    parts = []
    for key, v in record.items():
        if isinstance(v, str):
            text = json.dumps(v)
        elif isinstance(v, tuple):
            text = "[" + ",".join(str(x) for x in v) + "]"
        else:
            text = _fmt_scalar(v)
        parts.append(f'"{key}": {text}')
    return "{" + ", ".join(parts) + "}"


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "+".join(str(x) for x in v)
    return _fmt_scalar(v)


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for record in records:
            out.write(_json_line(record) + "\n")
        return
    import csv

    writer = csv.writer(out, lineterminator="\n")
    if records:
        writer.writerow(records[0].keys())
        for record in records:
            writer.writerow(_csv_cell(v) for v in record.values())


def _parse_int_list(parser, text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated list of integers")


def _parse_float_list(parser, text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated list of numbers")


def _check_prime(parser, p: int) -> None:
    if not is_prime(p):
        parser.error(f"{p} is not prime")
    if p > MAX_PRIME:
        parser.error(f"p must be at most {MAX_PRIME}")


def _check_unit_rank(parser, u: float, name: str = "unit-rank") -> None:
    if not (math.isfinite(u) and u > -1):
        parser.error(f"{name} must be finite and > -1, got {u:g}")
    if u > MAX_UNIT_RANK:
        parser.error(f"{name} must be at most {MAX_UNIT_RANK}, got {u:g}")


def _cl_params(parser, p: int, u: float) -> CLParams:
    _check_prime(parser, p)
    _check_unit_rank(parser, u)
    return CLParams(p, u)


def cmd_entropy(parser, args) -> tuple[list[dict], int]:
    from .entropy import entropy

    if not (EPS_MIN <= args.eps <= EPS_MAX):
        parser.error(f"--eps must lie in [{EPS_MIN:g}, {EPS_MAX:g}]")
    ps = _parse_int_list(parser, args.p, "--p")
    us = _parse_float_list(parser, args.u, "--u")
    params_list = [_cl_params(parser, p, u) for p in ps for u in us]
    records = []
    for params in params_list:
        result = entropy(params, args.eps)
        records.append(
            {
                "command": "entropy",
                "p": params.p,
                "u": float(params.u),
                "eps": args.eps,
                "value_lo": result.H.value.lo,
                "value_hi": result.H.value.hi,
                "truncation_level": result.H.truncation_level,
                "tail_bound": result.weighted_sum.tail_bound,
                "status": "ok",
            }
        )
    return records, EXIT_OK


def cmd_kl(parser, args) -> tuple[list[dict], int]:
    from .zeta import kl_closed, kl_direct

    _cl_params(parser, args.p, args.u1)
    _cl_params(parser, args.p, args.u2)
    records = []

    def record(mode: str, value, level: int, tail: float) -> dict:
        return {
            "command": "kl",
            "p": args.p,
            "u1": args.u1,
            "u2": args.u2,
            "mode": mode,
            "value_lo": value.lo,
            "value_hi": value.hi,
            "truncation_level": level,
            "tail_bound": tail,
            "status": "ok",
        }

    closed = direct = None
    if args.mode in ("closed", "both"):
        closed = kl_closed(args.p, args.u1, args.u2)
        records.append(
            record("closed", closed.value, closed.truncation_level, closed.tail_bound)
        )
    if args.mode in ("direct", "both"):
        direct = kl_direct(args.p, args.u1, args.u2)
        records.append(
            record(
                "direct",
                direct.enclosure(symmetric=True),
                direct.truncation_level,
                direct.tail_bound,
            )
        )
    if args.mode == "both":
        overlap = closed.value.overlaps(direct.enclosure(symmetric=True))
        for rec in records:
            rec["overlap"] = overlap
    return records, EXIT_OK


def cmd_table(parser, args) -> tuple[list[dict], int]:
    params = _cl_params(parser, args.p, args.u)
    if not 0 <= args.max_order_exponent <= 20:
        parser.error("--max-order-exponent must lie in [0, 20]")
    records = []
    for n in range(args.max_order_exponent + 1):
        for parts in enumerate_partitions(n):
            group = AbelianPGroup(params.p, parts)
            measure = cl_measure(params, group)
            records.append(
                {
                    "command": "table",
                    "p": params.p,
                    "u": float(params.u),
                    "partition": parts,
                    "order": group.order,
                    "aut_order": group.aut_order,
                    "measure_lo": measure.lo,
                    "measure_hi": measure.hi,
                    "status": "ok",
                }
            )
    return records, EXIT_OK


def cmd_zeta(parser, args) -> tuple[list[dict], int]:
    from .zeta import ZetaParams, zeta_log_derivative, zeta_product, zeta_sum

    _check_prime(parser, args.p)
    if args.k == "inf":
        k = None
    else:
        try:
            k = int(args.k)
        except ValueError:
            parser.error("--k expects a positive integer or 'inf'")
        if k < 1:
            parser.error("--k expects a positive integer or 'inf'")
    _check_unit_rank(parser, args.s, "--s")
    params = ZetaParams(args.p, k, args.s)
    records = []

    def record(mode: str, value, level: int, tail: float) -> dict:
        return {
            "command": "zeta",
            "p": args.p,
            "k": -1 if k is None else k,
            "s": args.s,
            "mode": mode,
            "value_lo": value.lo,
            "value_hi": value.hi,
            "truncation_level": level,
            "tail_bound": tail,
            "status": "ok",
        }

    want = ("product", "sum", "derivative") if args.mode == "all" else (args.mode,)
    product = total = None
    if "product" in want:
        product = zeta_product(params)
        records.append(record("product", product, 0, 0.0))
    if "sum" in want:
        if k is None:
            parser.error("--mode sum needs a finite --k")
        total = zeta_sum(params)
        records.append(
            record("sum", total.enclosure(), total.truncation_level, total.tail_bound)
        )
    if "derivative" in want:
        if k is None:
            parser.error("--mode derivative needs a finite --k")
        records.append(record("derivative", zeta_log_derivative(params), 0, 0.0))
    if product is not None and total is not None:
        overlap = product.overlaps(total.enclosure())
        for rec in records:
            rec["overlap"] = overlap
    return records, EXIT_OK


def _suite_record(suite: str, checks: int, failures: list[str]) -> dict:
    return {
        "command": "verify",
        "suite": suite,
        "checks": checks,
        "failures": len(failures),
        "status": "ok" if not failures else "failed",
        "counterexample": failures[0] if failures else "",
    }


def _verify_lemma1(n_max: int) -> dict:
    checks = 0
    failures = []
    for p in (2, 3, 5, 7):
        for n in range(1, n_max + 1):
            for parts in enumerate_partitions(n):
                report = check_aut_lower_bound(AbelianPGroup(p, parts))
                checks += 1
                if not report.lower_bound_ok or report.rank2_bound_ok is False:
                    failures.append(f"p={p} partition={parts}")
    return _suite_record("lemma1", checks, failures)


def _verify_exceptions() -> dict:
    from .entropy import scan_exceptions

    expected = [(2, 0, (1,)), (2, 0, (2,)), (2, 1, (1,)), (3, 0, (1,))]
    found = scan_exceptions(3, 6, 3)
    checks = 2 * 4 * sum(len(enumerate_partitions(n)) for n in range(1, 7))
    failures = [
        f"unexpected={sorted(set(found) - set(expected))} "
        f"missing={sorted(set(expected) - set(found))}"
    ] if found != expected else []
    return _suite_record("exceptions", checks, failures)


def _verify_monotone() -> dict:
    from .entropy import entropy

    checks = 0
    failures = []
    for p in (2, 3):
        values = [entropy(CLParams(p, u), eps=1e-4).H.value for u in range(5)]
        for u in range(4):
            checks += 1
            if not values[u].lo > values[u + 1].hi:
                failures.append(f"p={p} u={u}")
    return _suite_record("monotone", checks, failures)


def _verify_hall() -> dict:
    checks = 0
    failures = []
    for p in (2, 3):
        s_aut, s_ord = hall_sum_partial(p, 25)
        aut_tail, ord_tail = hall_tail_bounds(p, 25)
        inv_f0 = iv_div(ONE, normalizing_constant(CLParams(p, 0)))
        for name, total, tail in (
            ("aut", s_aut, aut_tail),
            ("ord", s_ord, ord_tail),
        ):
            checks += 1
            # Exact: the partial sum stays below the limit and within the
            # certified tail of it.
            if not (
                Fraction(inv_f0.hi) >= total
                and Fraction(inv_f0.lo) - total <= Fraction(tail.hi)
            ):
                failures.append(f"p={p} route={name}")
    return _suite_record("hall", checks, failures)


def _verify_zeta() -> dict:
    from .zeta import ZetaParams, zeta_log_derivative, zeta_product, zeta_sum

    checks = 0
    failures = []
    for p in (2, 3):
        for k in (1, 3):
            for s in (0, 1):
                checks += 1
                params = ZetaParams(p, k, float(s))
                if not zeta_product(params).overlaps(zeta_sum(params).enclosure()):
                    failures.append(f"p={p} k={k} s={s}")
    for p, k, s in ((2, 2, 0.0), (3, 1, 1.0)):
        checks += 1
        h = 1e-6
        upper = zeta_product(ZetaParams(p, k, s + h))
        lower = zeta_product(ZetaParams(p, k, s - h))
        fd = (upper.mid - lower.mid) / (2 * h)
        box = zeta_log_derivative(ZetaParams(p, k, s)).widened(1e-4)
        if not box.lo <= fd <= box.hi:
            failures.append(f"derivative p={p} k={k} s={s}")
    return _suite_record("zeta", checks, failures)


def _verify_margins() -> dict:
    from .entropy import exceptional_margins

    first, second, third = exceptional_margins()
    failures = []
    for name, margin, floor in (
        ("first", first, 0.44),
        ("second", second, 0.21),
        ("third", third, 0.34),
    ):
        if not margin.lo >= floor:
            failures.append(f"{name} margin {margin.lo!r} < {floor}")
    return _suite_record("margins", 3, failures)


def cmd_verify(parser, args) -> tuple[list[dict], int]:
    if not 1 <= args.n_max <= 20:
        parser.error("--n-max must lie in [1, 20]")
    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    runners = {
        "lemma1": lambda: _verify_lemma1(args.n_max),
        "exceptions": _verify_exceptions,
        "monotone": _verify_monotone,
        "hall": _verify_hall,
        "zeta": _verify_zeta,
        "margins": _verify_margins,
    }
    records = [runners[suite]() for suite in suites]
    exit_code = (
        EXIT_OK if all(r["status"] == "ok" for r in records) else EXIT_VERIFY_FAILED
    )
    return records, exit_code


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="reserved; evaluation is deterministic and single-threaded",
    )
    common.add_argument(
        "--seed", type=int, default=None, help="reserved; nothing here is randomized"
    )

    parser = argparse.ArgumentParser(
        prog="cl-entropy",
        description=(
            "Certified computations with Cohen-Lenstra measures on finite "
            "abelian p-groups: entropy, divergences, zeta values, and "
            "self-verification reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_entropy = sub.add_parser(
        "entropy", parents=[common], help="certified Shannon entropy of the measure"
    )
    p_entropy.add_argument("--p", required=True, help="prime(s), comma separated")
    p_entropy.add_argument("--u", required=True, help="unit-rank(s), comma separated")
    p_entropy.add_argument("--eps", type=float, default=1e-6, help="target width")

    p_kl = sub.add_parser(
        "kl", parents=[common], help="divergence between two unit-ranks"
    )
    p_kl.add_argument("--p", type=int, required=True)
    p_kl.add_argument("--u1", type=float, required=True)
    p_kl.add_argument("--u2", type=float, required=True)
    p_kl.add_argument("--mode", choices=("closed", "direct", "both"), default="both")

    p_table = sub.add_parser(
        "table", parents=[common], help="per-class measure table"
    )
    p_table.add_argument("--p", type=int, required=True)
    p_table.add_argument("--u", type=float, required=True)
    p_table.add_argument("--max-order-exponent", type=int, required=True)

    p_zeta = sub.add_parser(
        "zeta", parents=[common], help="zeta values: product, sum, derivative"
    )
    p_zeta.add_argument("--p", type=int, required=True)
    p_zeta.add_argument("--k", required=True, help="level (positive integer or 'inf')")
    p_zeta.add_argument("--s", type=float, required=True)
    p_zeta.add_argument(
        "--mode", choices=("product", "sum", "derivative", "all"), default="all"
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run built-in verification suites"
    )
    p_verify.add_argument(
        "--suite", choices=VERIFY_SUITES + ("all",), default="all"
    )
    p_verify.add_argument(
        "--n-max", type=int, default=8, help="order-exponent bound for group scans"
    )
    for subparser in sub.choices.values():
        # argparse's default reads only plain decimals such as -0.5 as
        # negative numbers, so `--u -1e-05` would lack its value.
        subparser._negative_number_matcher = NEGATIVE_NUMBER
    return parser


_HANDLERS = {
    "entropy": cmd_entropy,
    "kl": cmd_kl,
    "table": cmd_table,
    "zeta": cmd_zeta,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, exit_code = _HANDLERS[args.command](parser, args)
    except RefusalError as exc:
        refusal = {
            "command": args.command,
            "status": "refused",
            "diagnostic": str(exc),
        }
        _emit([refusal], args.format, sys.stdout)
        return EXIT_REFUSED
    _emit(records, args.format, sys.stdout)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
