"""Correctness of every benchmark answer, by overlap with its reference.

The references (``refs.json``) are the seed's enclosures.  A new answer is
correct when each of its intervals overlaps the reference interval and its
exact fields (modes, partitions, automorphism counts, check counts) are
equal, so a narrower enclosure passes and a byte-for-byte change in the
last digits does not matter.  On top of that every answer must pass the
route cross-checks the program offers: KL closed against direct, zeta
product against sum, table automorphism counts against the Hillar-Rhea
block formula, oracle counts against Macdonald and Hillar-Rhea, verify
suites with no failures, total mass containing 1, entropy width <= eps.

Each request gets one status:

* ``answer``: a certified answer that passed every check;
* ``expected_refusal``: a refusal the workload asserts (an oracle group
  over the work budget);
* ``known_refusal``: a refusal the seed also gave (a known defect: it
  lowers ``answer_ratio`` but is not a failed operation);
* ``refused``: a refusal of a request the seed answered (failed);
* ``wrong``: a wrong answer, a failed cross-check or a crash (failed, and
  the run is not correct).
"""

from __future__ import annotations

import json

from workloads import request_key

EXIT_OK, EXIT_REFUSED = 0, 3
OK_STATUSES = ("answer", "expected_refusal")
FAILED_STATUSES = ("refused", "wrong")


def summarize(record: dict) -> dict:
    """The fields of a CLI record that a reference pins down."""
    out = {key: record[key] for key in ("mode", "suite", "checks", "partition", "aut_order")
           if key in record}
    for lo, hi in (("value_lo", "value_hi"), ("measure_lo", "measure_hi")):
        if lo in record:
            out["value"] = [record[lo], record[hi]]
    return out


def overlaps(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _verdict(status, reason="", widths=None):
    """``widths``: (enclosure width, reference width, target width), for
    answers to requests that ask for a target width."""
    return {"status": status, "reason": reason, "widths": widths}


def _compare(got: dict, want: dict) -> str:
    if set(got) != set(want):
        return f"fields {sorted(got)} != reference {sorted(want)}"
    for key, expected in want.items():
        if key == "value":
            if not overlaps(got[key], expected):
                return f"{got[key]} does not overlap reference {expected}"
        elif got[key] != expected:
            return f"{key} {got[key]!r} != reference {expected!r}"
    return ""


def _cli_cross_check(records: list[dict]) -> str:
    from clentropy import AbelianPGroup, aut_order_block_formula

    for rec in records:
        if rec.get("status") != "ok":
            return f"record status {rec.get('status')!r}"
        if rec.get("overlap") is False:
            return f"{rec['command']} routes do not overlap"
        command = rec["command"]
        if command == "entropy" and not rec["value_hi"] - rec["value_lo"] <= rec["eps"]:
            return "entropy enclosure wider than eps"
        if command == "verify" and rec["failures"] != 0:
            return f"verify suite {rec['suite']} reports {rec['failures']} failures"
        if command == "table":
            block = aut_order_block_formula(AbelianPGroup(rec["p"], tuple(rec["partition"])))
            if rec["aut_order"] != block:
                return f"aut_order {rec['aut_order']} != block formula {block}"
    return ""


def check_cli(argv: str, exit_code: int, stdout: str, refs: dict) -> dict:
    ref = refs["cli"][argv]
    seed_refused = ref["exit"] == EXIT_REFUSED
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return _verdict("wrong", reason="unparseable output")
    if exit_code == EXIT_REFUSED:
        if len(records) == 1 and records[0].get("status") == "refused":
            status = "known_refusal" if seed_refused else "refused"
            return _verdict(status, reason=records[0].get("diagnostic", ""))
        return _verdict("wrong", reason="malformed refusal")
    if exit_code != EXIT_OK:
        return _verdict("wrong", reason=f"exit code {exit_code}")
    if seed_refused:
        ref = refs["cli"][ref["fallback"]]
    if len(records) != len(ref["records"]):
        return _verdict("wrong", reason=f"{len(records)} records, reference has "
                                        f"{len(ref['records'])}")
    for rec, want in zip(records, ref["records"]):
        problem = _compare(summarize(rec), want)
        if problem:
            return _verdict("wrong", reason=problem)
    problem = _cli_cross_check(records)
    if problem:
        return _verdict("wrong", reason=problem)
    widths = None
    first = records[0]
    if first["command"] == "entropy":
        ref_lo, ref_hi = ref["records"][0]["value"]
        widths = (first["value_hi"] - first["value_lo"], ref_hi - ref_lo, first["eps"])
    return _verdict("answer", widths=widths)


def _library_cross_check(record: dict) -> str:
    kind = record["request"][0]
    value = record["value"]
    if kind == "kl" and not overlaps(record["closed"], value):
        return "KL closed and direct routes do not overlap"
    if kind == "zeta" and not overlaps(record["product"], value):
        return "zeta product and sum routes do not overlap"
    if kind == "total_mass" and not value[0] <= 1.0 <= value[1]:
        return "total mass enclosure misses 1"
    if kind == "entropy" and not value[1] - value[0] <= record["target"]:
        return "entropy enclosure wider than eps"
    return ""


def check_library(record: dict, refs: dict) -> dict:
    request = record["request"]
    ref = refs["library"][request_key(request)]
    if record["outcome"] == "refused":
        if ref.get("refused"):
            return _verdict("expected_refusal", reason=record["diagnostic"])
        return _verdict("refused", reason=record["diagnostic"])
    if ref.get("refused"):
        return _verdict("wrong", reason="answered a request that must be refused")
    if request[0] == "oracle":
        from clentropy import AbelianPGroup, aut_order_block_formula

        group = AbelianPGroup(request[1], tuple(request[2]))
        counts = {record["count"], ref["count"], group.aut_order, aut_order_block_formula(group)}
        if len(counts) != 1:
            return _verdict("wrong", reason=f"brute force, reference, Macdonald and "
                                            f"Hillar-Rhea disagree: {sorted(counts)}")
        return _verdict("answer")
    for key in ("value", "closed", "product"):
        if key in ref and not overlaps(record[key], ref[key]):
            return _verdict("wrong", reason=f"{key} {record[key]} does not overlap "
                                            f"reference {ref[key]}")
    problem = _library_cross_check(record)
    if problem:
        return _verdict("wrong", reason=problem)
    widths = None
    if record.get("target"):
        widths = (record["value"][1] - record["value"][0], ref["value"][1] - ref["value"][0],
                  record["target"])
    return _verdict("answer", widths=widths)
