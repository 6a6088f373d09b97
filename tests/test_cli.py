"""Command-line interface: record formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clentropy import Interval, cli


def run_main(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_main_expect_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2
    return err


# ---------------------------------------------------------------- happy paths


def record_interval(record) -> Interval:
    return Interval(record["value_lo"], record["value_hi"])


def test_entropy_json_record_shape(capsys, decimal_interval):
    code, out, _ = run_main(["entropy", "--p", "2", "--u", "0", "--eps", "1e-3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert list(record) == [
        "command", "p", "u", "eps", "value_lo", "value_hi",
        "truncation_level", "tail_bound", "status",
    ]
    assert record["command"] == "entropy"
    assert record["p"] == 2 and record["u"] == 0
    assert record["status"] == "ok"
    assert record_interval(record).overlaps(decimal_interval("2.00303634925"))
    assert record["value_hi"] - record["value_lo"] <= 1e-3


def test_entropy_accepts_comma_lists(capsys):
    code, out, _ = run_main(
        ["entropy", "--p", "2,3", "--u", "0,1", "--eps", "1e-2"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["p"], r["u"]) for r in records] == [(2, 0), (2, 1), (3, 0), (3, 1)]


def test_float_fields_roundtrip_through_json(capsys):
    _, out, _ = run_main(["entropy", "--p", "3", "--u", "2", "--eps", "1e-4"], capsys)
    record = json.loads(out)
    # 17 significant digits reproduce the exact binary doubles
    assert format(record["value_lo"], ".17g") in out
    assert format(record["value_hi"], ".17g") in out


def test_kl_both_modes_report_overlap(capsys, decimal_interval):
    code, out, _ = run_main(
        ["kl", "--p", "2", "--u1", "0", "--u2", "1", "--mode", "both"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["mode"] for r in records] == ["closed", "direct"]
    assert all(r["overlap"] is True for r in records)
    closed = records[0]
    assert record_interval(closed).overlaps(decimal_interval("0.420529034356046"))


def test_kl_single_mode_has_no_overlap_field(capsys):
    _, out, _ = run_main(
        ["kl", "--p", "2", "--u1", "1", "--u2", "1", "--mode", "closed"], capsys
    )
    record = json.loads(out)
    assert "overlap" not in record


def test_table_row_count_and_content(capsys):
    code, out, _ = run_main(
        ["table", "--p", "2", "--u", "0", "--max-order-exponent", "3"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 7  # 1 + 1 + 2 + 3 partitions through n = 3
    assert records[0]["partition"] == []
    assert records[-1]["partition"] == [1, 1, 1]
    assert all(r["measure_lo"] <= r["measure_hi"] for r in records)
    assert sum(r["measure_hi"] for r in records) < 1.0
    aut_by_partition = {tuple(r["partition"]): r["aut_order"] for r in records}
    assert aut_by_partition[(2, 1)] == 8
    assert aut_by_partition[(1, 1, 1)] == 168


def test_zeta_all_modes(capsys):
    code, out, _ = run_main(
        ["zeta", "--p", "2", "--k", "3", "--s", "1"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["mode"] for r in records] == ["product", "sum", "derivative"]
    assert all(r["overlap"] is True for r in records[:2])
    product = records[0]
    assert product["value_lo"] <= 512 / 315 <= product["value_hi"]


def test_zeta_infinite_level_product(capsys, decimal_interval):
    code, out, _ = run_main(
        ["zeta", "--p", "2", "--k", "inf", "--s", "0", "--mode", "product"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["k"] == -1  # sentinel for the infinite level
    assert record_interval(record).overlaps(decimal_interval("3.46274661945506361"))


# ----------------------------------------------------------------- csv output


def test_csv_round_trips_against_json(capsys):
    args = ["table", "--p", "3", "--u", "1", "--max-order-exponent", "2"]
    _, json_out, _ = run_main(args + ["--format", "json"], capsys)
    _, csv_out, _ = run_main(args + ["--format", "csv"], capsys)
    json_records = [json.loads(line) for line in json_out.splitlines()]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(json_records) == 4
    for row, record in zip(rows, json_records):
        assert int(row["p"]) == record["p"]
        assert row["partition"] == "+".join(str(x) for x in record["partition"])
        assert float(row["measure_lo"]) == record["measure_lo"]
        assert float(row["measure_hi"]) == record["measure_hi"]
        assert int(row["aut_order"]) == record["aut_order"]


# ---------------------------------------------------------------- exit codes


def test_nonprime_p_is_a_usage_error(capsys):
    err = run_main_expect_usage_error(["entropy", "--p", "4", "--u", "0"], capsys)
    assert "4 is not prime" in err


def test_usage_errors(capsys):
    err = run_main_expect_usage_error(["entropy", "--p", "2", "--u", "-1.5"], capsys)
    assert "unit-rank" in err
    err = run_main_expect_usage_error(
        ["entropy", "--p", "2", "--u", "0", "--eps", "1e-13"], capsys
    )
    assert "--eps" in err
    err = run_main_expect_usage_error(["entropy", "--p", "101", "--u", "0"], capsys)
    assert "97" in err
    err = run_main_expect_usage_error(
        ["zeta", "--p", "2", "--k", "inf", "--s", "0", "--mode", "sum"], capsys
    )
    assert "finite" in err
    err = run_main_expect_usage_error(
        ["table", "--p", "2", "--u", "0", "--max-order-exponent", "21"], capsys
    )
    assert "max-order-exponent" in err
    for n_max in ("0", "-3", "21", "60"):
        err = run_main_expect_usage_error(["verify", "--suite", "lemma1", "--n-max", n_max], capsys)
        assert "--n-max must lie in [1, 20]" in err, n_max
    err = run_main_expect_usage_error(["zeta", "--p", "2", "--k", "3", "--s", "0", "--N", "20"], capsys)
    assert "unrecognized arguments: --N 20" in err
    for argv in (
        ["entropy", "--p", "2", "--u", "401"],
        ["kl", "--p", "97", "--u1", "1e15", "--u2", "0"],
        ["kl", "--p", "97", "--u1", "0", "--u2", "1e7"],
        ["table", "--p", "2", "--u", "400.5", "--max-order-exponent", "4"],
        ["zeta", "--p", "2", "--k", "3", "--s", "1e4"],
    ):
        err = run_main_expect_usage_error(argv, capsys)
        assert f"must be at most {cli.MAX_UNIT_RANK}, got" in err, argv
    for argv in (
        ["entropy", "--p", "2", "--u", "inf"],
        ["kl", "--p", "2", "--u1", "0", "--u2", "inf"],
        ["table", "--p", "2", "--u", "inf", "--max-order-exponent", "4"],
        ["zeta", "--p", "2", "--k", "3", "--s", "inf"],
    ):
        err = run_main_expect_usage_error(argv, capsys)
        assert "finite and > -1, got inf" in err, argv


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--u", ["entropy", "--p", "2", "--u", "-1e-05", "--eps", "1e-3"]),
        ("--u", ["entropy", "--p", "2", "--u", "-0.5,-1e-05", "--eps", "1e-3"]),
        ("--u1", ["kl", "--p", "2", "--u1", "-1e-05", "--u2", "0"]),
        ("--u2", ["kl", "--p", "3", "--u1", "0", "--u2", "-2.5E-1"]),
        ("--u", ["table", "--p", "2", "--u", "-1e-05", "--max-order-exponent", "2"]),
        ("--s", ["zeta", "--p", "2", "--k", "3", "--s", "-1e-05"]),
        ("--s", ["zeta", "--p", "5", "--k", "inf", "--s", "-.5", "--mode", "product"]),
    ],
    ids=["entropy", "entropy-list", "kl-u1", "kl-u2", "table", "zeta", "zeta-inf"],
)
def test_negative_unit_rank_is_read_as_the_value(flag, argv, capsys):
    at = argv.index(flag)
    joined = argv[:at] + [f"{flag}={argv[at + 1]}"] + argv[at + 2:]
    code, out, _ = run_main(argv, capsys)
    assert (code, out) == run_main(joined, capsys)[:2]
    assert code == 0 and out


def test_negative_unit_rank_out_of_range_names_the_bound(capsys):
    err = run_main_expect_usage_error(["entropy", "--p", "2", "--u", "-1e5"], capsys)
    assert "unit-rank must be finite and > -1, got -100000" in err
    err = run_main_expect_usage_error(["kl", "--p", "2", "--u1", "0", "--u2", "-1.5e0"], capsys)
    assert "unit-rank must be finite and > -1, got -1.5" in err


def test_refusal_emits_single_record_and_exit_3(capsys):
    code, out, _ = run_main(["entropy", "--p", "2", "--u", "-0.99", "--eps", "1e-12"], capsys)
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1  # buffered: no partial results before the refusal
    record = json.loads(lines[0])
    assert record["status"] == "refused"
    assert record["command"] == "entropy"
    assert record["diagnostic"]


NEXT_TO_MINUS_ONE = repr(math.nextafter(-1.0, 0.0))


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--p", "2", "--u", NEXT_TO_MINUS_ONE],
        ["kl", "--p", "2", "--u1", NEXT_TO_MINUS_ONE, "--u2", "0"],
        ["kl", "--p", "2", "--u1", "0", "--u2", NEXT_TO_MINUS_ONE, "--mode", "direct"],
        ["kl", "--p", "47", "--u1", NEXT_TO_MINUS_ONE, "--u2", NEXT_TO_MINUS_ONE, "--mode", "closed"],
        ["zeta", "--p", "2", "--k", "3", "--s", NEXT_TO_MINUS_ONE],
        ["zeta", "--p", "2", "--k", "inf", "--s", NEXT_TO_MINUS_ONE],
        ["zeta", "--p", "47", "--k", "3", "--s", NEXT_TO_MINUS_ONE, "--mode", "derivative"],
        ["table", "--p", "2", "--u", NEXT_TO_MINUS_ONE, "--max-order-exponent", "2"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
)
def test_unit_rank_within_rounding_of_minus_one_refuses(argv, capsys):
    code, out, _ = run_main(argv, capsys)
    assert code == 3
    (line,) = out.splitlines()
    record = json.loads(line)
    assert record["status"] == "refused" and record["command"] == argv[0]
    assert record["diagnostic"].endswith("the unit-rank is too close to -1")


def test_verification_failure_gives_exit_4(capsys, monkeypatch):
    # wire-level check of the exit code: substitute one failing suite
    failed = {
        "command": "verify", "suite": "margins", "checks": 3, "failures": 1,
        "status": "failed", "counterexample": "stub",
    }
    monkeypatch.setattr(cli, "_verify_margins", lambda: failed)
    code, out, _ = run_main(["verify", "--suite", "margins"], capsys)
    assert code == 4
    assert json.loads(out)["status"] == "failed"


# -------------------------------------------------------------- verification


def test_verify_all_suites_pass(capsys):
    code, out, _ = run_main(["verify", "--suite", "all"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["suite"] for r in records] == [
        "lemma1", "exceptions", "monotone", "hall", "zeta", "margins",
    ]
    assert all(r["status"] == "ok" for r in records)
    assert all(r["failures"] == 0 for r in records)
    assert sum(r["checks"] for r in records) > 500


# -------------------------------------------------------------- determinism


def _run_subprocess(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "clentropy.cli", *args],
        capture_output=True, env=env, timeout=300,
    )


def test_byte_identical_output_across_processes():
    args = ["entropy", "--p", "2,3", "--u", "0,1", "--eps", "1e-4"]
    first = _run_subprocess(args, "0")
    second = _run_subprocess(args, "12345")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_reserved_flags_do_not_change_output(capsys):
    base_args = ["kl", "--p", "3", "--u1", "0", "--u2", "1", "--mode", "closed"]
    _, plain, _ = run_main(base_args, capsys)
    _, seeded, _ = run_main(base_args + ["--seed", "7", "--threads", "4"], capsys)
    assert plain == seeded


# ------------------------------------------------------------ fuzz the box

PRIMES_TO_97 = [q for q in range(2, cli.MAX_PRIME + 1) if all(q % d for d in range(2, q))]


@st.composite
def advertised_requests(draw):
    """One request from the advertised box: p <= 97, -1 < u <= MAX_UNIT_RANK,
    eps in [1e-12, 1e-1].  Unit-ranks go as separate tokens, so a negative
    one with an exponent, such as -1e-05, must still read as a value."""
    p = str(draw(st.sampled_from(PRIMES_TO_97)))

    def rank():
        u = draw(st.one_of(
            st.floats(-1.0, float(cli.MAX_UNIT_RANK), exclude_min=True),
            st.floats(-1.0, 3.0, exclude_min=True),
            st.integers(0, cli.MAX_UNIT_RANK).map(float),
        ))
        return repr(u)

    command = draw(st.sampled_from(["entropy", "kl", "zeta", "table"]))
    if command == "entropy":
        eps = draw(st.floats(cli.EPS_MIN, cli.EPS_MAX))
        return ["entropy", "--p", p, "--u", rank(), "--eps", repr(eps)]
    if command == "kl":
        mode = draw(st.sampled_from(["closed", "direct", "both"]))
        return ["kl", "--p", p, "--u1", rank(), "--u2", rank(), "--mode", mode]
    if command == "zeta":
        k = draw(st.sampled_from(["inf"] + [str(k) for k in range(1, 9)]))
        modes = ["product"] if k == "inf" else ["product", "sum", "derivative", "all"]
        return ["zeta", "--p", p, "--k", k, "--s", rank(), "--mode", draw(st.sampled_from(modes))]
    exponent = str(draw(st.integers(0, 4)))
    return ["table", "--p", p, "--u", rank(), "--max-order-exponent", exponent]


@settings(max_examples=300, deadline=None)
@given(advertised_requests())
@example(["entropy", "--p", "2", "--u", NEXT_TO_MINUS_ONE, "--eps", "1e-12"])
@example(["entropy", "--p", "97", "--u", repr(-1 + 1e-12), "--eps", "1e-12"])
@example(["kl", "--p", "47", "--u1", NEXT_TO_MINUS_ONE, "--u2", NEXT_TO_MINUS_ONE, "--mode", "both"])
@example(["kl", "--p", "2", "--u1", repr(-1 + 1e-12), "--u2", "400", "--mode", "both"])
@example(["zeta", "--p", "97", "--k", "8", "--s", repr(-1 + 1e-12), "--mode", "all"])
@example(["table", "--p", "97", "--u", "400", "--max-order-exponent", "4"])
def test_advertised_box_answers_or_refuses_with_one_record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert code in (0, 3), argv
    if code == 3:
        assert [r["status"] for r in records] == ["refused"], argv
    else:
        assert records and all(r["status"] == "ok" for r in records), argv
