"""The value-record contract of the six public record classes.

``CLParams``, ``ZetaParams``, ``AbelianPGroup``, ``AutBoundReport``,
``CertifiedValue`` and ``EntropyResult`` are immutable values: built
positionally or by keyword, validated on construction, equal and hashed by
their fields (and only against their own class), shown by a
``Name(field=value, ...)`` repr, and closed to attribute assignment.
"""

import math

import pytest

from clentropy import (
    AbelianPGroup,
    AutBoundReport,
    CertifiedValue,
    CLParams,
    EntropyResult,
    Interval,
    ZetaParams,
)
from clentropy import groups

CV = CertifiedValue(Interval(0.5, 1.0), 3, 0.25)
CV_OTHER = CertifiedValue(Interval(0.5, 1.0), 4, 0.25)
H = CertifiedValue(Interval(0.25, 0.5), 3, 0.0)

# class -> (field names, one set of field values, the same values changed in
# the last field, the repr of the first)
RECORDS = {
    "CLParams": (
        CLParams, ("p", "u"), (3, -0.5), (3, 0.5), "CLParams(p=3, u=-0.5)"),
    "ZetaParams": (
        ZetaParams, ("p", "k", "s"), (2, 3, 0.5), (2, 3, 1.5),
        "ZetaParams(p=2, k=3, s=0.5)"),
    "AbelianPGroup": (
        AbelianPGroup, ("p", "lambda_prime"), (2, (2, 1)), (2, (2, 2)),
        "AbelianPGroup(p=2, lambda_prime=(2, 1))"),
    "AutBoundReport": (
        AutBoundReport, ("lower_bound_ok", "rank2_bound_ok"), (True, None),
        (True, False), "AutBoundReport(lower_bound_ok=True, rank2_bound_ok=None)"),
    "CertifiedValue": (
        CertifiedValue, ("value", "truncation_level", "tail_bound"),
        (Interval(0.5, 1.0), 3, 0.25), (Interval(0.5, 1.0), 3, 0.5),
        "CertifiedValue(value=Interval(0.5, 1.0), truncation_level=3, tail_bound=0.25)"),
    "EntropyResult": (
        EntropyResult, ("params", "H", "minus_log_fu", "weighted_sum"),
        (CLParams(2, 1), H, Interval(0.0, 0.125), CV),
        (CLParams(2, 1), H, Interval(0.0, 0.125), CV_OTHER),
        "EntropyResult(params=CLParams(p=2, u=1), "
        "H=CertifiedValue(value=Interval(0.25, 0.5), truncation_level=3, tail_bound=0.0), "
        "minus_log_fu=Interval(0.0, 0.125), "
        "weighted_sum=CertifiedValue(value=Interval(0.5, 1.0), truncation_level=3, "
        "tail_bound=0.25))"),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_positional_and_keyword_construction_agree(record):
    cls, fields, values, _, _ = record
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    assert positional == keyword
    assert [getattr(positional, f) for f in fields] == list(values)
    with pytest.raises(TypeError):
        cls(*values, None)


def test_equality_and_hash_follow_the_fields(record):
    cls, _, values, changed, _ = record
    a, b, c = cls(*values), cls(*values), cls(*changed)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert a != values  # a plain tuple of the fields is another value
    assert all(a != cls(*changed) for cls, _, _, changed, _ in RECORDS.values())


def test_repr_is_the_class_with_its_fields(record):
    cls, _, values, _, text = record
    assert repr(cls(*values)) == text


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, fields, values, _, _ = record
    instance = cls(*values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(instance, field, values[0])
        with pytest.raises(AttributeError):
            delattr(instance, field)
    with pytest.raises(AttributeError):
        instance.extra = 1
    assert [getattr(instance, f) for f in fields] == list(values)


def test_integral_unit_rank_and_evaluation_point_become_int():
    assert type(CLParams(2, 2.0).u) is int and CLParams(2, 2.0).u == 2
    assert type(CLParams(2, -0.0).u) is int
    assert type(CLParams(2, -0.5).u) is float
    assert CLParams(2, 2.0) == CLParams(2, 2) and hash(CLParams(2, 2.0)) == hash(CLParams(2, 2))
    assert repr(CLParams(2, 2.0)) == "CLParams(p=2, u=2)"
    assert type(ZetaParams(2, 1, 2.0).s) is int and ZetaParams(2, 1, 2.0).s == 2
    assert type(ZetaParams(2, None, 0.5).s) is float
    assert repr(ZetaParams(2, None, 1.0)) == "ZetaParams(p=2, k=None, s=1)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CLParams(6, 0), "6 is not prime"),
        (lambda: CLParams(2, True), "unit-rank must be a real number, got True"),
        (lambda: CLParams(2, "1"), "unit-rank must be a real number, got '1'"),
        (lambda: CLParams(2, -1), "unit-rank must be finite and > -1, got -1"),
        (lambda: CLParams(2, math.nan), "unit-rank must be finite and > -1, got nan"),
        (lambda: ZetaParams(4, 1, 0), "4 is not prime"),
        (lambda: ZetaParams(2, 0, 0), "level must be a positive integer or None, got 0"),
        (lambda: ZetaParams(2, True, 0), "level must be a positive integer or None, got True"),
        (lambda: ZetaParams(2, 1.0, 0), "level must be a positive integer or None, got 1.0"),
        (lambda: ZetaParams(2, 1, False), "evaluation point must be real, got False"),
        (lambda: ZetaParams(2, 1, -1.0),
         "evaluation point must be finite and > -1, got -1.0"),
        (lambda: ZetaParams(2, 1, math.inf),
         "evaluation point must be finite and > -1, got inf"),
        (lambda: AbelianPGroup(1, (1,)), "1 is not prime"),
        (lambda: AbelianPGroup(2, (1, 2)), r"not a partition: \(1, 2\)"),
        (lambda: AbelianPGroup(2, (0,)), r"not a partition: \(0,\)"),
        (lambda: CertifiedValue(Interval(0, 1), -1, 0.0),
         "truncation_level must be nonnegative"),
        (lambda: CertifiedValue(Interval(0, 1), 0, -1e-9),
         "tail_bound must be a nonnegative float"),
        (lambda: CertifiedValue(Interval(0, 1), 0, math.nan),
         "tail_bound must be a nonnegative float"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_group_order_and_aut_order_are_computed_once(monkeypatch):
    calls = []

    def counting(p, parts):
        calls.append((p, parts))
        return 48

    monkeypatch.setattr(groups, "aut_order_parts", counting)
    group = AbelianPGroup(2, (2, 1))
    assert group.order == 8 and group.order == 8
    assert group.aut_order == 48 and group.aut_order == 48
    assert calls == [(2, (2, 1))]
    assert group.__dict__["order"] == 8 and group.__dict__["aut_order"] == 48
    assert group == AbelianPGroup(2, (2, 1))  # cached values are not fields
