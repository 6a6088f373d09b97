"""Exception types shared across the library."""


class IntervalDomainError(ValueError):
    """An interval operation was applied outside its domain.

    Raised for division by an interval containing zero, logarithms of
    intervals touching the nonpositive axis, and similar misuses.  These
    indicate a caller bug, never a truncation problem.
    """


class RefusalError(RuntimeError):
    """A certified computation declined to answer rather than guess.

    The message always says why (budget exceeded, precondition outside the
    certifiable range, ...).  Callers that can retry with different depth
    parameters may catch this; the CLI maps it to exit code 3.
    """


class TailClosureError(RefusalError):
    """A geometric tail closure failed (ratio >= 1 at the attempted depth).

    Carries enough context in the message to diagnose which sum and which
    truncation level were involved.
    """


def too_close_to_minus_one(p: int) -> RefusalError:
    """The refusal for a unit-rank within rounding of -1, where
    1 - p^-(u+1) cannot be certified positive."""
    return RefusalError(f"1 - p^-(u+1) is not certified positive at p={p}: "
                        "the unit-rank is too close to -1")
