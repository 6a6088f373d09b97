"""Certified computations with Cohen-Lenstra measures on finite abelian p-groups.

All numerical results are directed-rounding intervals (or exact rationals)
guaranteed to contain the true value; truncated sums carry certified tail
bounds.  When a certificate cannot be produced, functions raise
``RefusalError`` rather than return an unverified number.

Importing the package loads no module: the first read of a name below
loads them all.  So ``import clentropy.cli``, which reads no name here,
compiles only the modules the CLI imports itself.
"""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "entropy": (
        "EntropyResult",
        "check_decreasing_inequality",
        "entropy",
        "entropy_bounds",
        "entropy_by_definition",
        "exceptional_margins",
        "scan_exceptions",
        "weighted_log_term",
    ),
    "errors": ("IntervalDomainError", "RefusalError", "TailClosureError"),
    "groups": (
        "AbelianPGroup",
        "AutBoundReport",
        "aut_order_block_formula",
        "aut_order_bruteforce",
        "aut_order_generating_tuples",
        "aut_order_parts",
        "check_aut_lower_bound",
        "is_prime",
        "pow_le",
    ),
    "measures": (
        "CLParams",
        "auto_product_depth",
        "bound_series_tail",
        "cl_measure",
        "hall_sum_partial",
        "hall_tail_bounds",
        "level_stats",
        "normalizing_constant",
        "total_mass",
    ),
    "numerics": ("CertifiedValue", "Interval", "iv_div", "iv_log", "iv_mul", "iv_point"),
    "partitions": (
        "dual_partition",
        "enumerate_partitions",
        "is_partition",
        "iter_partitions",
        "partition_count",
    ),
    "zeta": (
        "ZetaParams",
        "cross_entropy_direct",
        "kl_closed",
        "kl_direct",
        "zeta_log_derivative",
        "zeta_product",
        "zeta_sum",
    ),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The first name read binds them all, as the eager imports did: a
    # long-lived caller pays every module load once, before its own work.
    for module, names in _EXPORTS.items():
        home = import_module(f".{module}", __name__)
        globals().update((export, getattr(home, export)) for export in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on the package; the submodule
        # ``entropy`` must not hide the function ``entropy``.
        if not (name in __all__ and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
