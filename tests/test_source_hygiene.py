"""Import hygiene of the package sources, checked on their syntax trees.

No module reaches into another module's private names (``_``-prefixed),
whether at module level or inside a function body, and no module-level
import goes unused.  Partition enumeration (``iter_partitions``) is read
only by ``measures.py``, where it is the independent oracle of the
level-statistics DP; ``__init__.py`` re-exports it for users.  Likewise
``level_stats`` (the DP's level statistics) is read only by ``measures.py``
and re-exported by ``__init__.py``: every series is summed by rank, so the
DP can be deleted without touching another module's code.  And
``bound_series_tail`` (the partition-count strip tail) is read only by
``measures.py``, for the Hall sums: the definition-route entropy closes
its tail with Hall's level sum instead.  The two exhaustive automorphism
counts in ``groups.py`` stay independent routes: of the module's names,
they share only the refusal (``RefusalError``, ``BRUTEFORCE_MAX_ORDER``),
counting the names the module's own functions they call read.  The closed
entropy sandwich (``entropy_bounds``) is a third entropy route: it reads
neither the rank chain nor any partition listing, and ``entropy.py`` no
longer imports the Hall sums.  No ``Record`` subclass writes its own
``__eq__`` or ``__hash__``: both come from ``numerics.Record``, over the
record's ``_fields``.  There is no linter in the toolchain, so this is the
gate.  A name counts as used when
it is loaded anywhere in the module or listed in a literal ``__all__``.

numpy and mpmath are imported only inside the functions that need them:
numpy alone costs tens of milliseconds, a large share of a cold CLI call
that never touches it.  For the same reason no module imports
``dataclasses`` (it loads ``inspect``, ``ast``, ``dis`` and ``tokenize``),
importing the package loads no module until one of its names is read, and
a CLI subcommand loads only the modules it runs.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "clentropy"
MODULES = sorted(SRC.glob("*.py"))
# partitions.py defines it, measures.py holds the oracle, __init__ re-exports
ENUMERATION_ALLOWED = {"partitions.py", "measures.py", "__init__.py"}
# measures.py defines them, __init__ re-exports
LEVEL_STATS_ALLOWED = {"measures.py", "__init__.py"}
STRIP_TAIL_ALLOWED = {"measures.py", "__init__.py"}
EXHAUSTIVE_ROUTES = ("aut_order_bruteforce", "aut_order_generating_tuples")
ROUTES_MAY_SHARE = {"RefusalError", "BRUTEFORCE_MAX_ORDER"}
HEAVY_IMPORTS = {"numpy", "mpmath"}
SANDWICH_MAY_NOT_READ = {"RankChain", "rank_series", "level_stats_by_enumeration",
                         "hall_sum_partial", "hall_tail_bounds", "iter_partitions"}
HALL_SUMS = ("hall_sum_partial", "hall_tail_bounds")
# numerics.Record defines both over ``_fields``; its subclasses inherit them
RECORD_EQUALITY = {"__eq__", "__hash__"}


def private_imports(tree: ast.Module) -> list[str]:
    """Private names imported from the package, at any depth."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "clentropy")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports never loaded and not re-exported."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def name_reads(tree: ast.Module, name: str) -> list[str]:
    """Imports of ``name`` and attribute reads of it, at any depth."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom)
            and any(alias.name == name for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


def module_names_read(tree: ast.Module, function: str) -> set[str]:
    """Module-level names the function reads, and transitively those read
    by the module-level functions it reads.  Annotations are not evaluated
    (``from __future__ import annotations``), so they are not reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name.split(".")[0], None) for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((n.id, None) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    found, pending = set(), [function]
    while pending:
        loaded, local, nodes = set(), set(), [defined[pending.pop()]]
        while nodes:
            node = nodes.pop()
            if isinstance(node, ast.Name):
                (loaded if isinstance(node.ctx, ast.Load) else local).add(node.id)
            elif isinstance(node, ast.arg):
                local.add(node.arg)
            elif isinstance(node, ast.alias):
                local.add(node.asname or node.name.split(".")[0])
            elif isinstance(node, ast.FunctionDef):
                local.add(node.name)
            for field, value in ast.iter_fields(node):
                if field not in ("annotation", "returns"):
                    values = value if isinstance(value, list) else [value]
                    nodes += [child for child in values if isinstance(child, ast.AST)]
        new = {name for name in loaded - local if name in defined} - found
        found |= new
        pending += [name for name in new if isinstance(defined[name], ast.FunctionDef)]
    return found


def shared_route_names(tree: ast.Module) -> set[str]:
    """Module-level names both exhaustive automorphism routes read, beyond
    the refusal they may share."""
    first, second = (module_names_read(tree, name) for name in EXHAUSTIVE_ROUTES)
    return (first & second) - ROUTES_MAY_SHARE


def eager_imports(tree: ast.Module) -> list[str]:
    """Imports of numpy or mpmath that run when the module is imported."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[0] in HEAVY_IMPORTS
        ]
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ENUMERATION_ALLOWED], ids=lambda p: p.name
)
def test_partition_enumeration_only_in_the_oracle(path):
    assert name_reads(ast.parse(path.read_text()), "iter_partitions") == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in LEVEL_STATS_ALLOWED], ids=lambda p: p.name
)
def test_level_stats_read_only_by_measures(path):
    assert name_reads(ast.parse(path.read_text()), "level_stats") == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in STRIP_TAIL_ALLOWED], ids=lambda p: p.name
)
def test_bound_series_tail_read_only_by_measures(path):
    assert name_reads(ast.parse(path.read_text()), "bound_series_tail") == []


def test_checks_catch_local_private_and_unused_imports():
    tree = ast.parse(
        "import os\n"
        "from .numerics import ONE, ZERO\n"
        "__all__ = ['ZERO']\n"
        "def f():\n"
        "    from .measures import _hidden\n"
        "    return ONE\n"
    )
    assert private_imports(tree) == ["line 5: _hidden"]
    assert unused_imports(tree) == ["line 1: os"]


def test_check_catches_partition_enumeration():
    tree = ast.parse(
        "from . import partitions\n"
        "def f(n):\n"
        "    from .partitions import iter_partitions\n"
        "    return list(partitions.iter_partitions(n))\n"
    )
    assert name_reads(tree, "iter_partitions") == ["line 3", "line 4"]
    tree = ast.parse(
        "from .measures import level_stats_by_enumeration\n"
        "from . import measures\n"
        "def f(n):\n"
        "    from .measures import level_stats\n"
        "    return measures.level_stats(2, n)\n"
    )
    assert name_reads(tree, "level_stats") == ["line 4", "line 5"]
    tree = ast.parse(
        "from .measures import (\n"
        "    CLParams,\n"
        "    bound_series_tail,\n"
        ")\n"
        "from . import measures\n"
        "def tail(p, N, coeffs, scale):\n"
        "    return measures.bound_series_tail(p, 1, N, coeffs, scale)\n"
    )
    assert name_reads(tree, "bound_series_tail") == ["line 1", "line 7"]


def test_exhaustive_automorphism_routes_share_only_the_refusal():
    tree = ast.parse((SRC / "groups.py").read_text())
    # the guard sees through the helpers each route calls
    assert {"bruteforce_hom_count", "span_table"} <= module_names_read(tree, EXHAUSTIVE_ROUTES[0])
    assert ROUTES_MAY_SHARE <= module_names_read(tree, EXHAUSTIVE_ROUTES[1])
    assert shared_route_names(tree) == set()


def test_check_catches_shared_route_helpers():
    tree = ast.parse(
        "from .errors import RefusalError\n"
        "from .partitions import Partition\n"
        "BRUTEFORCE_MAX_ORDER = 256\n"
        "LEVELS = 3\n"
        "def closure(a, levels=LEVELS):\n"
        "    return a\n"
        "def helper(a):\n"
        "    return closure(a)\n"
        "def aut_order_bruteforce(a: Partition) -> int:\n"
        "    if a > BRUTEFORCE_MAX_ORDER:\n"
        "        raise RefusalError('too big')\n"
        "    return helper(a)\n"
        "def aut_order_generating_tuples(a: Partition, helper=None) -> int:\n"
        "    if a > BRUTEFORCE_MAX_ORDER:\n"
        "        raise RefusalError('too big')\n"
        "    return closure(a) + (helper or 0)\n"
    )
    # a shared helper reached through another, and the constant it reads;
    # annotations and a parameter shadowing a module name do not count
    assert module_names_read(tree, "aut_order_generating_tuples") == {
        "BRUTEFORCE_MAX_ORDER", "RefusalError", "closure", "LEVELS"}
    assert shared_route_names(tree) == {"closure", "LEVELS"}


def test_entropy_sandwich_reads_no_chain_and_no_listing():
    tree = ast.parse((SRC / "entropy.py").read_text())
    # the guard sees the entropy module's own chain reader
    assert "RankChain" in module_names_read(tree, "entropy")
    assert module_names_read(tree, "entropy_bounds") & SANDWICH_MAY_NOT_READ == set()
    assert [name_reads(tree, name) for name in HALL_SUMS] == [[], []]


def test_check_catches_a_sandwich_reading_the_chain():
    tree = ast.parse(
        "from .measures import RankChain, hall_sum_partial, normalizing_constant\n"
        "def helper(params):\n"
        "    return RankChain(params)\n"
        "def entropy_bounds(params):\n"
        "    return helper(params), normalizing_constant(params)\n"
    )
    assert module_names_read(tree, "entropy_bounds") & SANDWICH_MAY_NOT_READ == {"RankChain"}
    assert [name_reads(tree, name) for name in HALL_SUMS] == [["line 1"], []]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_and_mpmath_imported_lazily(path):
    assert eager_imports(ast.parse(path.read_text())) == []


def test_check_catches_eager_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "try:\n"
        "    from mpmath import iv\n"
        "except ImportError:\n"
        "    iv = None\n"
        "def f():\n"
        "    import numpy\n"
        "    return numpy\n"
    )
    assert eager_imports(tree) == ["line 1: numpy", "line 3: mpmath"]


def test_package_import_leaves_numpy_and_mpmath_unloaded():
    # the star import reads every name, so it loads every module
    assert loaded_after("from clentropy import *", ("numpy", "mpmath")) == []


def dataclass_imports(tree: ast.Module) -> list[str]:
    """Imports of ``dataclasses``, at any depth."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "dataclasses")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclass_imports(ast.parse(path.read_text())) == []


def test_check_catches_dataclasses():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses as dc\n"
        "from .dataclasses import local\n"
        "def f():\n"
        "    import dataclasses\n"
        "    return dataclasses\n"
    )
    assert dataclass_imports(tree) == ["line 1", "line 2", "line 5"]


def record_equality_overrides(tree: ast.Module) -> list[str]:
    """``__eq__`` or ``__hash__`` defined by a ``Record`` subclass."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and any(ast.unparse(base).split(".")[-1] == "Record" for base in node.bases)):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [f"line {item.lineno}: {node.name}.{name}"
                      for name in names if name in RECORD_EQUALITY]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_inherit_equality(path):
    assert record_equality_overrides(ast.parse(path.read_text())) == []


def test_check_catches_record_equality_overrides():
    tree = ast.parse(
        "from . import numerics\n"
        "from .numerics import Record\n"
        "class Plain:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class Params(Record):\n"
        "    _fields = ('p',)\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class Report(numerics.Record):\n"
        "    __hash__ = None\n"
    )
    assert record_equality_overrides(tree) == ["line 8: Params.__eq__", "line 11: Report.__hash__"]


def probe(statements: str, expression: str):
    """The value of ``expression`` in a fresh interpreter (without ``site``)
    after running ``statements``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import contextlib, io, sys\n{statements}\nprint(repr({expression}))\n"],
        cwd=SRC.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def loaded_after(statements: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` are loaded after running ``statements``."""
    return probe(statements, f"sorted(name for name in {names!r} if name in sys.modules)")


def test_package_import_loads_no_module():
    exported = tuple(f"clentropy.{path.stem}" for path in MODULES
                     if path.stem not in ("__init__", "cli"))
    assert loaded_after("import clentropy", exported) == []
    # the first name read loads them all, outside the caller's later calls
    assert loaded_after("import clentropy\nclentropy.Interval", exported) == sorted(exported)


def test_cli_import_loads_no_subcommand_module():
    heavy = ("dataclasses", "inspect", "csv", "typing", "clentropy.entropy", "clentropy.zeta")
    assert loaded_after("import clentropy.cli", heavy) == []


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["entropy", "--p", "2", "--u", "1", "--eps", "1e-4"], "clentropy.zeta"),
        (["kl", "--p", "2", "--u1", "0", "--u2", "1"], "clentropy.entropy"),
        (["zeta", "--p", "3", "--k", "2", "--s", "0.5"], "clentropy.entropy"),
        (["table", "--p", "2", "--u", "0", "--max-order-exponent", "3"], "clentropy.entropy"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
def test_cli_subcommand_loads_only_its_modules(argv, absent):
    run = (
        "from clentropy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert loaded_after(run, (absent, "csv", "dataclasses")) == []


EXPORTS = """
AbelianPGroup AutBoundReport CLParams CertifiedValue EntropyResult Interval
IntervalDomainError RefusalError TailClosureError ZetaParams
aut_order_block_formula aut_order_bruteforce aut_order_generating_tuples
aut_order_parts auto_product_depth bound_series_tail check_aut_lower_bound
check_decreasing_inequality cl_measure cross_entropy_direct dual_partition
entropy entropy_bounds entropy_by_definition enumerate_partitions
exceptional_margins hall_sum_partial hall_tail_bounds is_partition is_prime
iter_partitions iv_div iv_log iv_mul iv_point kl_closed kl_direct level_stats
normalizing_constant partition_count pow_le scan_exceptions total_mass
weighted_log_term zeta_log_derivative zeta_product zeta_sum
""".split()


def test_package_namespace_resolves_every_export():
    import clentropy

    assert clentropy.__all__ == EXPORTS
    star = {}
    exec("from clentropy import *", star)
    for name in clentropy.__all__:
        obj = getattr(clentropy, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("clentropy.") and vars(home)[name] is obj, name
        assert star[name] is obj, name
    assert set(clentropy.__all__) <= set(dir(clentropy))
    assert "__version__" in dir(clentropy)
    with pytest.raises(AttributeError, match=r"^module 'clentropy' has no attribute 'nope'$"):
        clentropy.nope


def test_submodule_entropy_does_not_hide_the_function():
    # The CLI loads clentropy.entropy before any package name is read.
    loaded_first = (
        "import clentropy.entropy\n"
        "home = sys.modules['clentropy.entropy']\n"
        "import clentropy\n"
    )
    assert probe(loaded_first, "clentropy.entropy is home.entropy") is True
    assert probe(loaded_first, "clentropy.measures is sys.modules['clentropy.measures']") is True
