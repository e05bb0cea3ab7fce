"""Source hygiene: every name a module imports at top level is used in it,
every top-level function and class of the package and every non-dunder
method of its classes is used somewhere, those that only the tests use are
the listed TEST_ONLY ones, the package states no check as
an `assert`, `clear_caches` empties every cache the package fills (the
component tables of the natural transformations too), no cache wraps a
function without arguments, and
the package leaves `dataclasses` and `inspect` unimported, since every
CLI process would pay for them, and `networkx`, which only the tests use
as an independent oracle.

The package's `__init__.py` is exempt from the import rule, since its
imports are re-exports, and its re-exports do not count as uses. `python -O`
strips `assert` statements, so a check written as one would silently pass
there.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from stonekit import instances
from stonekit.catengine import NatTransInstance
from stonekit.instances import run_suite
from stonekit.memo import TABLES, clear_caches
from stonekit.order import Value

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "stonekit").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = SOURCES + TESTS
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list:
    """Top-level imported names that no expression in the module refers to."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_reported():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        "os",
        "e",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list:
    """Line numbers of the `assert` statements in a module."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_assert_is_reported():
    assert assert_lines("def f(x):\n    assert x, 'why'\n    return x\n") == [2]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_statements_in_the_package(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    """Top-level package of every module that an import anywhere in the
    source names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_imported_modules_are_reported():
    source = "import os.path\ndef f():\n    from a.b import c\n    from . import d\n"
    assert imported_modules(source) == {"os", "a"}


def sibling_modules(source: str) -> set:
    """The sibling modules that a relative import anywhere in the source
    names: `from .a import b` names a, `from . import c` names c."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module)
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_sibling_modules_are_reported():
    source = "from .a import b\nfrom . import c, d\ndef f():\n    from .e import g\nimport os\n"
    assert sibling_modules(source) == {"a", "c", "d", "e"}


def test_catengine_imports_only_memo_errors_and_order():
    # the category engine is generic: it needs the component memos, the
    # error types and the record base, and no module of lattices or spaces
    source = (ROOT / "src" / "stonekit" / "catengine.py").read_text(encoding="utf-8")
    assert sibling_modules(source) == {"memo", "errors", "order"}
    assert "stonekit" not in imported_modules(source)


def private_sibling_imports(source: str) -> list:
    """`module.name` for each `_`-prefixed name that a relative import
    anywhere in the source takes from a sibling module."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_sibling_import_is_reported():
    source = "from .a import _b, c\ndef f():\n    from .d import _e\nfrom os import _exit\n"
    assert private_sibling_imports(source) == ["a._b", "d._e"]


def test_no_module_imports_a_private_name_of_a_sibling():
    # order._unvalidated builds a value without its check, for values valid
    # by construction; every other private name stays inside its module
    found = [
        f"{path.stem}: {name}"
        for path in SOURCES
        for name in private_sibling_imports(path.read_text(encoding="utf-8"))
        if name != "order._unvalidated"
    ]
    assert found == []


def test_the_package_does_not_import_dataclasses():
    # the record classes derive from order.Value; dataclasses would pull
    # inspect, ast and tokenize into every CLI process
    importers = [
        p.name for p in PACKAGE if "dataclasses" in imported_modules(p.read_text("utf-8"))
    ]
    assert importers == []


def test_the_package_does_not_import_networkx():
    # networkx is an independent oracle of the tests (the `test` extra of
    # pyproject.toml), never a dependency of the package
    importers = [
        p.name for p in PACKAGE if "networkx" in imported_modules(p.read_text("utf-8"))
    ]
    assert importers == []


def uses_itertools_product(source: str) -> bool:
    """Whether the source takes `product` from itertools, by a from-import
    or as an attribute of the module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "product" for alias in node.names):
                return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "product"
            and isinstance(node.value, ast.Name)
            and node.value.id == "itertools"
        ):
            return True
    return False


def test_itertools_product_use_is_reported():
    assert uses_itertools_product("def f():\n    from itertools import chain, product\n")
    assert uses_itertools_product("import itertools\nx = itertools.product([1], [2])\n")
    assert not uses_itertools_product("from itertools import chain\nproduct = 1\n")


def test_only_order_loops_over_all_assignments():
    # order.monotone_maps is the one product-and-filter loop over maps:
    # continuous maps and lattice homs (through the Birkhoff dual) go
    # through it, so a second brute-force map loop cannot grow back
    users = [p.name for p in PACKAGE if uses_itertools_product(p.read_text("utf-8"))]
    assert users == ["order.py"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys, stonekit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"


def readme_tour() -> str:
    """The Python block of the README's library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour")) + 10
    return text[start : text.index("```", start)]


@pytest.mark.parametrize(
    "argv",
    [["demos/duality_tour.py"], ["demos/lifting_walkthrough.py"], ["-c", readme_tour()]],
    ids=["duality_tour", "lifting_walkthrough", "readme_tour"],
)
def test_the_demos_and_the_readme_tour_run(argv):
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def names_used(node: ast.AST, skip: ast.AST = None) -> set:
    """Every name and attribute that code under `node` refers to, outside
    the subtree `skip`."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _definitions(statement: ast.AST) -> list:
    """A top-level function or class, and the non-dunder methods of a class."""
    if isinstance(statement, ast.FunctionDef):
        return [statement]
    if not isinstance(statement, ast.ClassDef):
        return []
    return [statement] + [
        node
        for node in statement.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreferenced_definitions(package: dict, others: list) -> list:
    """Top-level functions and classes of the `package` modules (name ->
    source), and the non-dunder methods of those classes, that no code
    refers to outside their own definition, neither in a top-level
    statement of the package nor in the `others` sources, as `module.name`
    or `module.Class.method`. A method counts as used by the rest of its
    own class."""
    outside = set()
    for source in others:
        outside |= names_used(ast.parse(source))
    trees = {name: ast.parse(source) for name, source in package.items()}
    used_by = {}
    statements_using = Counter()
    for tree in trees.values():
        for node in tree.body:
            used_by[node] = names_used(node)
            statements_using.update(used_by[node])
    out = []
    for module, tree in trees.items():
        for statement in tree.body:
            for node in _definitions(statement):
                name = node.name
                elsewhere = statements_using[name] - (name in used_by[statement])
                in_class = node is not statement and name in names_used(statement, node)
                if not elsewhere and not in_class and name not in outside:
                    prefix = "" if node is statement else f"{statement.name}."
                    out.append(f"{module}.{prefix}{name}")
    return out


def test_unreferenced_definition_is_reported():
    package = {
        "a": "def used():\n    pass\n\ndef lonely(n):\n    return lonely(n - 1)\n",
        "b": "class Kept:\n    pass\n\ndef build():\n    return Kept()\n",
    }
    assert unreferenced_definitions(package, ["from a import used\nused()\n"]) == [
        "a.lonely",
        "b.build",
    ]


def test_unreferenced_method_is_reported():
    package = {
        "a": (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.helper()\n"
            "    def helper(self):\n"
            "        pass\n"
            "    def called(self):\n"
            "        pass\n"
            "    def lonely(self, n):\n"
            "        return self.lonely(n - 1)\n"
            "    @property\n"
            "    def read(self):\n"
            "        return 1\n"
            "    def __repr__(self):\n"
            "        return 'Box'\n"
            "\n"
            "def make():\n"
            "    return Box().called()\n"
        ),
    }
    assert unreferenced_definitions(package, ["from a import make\nmake().read\n"]) == [
        "a.Box.lonely",
    ]


def test_every_package_definition_is_used():
    package = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    others = [p.read_text(encoding="utf-8") for p in TESTS + DEMOS]
    assert unreferenced_definitions(package, others) == []


# the definitions that no demo, README tour step or code of the package
# uses, so only the tests reach them, each with the reason it stays; a new
# one is either listed here on purpose, used, or deleted
TEST_ONLY = {
    "catengine.require_laws": "public API: stop at the first failed law check",
    "dlat.is_distributive": "public API: the verdict of distributivity_witness",
    "dlat.LatticeHom.apply": "public API: a hom applied to an element name",
    "dlat.lattice_isomorphic": "public API: the verdict of lattice_isomorphism",
    "dlat.join_irreducibles": "public API: J(L), the Birkhoff dual poset, named",
    "dlat.homs_to_2": "twin: the characters read off prime_filters",
    "dlat.homs_to_2_bruteforce": "twin: the characters by the hom equations",
    "instances.coalgebra_structures": "acceptance-criterion helper: every coalgebra",
    "instances.is_proper_hom": "public API: properness as a coalgebra-morphism square",
    "instances.filter_algebra_structures": "acceptance-criterion helper: every F-algebra",
    "frame.WayBelowRelation.holds": "public API: way-below on element names",
    "memo.clear_caches": "public API: empty every cache and memo",
    "order.FinPoset.leq": "public API: the order on element names",
    "order.chain": "public API: the total order on a list of names",
    "order.antichain": "public API: the discrete order on a list of names",
    "order.poset_isomorphic": "public API: the verdict of poset_isomorphism",
    "spaces.disjoint_union": "public API: the coproduct of two spaces",
    "spaces.subspace": "public API: the induced topology with its inclusion",
    "spaces.ContinuousMap.apply": "public API: a map applied to a point name",
    "spaces.interior_of": "public API: the dual of closure_of",
    "spaces.is_closure_initial": "acceptance-criterion helper: closure-initial maps",
    "topspace.neighborhood_filter": "public API: the unit's filter at one point",
    "universes.all_topology_families_bruteforce": "twin: the topologies by their axioms",
}


def test_only_the_listed_definitions_are_reached_by_the_tests_alone():
    package = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    users = [p.read_text(encoding="utf-8") for p in DEMOS] + [readme_tour()]
    assert sorted(unreferenced_definitions(package, users)) == sorted(TEST_ONLY)


def cache_sizes(modules) -> dict:
    """`module.name` -> (kind, size) for each function with a cache_info()
    ("cache": its currsize; memo tables and lru_cache functions), each
    other object with a `table` dict ("cache": its length) and each
    module-level dict, set or list ("container": its length)."""
    out = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("__"):
                continue
            key = f"{module.__name__}.{name}"
            if callable(getattr(obj, "cache_info", None)):
                out[key] = ("cache", obj.cache_info().currsize)
            elif isinstance(getattr(obj, "table", None), dict):
                out[key] = ("cache", len(obj.table))
            elif isinstance(obj, (dict, set, list)):
                out[key] = ("container", len(obj))
    return out


def uncleared(modules, run) -> tuple:
    """Run `run` from cleared caches and call clear_caches; returns the
    caches the run filled, and the caches and containers that still hold
    something: a cache anything, a container more than before the run."""
    clear_caches()
    start = cache_sizes(modules)
    run()
    filled = sorted(k for k, (kind, n) in cache_sizes(modules).items() if n and kind == "cache")
    clear_caches()
    left = [
        key
        for key, (kind, n) in cache_sizes(modules).items()
        if n > (start.get(key, (kind, 0))[1] if kind == "container" else 0)
    ]
    return filled, sorted(left)


def test_a_cache_that_clear_caches_misses_is_reported():
    fake = types.ModuleType("fake")
    fake.seen = {}
    fake.constants = [1, 2]
    fake.table_holder = types.SimpleNamespace(table={})

    @lru_cache(maxsize=None)
    def view(x):
        return x

    fake.view = view

    def run():
        fake.seen[1] = 1
        fake.table_holder.table[2] = 2
        view(3)

    filled, left = uncleared([fake], run)
    assert filled == ["fake.table_holder", "fake.view"]
    assert left == ["fake.seen", "fake.table_holder", "fake.view"]


def test_clear_caches_empties_every_view_and_memo_table():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "stonekit"]
    filled, left = uncleared(
        modules, lambda: list(run_suite("lifting", max_points=2))
    )
    views = ("dlat.ideal_view", "frame.spectrum_view", "topspace.filter_space_view")
    for view in views:
        assert f"stonekit.{view}" in filled
    for memo in (
        "dlat._check_hom",
        "dlat.prime_filters",
        "spaces._check_continuous",
        "frame._filter_opens",
    ):
        assert f"stonekit.{memo}" in filled
    assert left == []


def test_every_cache_of_the_package_is_registered():
    # clear_caches empties the registered tables only, so a view cached
    # with a bare lru_cache would outlive it
    registered = {id(f) for f in TABLES}
    unregistered = []
    for path in SOURCES:
        module = importlib.import_module(f"stonekit.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            cache = callable(getattr(obj, "cache_clear", None))
            if (cache or hasattr(obj, "table")) and id(obj) not in registered:
                unregistered.append(f"{module.__name__}.{name}")
    assert unregistered == []


def test_no_cache_wraps_a_function_without_arguments():
    # an object built once is a module constant, not a cache
    nullary = [
        f"{table.__module__}.{table.__name__}"
        for table in list(TABLES)
        if table.__module__.startswith("stonekit.")
        and table.__wrapped__.__code__.co_argcount == 0
    ]
    assert nullary == []


def natural_transformations(values) -> list:
    """Every NatTransInstance reachable from `values` through the fields
    of records, each once."""
    seen, out, stack = set(), [], list(values)
    while stack:
        value = stack.pop()
        if not isinstance(value, Value) or id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, NatTransInstance):
            out.append(value)
        stack.extend(getattr(value, name) for name in value._fields)
    return out


def test_clear_caches_empties_the_component_memos_of_the_instances():
    # the instances are built once, so their component memos outlive every
    # run unless clear_caches empties them
    transformations = natural_transformations(vars(instances).values())
    clear_caches()
    list(run_suite("lifting", max_points=2))
    filled = [nt.name for nt in transformations if nt.component.cache_info().currsize]
    clear_caches()
    left = [nt.name for nt in transformations if nt.component.cache_info().currsize]
    assert "spectral ideal monad.unit" in filled
    assert "sobrification unit" in filled
    assert left == []
