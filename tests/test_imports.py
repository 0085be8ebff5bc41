"""Every name a library module imports is used in that module, and the
CLI starts without the standard library's heavy modules.

Deleting a function tends to leave its imports behind.  The check reads
each module's syntax tree: a name bound by an import statement must
appear as a name elsewhere in the module, either in code or in an
annotation.  ``__init__.py`` is left out, since its imports are the
package's exports.

Every CLI call imports ``recurquot.cli``, which loads only ``errors``
and ``factorization`` of the library; a subcommand then imports the
layers it runs, and no others.  A module that pulls in ``dataclasses``
(and with it ``inspect``, ``ast``, ``dis`` and ``tokenize``) or
``typing`` would cost the subcommands that load it their start-up time.
The bench tracer (``bench/tracing.py``) still finds every name it wraps
on ``recurquot.cli``, bound to the object its module defines.

Immutability and pickling live in ``_record.Record``: a class that writes
its own ``__setattr__``, ``__delattr__`` or ``__reduce__`` is on a short
allow-list, with the reason it cannot use the base.

How often b divides n is counted by one kernel,
``factorization.remove_power``: a ``while x % y == 0`` loop anywhere else
in the library fails.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "recurquot"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
HEAVY = frozenset({"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"})


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    """Every annotation node: of arguments, of returns and of annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return out


def test_every_library_module_is_checked():
    assert {"cli.py", "groupring.py", "polys.py", "quotient.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom fractions import Fraction\nx: 'Fraction' = 'math'\n"
    tree = ast.parse(source)
    assert set(imported_names(tree)) - used_names(tree) == {"math"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules the import statements load."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_no_library_module_imports_dataclasses(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert "dataclasses" not in imported_modules(tree)


def test_the_check_sees_a_dataclasses_import():
    tree = ast.parse("from dataclasses import dataclass\nimport os.path\nfrom . import x\n")
    assert imported_modules(tree) == {"dataclasses", "os"}


# (module, function) of the valuation kernel, the one place a loop may divide out.
KERNEL = ("factorization.py", "remove_power")


def unit_step_loops(tree: ast.Module, kernel: str | None = None) -> list[int]:
    """Lines of the ``while`` loops whose test is a bare ``x % y == 0``,
    outside the function named ``kernel``."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == kernel:
            inside.update(map(id, ast.walk(node)))
    lines = []
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if (isinstance(node, ast.While) and id(node) not in inside
                and isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.left, ast.BinOp) and isinstance(test.left.op, ast.Mod)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value == 0):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_valuations_go_through_the_kernel(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    kernel = KERNEL[1] if module == KERNEL[0] else None
    lines = unit_step_loops(tree, kernel)
    assert not lines, f"{module} divides out a factor step by step at lines {lines}"


def test_the_check_sees_a_unit_step_loop():
    # A compound test (``_multiplicative_order`` searches for an order that
    # way) and a non-zero test are not valuations; the kernel is exempt.
    source = (
        "def f(n, p):\n"
        "    while n % p == 0:\n"
        "        n //= p\n"
        "    while n % p == 0 and p > 2:\n"
        "        n //= p\n"
        "    while n % p:\n"
        "        n += 1\n"
        "def remove_power(n, b):\n"
        "    while n % b == 0:\n"
        "        n //= b\n"
    )
    tree = ast.parse(source)
    assert unit_step_loops(tree) == [2, 9]
    assert unit_step_loops(tree, "remove_power") == [2]


def fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter, with ``-O`` when the suite runs under it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    flags = ["-O"] * sys.flags.optimize
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60, cwd=ROOT,
    )


def test_cold_cli_import_loads_no_heavy_module():
    """A fresh interpreter imports recurquot.cli, and then every layer a
    subcommand may load, without any of HEAVY.

    Only modules that the imports themselves add count, so a site hook
    that preloads one of them does not fail the check.
    """
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import recurquot.cli\n"
        "from recurquot import *\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    result = fresh_python(script)
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert {"recurquot.cli", "recurquot.quotient", "recurquot.integrality"} <= added
    assert not added & HEAVY, f"importing recurquot loads {sorted(added & HEAVY)}"


# ``python -m recurquot``, then the loaded modules on stderr.
RUN_CLI = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('recurquot', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
)
SOLVERS = {"groupring", "multiplicative", "quotient", "integrality", "heights"}

# (golden output, argv, layers the subcommand must not load)
SCOPES = [
    ("eval_mersenne.txt", ["eval", "tests/data/mersenne2.json", "--from", "0", "--to", "5"],
     SOLVERS | {"places"}),
    ("zeros_torsion.json", ["zeros", "tests/data/torsion.json", "--bound", "40", "--json"],
     SOLVERS | {"places"}),
    ("decimate_even.json",
     ["decimate", "tests/data/torsion.json", "-q", "2", "-r", "0", "--json"],
     SOLVERS | {"places"}),
    ("heights_scalar.json", ["heights", "3/2", "--json"],
     {"parsing", "quotient", "groupring", "integrality", "multiplicative"}),
    ("quotient_clearance.json",
     ["quotient", "tests/data/power5.json", "tests/data/poly_nn.json",
      "--mode", "clearance", "--json"], {"integrality", "heights"}),
]


@pytest.mark.parametrize("golden, argv, unused", SCOPES, ids=[argv[0] for _, argv, _ in SCOPES])
def test_a_subcommand_loads_only_its_layers(golden, argv, unused):
    result = fresh_python(RUN_CLI, *argv)
    assert result.returncode == 0
    assert result.stdout == (ROOT / "tests" / "golden" / golden).read_text()
    loaded = {m.partition(".")[2] for m in result.stderr.split() if m.startswith("recurquot.")}
    assert "cli" in loaded
    assert not loaded & unused, f"{argv[0]} loads {sorted(loaded & unused)}"


def tracer_points() -> list[str]:
    """The ``recurquot.cli:name`` places of ``POINTS`` in ``bench/tracing.py``."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "POINTS")
    places = [place for _, places in ast.literal_eval(table) for place in places]
    return [place for place in places if place.startswith("recurquot.cli:")]


def test_the_bench_tracer_has_cli_points():
    assert "recurquot.cli:compute_basis" in tracer_points()
    assert "recurquot.cli:main" in tracer_points()


def test_bench_tracer_names_resolve_on_a_fresh_cli():
    """Each ``recurquot.cli`` name the tracer wraps is, on a fresh import, the
    object that its defining module holds, read in the tracer's order."""
    script = (
        "import importlib, sys\n"
        "cli = importlib.import_module('recurquot.cli')\n"
        "for name in sys.argv[1:]:\n"
        "    value = getattr(cli, name)\n"
        "    owner = sys.modules[value.__module__]\n"
        "    print(name, value.__module__, getattr(owner, name) is value)\n"
    )
    names = [place.partition(":")[2] for place in tracer_points()]
    result = fresh_python(script, *names)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert [row[0] for row in rows] == names
    for name, module, same in rows:
        assert module.startswith("recurquot.") and same == "True", (name, module)


def test_the_bench_tracer_wraps_each_cli_name_once():
    """Installed on a fresh process, the tracer counts one search's grid
    once: a name it wraps on its module first is not wrapped twice here."""
    script = (
        "import sys\n"
        "sys.path.insert(0, 'bench')\n"
        "import io, tracing\n"
        "import recurquot.cli as cli\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "cli.main(sys.argv[1:], out=io.StringIO())\n"
        "spans, counters = tracer.take()\n"
        "print(counters.get('integrality.cells'), sum(s[0] == 'integrality.search' for s in spans))\n"
    )
    argv = ["search", "tests/data/mersenne3m.json", "tests/data/mersenne2.json",
            "--m-max", "8", "--n-max", "4", "--d-policy", "fixed:1"]
    result = fresh_python(script, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["32", "1"]


# Classes that keep their own immutability and pickling, and why.
OWN_VALUE_CODE = {
    "GroupRingElement": "equal across bases that span one group (``same_group``), "
                        "and unpickled through ``_split`` without normalising again",
    "LogSum": "equal to a ``_DeferredLog`` of the same value, a subclass whose "
              "``coeffs`` is read lazily, so equality cannot require one class",
    "_DeferredLog": "a ``LogSum`` that factors on the first read of ``coeffs``; "
                    "it inherits ``LogSum``'s immutability and pickling",
}
GUARDED = frozenset({"__setattr__", "__delattr__", "__reduce__"})


def hand_made_value_classes(trees) -> set[str]:
    """Classes that define a method of GUARDED, or derive from one that does."""
    found, bases = set(), {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if any(isinstance(item, ast.FunctionDef) and item.name in GUARDED
                       for item in node.body):
                    found.add(node.name)
    grown = True
    while grown:
        derived = {name for name, parents in bases.items() if parents & found}
        grown = not derived <= found
        found |= derived
    return found


def test_value_classes_join_the_record_base():
    trees = [ast.parse((PACKAGE / module).read_text(), filename=module)
             for module in MODULES if module != "_record.py"]
    found = hand_made_value_classes(trees)
    assert not found - OWN_VALUE_CODE.keys(), (
        f"{sorted(found - OWN_VALUE_CODE.keys())} should derive from _record.Record")
    assert OWN_VALUE_CODE.keys() <= found, "the allow-list names a class that no longer needs it"


def test_the_guard_sees_a_hand_made_value_class():
    tree = ast.parse(
        "class A:\n    def __reduce__(self): pass\n"
        "class B(A): pass\n"
        "class C(Record):\n    def __repr__(self): pass\n"
    )
    assert hand_made_value_classes([tree]) == {"A", "B"}
