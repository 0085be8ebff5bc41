"""Every name a library module imports is used in that module, and the
CLI starts without the standard library's heavy modules.

Deleting a function tends to leave its imports behind.  The check reads
each module's syntax tree: a name bound by an import statement must
appear as a name elsewhere in the module, either in code or in an
annotation.  ``__init__.py`` is left out, since its imports are the
package's exports.

Every CLI call imports the whole package, so a module that pulls in
``dataclasses`` (and with it ``inspect``, ``ast``, ``dis`` and
``tokenize``) or ``typing`` costs every subcommand its start-up time.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "recurquot"
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


def test_cold_cli_import_loads_no_heavy_module():
    """A fresh interpreter imports recurquot.cli without any of HEAVY.

    Only modules that the import itself adds count, so a site hook that
    preloads one of them does not fail the check.
    """
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import recurquot.cli\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    flags = ["-O"] * sys.flags.optimize
    result = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "recurquot.cli" in added
    assert not added & HEAVY, f"importing recurquot.cli loads {sorted(added & HEAVY)}"
