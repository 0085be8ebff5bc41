"""The package namespace: the same 86 exports, resolved when first read.

``recurquot/__init__.py`` imports none of its modules; each export is
imported from its module the first time it is read.  These tests pin
the exported names and check that every way of reading them (attribute,
star import, ``dir``) gives the object its module defines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import recurquot

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = [
    "BadPrime", "BasisMismatch", "BothZero", "DEFAULT_FACTOR_LIMIT", "DecayReport",
    "DivisorZero", "ExponentVector", "FactoredRational", "FactorizationLimit",
    "FixedDenominator", "GroupRingElement", "HyperplaneForm", "HypothesisViolated",
    "InputError", "IrrationalRoots", "LinearRecurrence", "LogSum", "MultiRecurrence",
    "MultiplicativeBasis", "NoClearance", "ObstructionReport", "ParseError", "Place",
    "PointOnHyperplane", "PolynomialDenominatorBound", "QuotientCertificate",
    "RecurquotError", "RecurrenceSpec", "ResourceError", "RootNotInGroup", "SIntegerSpec",
    "SMembership", "SchemaError", "SearchHit", "SectionResult", "TorsionGroup", "UniPoly",
    "VerificationFailed", "ZeroInput", "ZeroRoot", "ZeroSetReport", "compute_basis",
    "constant", "cross_quotient", "decay_check", "errors", "euler_phi", "factor_int",
    "factor_limit", "factor_rational", "factorization", "from_closed_form",
    "from_group_ring", "from_relation", "geometric", "groupring", "hadamard_quotient",
    "heights", "integrality", "integrality_search", "laurent_divide", "laurent_gcd",
    "linalg", "multiplicative", "obstruction_scan", "parse_polynomial", "parse_rational",
    "parse_spec", "parsing", "place_abs", "places", "polynomial", "polynomial_clearance",
    "polys", "product_formula_check", "quotient", "recurrences", "s_membership",
    "solve_on_sections", "to_group_ring", "torsion_status", "valuation", "vector_height",
    "weil_function", "weil_height", "zero_set",
]
SUBMODULES = [
    "errors", "factorization", "groupring", "heights", "integrality", "linalg",
    "multiplicative", "parsing", "places", "polys", "quotient", "recurrences",
]


def defining_module(name: str, value) -> str:
    """The module that defines an export: its own name for a submodule."""
    if name in SUBMODULES:
        return f"recurquot.{name}"
    if name == "DEFAULT_FACTOR_LIMIT":  # an int, which records no module
        return "recurquot.factorization"
    return value.__module__


def test_the_exports_are_pinned():
    assert len(EXPORTS) == 86 and set(SUBMODULES) <= set(EXPORTS)
    assert recurquot.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_modules_object(name):
    value = getattr(recurquot, name)
    module = sys.modules[defining_module(name, value)]
    if name in SUBMODULES:
        assert value is module
    else:
        assert module.__name__.startswith("recurquot.")
        assert getattr(module, name) is value


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(recurquot))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        recurquot.no_such_name
    assert not hasattr(recurquot, "cross_quotients")
    with pytest.raises(ImportError):
        exec("from recurquot import no_such_name", {})


def test_a_fresh_star_import_binds_every_export():
    """In a new interpreter, ``import recurquot`` loads no submodule, and a
    star import then binds all 86 names to their modules' objects."""
    script = (
        "import sys\n"
        "import recurquot\n"
        "print(sorted(m for m in sys.modules if m.startswith('recurquot.')))\n"
        "namespace = {}\n"
        "exec('from recurquot import *', namespace)\n"
        "names = sorted(n for n in namespace if n != '__builtins__')\n"
        "print(names)\n"
        "print(all(namespace[n] is getattr(recurquot, n) for n in names))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = ["-O"] * sys.flags.optimize
    result = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded, names, same = result.stdout.splitlines()
    assert loaded == "[]"
    assert names == repr(sorted(EXPORTS))
    assert same == "True"
