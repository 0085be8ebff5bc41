"""Command-line interface over the solver library.

Every subcommand reads recurrence spec JSON files, runs one library
operation, and emits a deterministic report (text by default, a
sorted-key JSON document with --json).  Exit codes: 0 success, 1 a
negative mathematical verdict (a refusal with a witness, not an
error), 2 malformed or out-of-domain input, 3 a resource cap, 4 a failed
internal check (a library defect, not bad input).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from fractions import Fraction

from .errors import InputError, ResourceError, VerificationFailed
from .factorization import DEFAULT_FACTOR_LIMIT, factor_limit

# The library names the handlers use, by the module that defines them.
# ``_run`` binds the layers of the parsed subcommand (its ``layers``
# default, set in ``build_parser``), so that a call imports only the
# modules it runs.
_LAYERS = {
    "heights": (
        "LogSum",
        "SIntegerSpec",
        "decay_check",
        "product_formula_check",
        "vector_height",
        "weil_height",
    ),
    "integrality": (
        "FixedDenominator",
        "PolynomialDenominatorBound",
        "integrality_search",
        "obstruction_scan",
    ),
    "multiplicative": ("compute_basis",),
    "parsing": ("parse_spec", "render_spec"),
    "places": ("Place",),
    "quotient": (
        "NoClearance",
        "QuotientCertificate",
        "SectionResult",
        "solve_with_torsion_fallback",
    ),
    "recurrences": ("LinearRecurrence", "MultiRecurrence", "zero_set"),
}
_LAYER_NAMES = frozenset(name for names in _LAYERS.values() for name in names)


def _bind(layers) -> None:
    """Bind the names of ``layers`` that are not bound yet.

    A name already bound stays: it may be a wrapper that a caller put
    on this module.
    """
    namespace = globals()
    for layer in layers:
        module = importlib.import_module(f"{__package__}.{layer}")
        for name in _LAYERS[layer]:
            if name not in namespace:
                namespace[name] = getattr(module, name)


def __getattr__(name):
    # A read from outside binds every layer at once, as an eager import
    # would.  Binding only the name read is not enough: a caller that
    # wraps a function on its defining module before it reads the name
    # here would find its own wrapper bound and wrap it twice.
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAYERS)
    return globals()[name]


VERSION_TAG = "recurquot/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED = 5


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    spec = parse_spec(text)
    return spec, spec.to_recurrence()


def _decimal(value: float) -> str:
    return f"{value:.15g}"


def _logsum_doc(value: LogSum) -> dict:
    return {
        "terms": [[p, c] for p, c in value.as_pairs()],
        "decimal": _decimal(value.to_float()),
        "pretty": value.render(),
    }


def _recurrence_doc(rec: LinearRecurrence, var: str = "n") -> dict:
    return {
        "rendered": rec.render(var),
        "closed_form": [
            {"root": str(root), "coeff": coeff.render("X")}
            for root, coeff in rec.terms
        ],
    }


def _multi_doc(rec: MultiRecurrence) -> dict:
    return {
        "rendered": rec.render(("m", "n")),
        "terms": [
            {"base_m": str(root), "base_n": str(rec.n_root), "coeff": coeff.render("M")}
            for root, coeff in rec.m_part.terms
        ],
    }


def _certificate_doc(cert: QuotientCertificate) -> dict:
    if isinstance(cert.quotient, MultiRecurrence):
        quotient_doc = _multi_doc(cert.quotient)
    else:
        quotient_doc = _recurrence_doc(cert.quotient)
    return {
        "clearing_poly": cert.clearing_poly.render("X"),
        "quotient": quotient_doc,
        "v_over_p": _recurrence_doc(cert.v_over_p),
        "min_denominator": cert.min_denominator,
    }


def _outcome_doc(outcome) -> tuple[bool, dict]:
    """(positive?, document) for one solver outcome."""
    if outcome is None:
        return False, {"verdict": "not-a-recurrence"}
    if isinstance(outcome, NoClearance):
        doc = {"verdict": "no-clearance", "reason": outcome.reason}
        if outcome.witness is not None:
            doc["witness"] = outcome.witness.render()
        if outcome.detail:
            doc["detail"] = outcome.detail
        return False, doc
    if isinstance(outcome, LinearRecurrence):
        return True, {"verdict": "quotient", "quotient": _recurrence_doc(outcome)}
    assert isinstance(outcome, QuotientCertificate)
    return True, {"verdict": "certificate", "certificate": _certificate_doc(outcome)}


# One search hit as ``json.dumps(..., sort_keys=True, indent=2)`` lays it
# out in the document's top-level "hits" list.
_HIT_LAYOUT = '    {\n      "d": %d,\n      "m": %d,\n      "n": %d\n    }'


def _dumps(document: dict) -> str:
    """``json.dumps(document, sort_keys=True, indent=2)``, byte for byte.

    With an indent, ``json`` runs its pure-Python encoder, which is slow
    on a search's long hit list; the hits are written in their fixed
    layout instead.
    """
    hits = document.get("hits")
    if not hits:
        return json.dumps(document, sort_keys=True, indent=2)
    text = json.dumps({**document, "hits": []}, sort_keys=True, indent=2)
    # A raw newline is layout (strings escape theirs), and a two-space
    # indent marks a top-level key, so this occurs once.
    head, _, tail = text.partition('\n  "hits": []')
    rows = ",\n".join([_HIT_LAYOUT % (h["d"], h["m"], h["n"]) for h in hits])
    return f'{head}\n  "hits": [\n{rows}\n  ]{tail}'


def _emit(document: dict, lines: list[str], json_mode: bool, out) -> None:
    if json_mode:
        print(_dumps(document), file=out)
    else:
        for line in lines:
            print(line, file=out)


# -- subcommand handlers --------------------------------------------------------


def _cmd_eval(args):
    spec, rec = _load_spec(args.spec)
    if args.start > args.end:
        raise InputError("--from must not exceed --to")
    values = [(n, rec.evaluate(n)) for n in range(args.start, args.end + 1)]
    doc = {
        "recurrence": _recurrence_doc(rec, spec.var.lower()),
        "values": [{"n": n, "value": str(v)} for n, v in values],
    }
    lines = [f"{spec.var.lower()} -> {rec.render(spec.var.lower())}"]
    lines += [f"  {n}: {v}" for n, v in values]
    return EXIT_OK, doc, lines


def _cmd_zeros(args):
    spec, rec = _load_spec(args.spec)
    report = zero_set(rec, args.bound)
    doc = {
        "recurrence": _recurrence_doc(rec, spec.var.lower()),
        "progressions": [
            {"modulus": q, "residue": r} for q, r in report.progressions
        ],
        "sporadic": list(report.sporadic),
        "complete": report.complete,
        "dominance_from": report.dominance_from,
        "bound": args.bound,
    }
    lines = [f"zero set of {rec.render(spec.var.lower())} (bound {args.bound}):"]
    for q, r in report.progressions:
        lines.append(f"  progression: every n = {r} mod {q}")
    lines.append(f"  sporadic: {list(report.sporadic)}")
    if report.complete:
        lines.append(f"  complete: no other zeros (certified from {report.dominance_from})")
    else:
        lines.append("  bounded only: zeros beyond the bound were not excluded")
    return EXIT_OK, doc, lines


def _cmd_quotient(args):
    _, u = _load_spec(args.numerator)
    _, v = _load_spec(args.divisor)
    outcome = solve_with_torsion_fallback(u, v, args.mode, decimate=args.decimate)
    if isinstance(outcome, list):
        sections = []
        all_positive = True
        for sec in outcome:
            assert isinstance(sec, SectionResult)
            if sec.outcome == "divisor-vanishes":
                positive, sub = True, {"verdict": "divisor-vanishes"}
            else:
                positive, sub = _outcome_doc(sec.outcome)
            all_positive = all_positive and positive
            sections.append(
                {"modulus": sec.modulus, "offsets": list(sec.offsets), **sub}
            )
        doc = {"mode": args.mode, "decimated": True, "sections": sections}
        lines = [f"torsion roots: solved on sections mod {sections[0]['modulus']}"]
        for sec in sections:
            lines.append(f"  offsets {sec['offsets']}: {sec['verdict']}")
        return (EXIT_OK if all_positive else EXIT_NEGATIVE), doc, lines
    positive, sub = _outcome_doc(outcome)
    doc = {"mode": args.mode, "decimated": False, **sub}
    lines = [f"verdict: {sub['verdict']}"]
    if positive and "quotient" in sub:
        lines.append(f"quotient: {sub['quotient']['rendered']}")
    if positive and "certificate" in sub:
        cert = sub["certificate"]
        lines.append(f"P = {cert['clearing_poly']}")
        lines.append(f"quotient: {cert['quotient']['rendered']}")
        lines.append(f"V/P: {cert['v_over_p']['rendered']}")
        lines.append(f"min denominator: {cert['min_denominator']}")
    if not positive:
        if "witness" in sub:
            lines.append(f"witness: {sub['witness']}")
        if "detail" in sub:
            lines.append(sub["detail"])
    return (EXIT_OK if positive else EXIT_NEGATIVE), doc, lines


def _cmd_decimate(args):
    spec, rec = _load_spec(args.spec)
    section = rec.decimate(args.modulus, args.residue)
    doc = {
        "modulus": args.modulus,
        "residue": args.residue,
        "section": _recurrence_doc(section, spec.var.lower()),
        "spec": render_spec(section, name=spec.name, var=spec.var),
    }
    lines = [
        f"U({args.modulus}k + {args.residue}) = {section.render('k')}",
    ]
    return EXIT_OK, doc, lines


def _cmd_basis(args):
    roots: list[Fraction] = []
    for path in args.specs:
        _, rec = _load_spec(path)
        roots.extend(rec.roots)
    if not roots:
        raise InputError("no roots: all inputs are the zero sequence")
    basis = compute_basis(roots)
    doc = {
        "roots": [str(r) for r in basis.values],
        "generators": [str(g) for g in basis.generators],
        "rank": basis.rank,
        "expressions": [list(e) for e in basis.expressions],
    }
    lines = [f"rank {basis.rank} basis: {', '.join(str(g) for g in basis.generators)}"]
    for value, expr in zip(basis.values, basis.expressions):
        lines.append(f"  {value} = " + " * ".join(
            f"({g})^{e}" for g, e in zip(basis.generators, expr)
        ) if expr else f"  {value} = empty product")
    return EXIT_OK, doc, lines


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational number: {text!r}") from None


def _cmd_heights(args):
    values = [_rational_arg(v) for v in args.values]
    if args.vector:
        height = vector_height(values)
        doc = {
            "vector": [str(v) for v in values],
            "height": _logsum_doc(height),
        }
        coords = ", ".join(str(v) for v in values)
        lines = [f"h(({coords})) = {height.render()}"
                 f" = {_decimal(height.to_float())}"]
        return EXIT_OK, doc, lines
    entries = []
    lines = []
    for value in values:
        height = weil_height(value)
        product = product_formula_check(value)
        entries.append(
            {
                "value": str(value),
                "height": _logsum_doc(height),
                "product_formula": str(product),
            }
        )
        lines.append(
            f"h({value}) = {height.render()} = {_decimal(height.to_float())}"
            f"; product over places = {product}"
        )
    return EXIT_OK, {"heights": entries}, lines


def _cmd_decay_check(args):
    spec, rec = _load_spec(args.spec)
    place = Place.parse(args.place)
    report = decay_check(rec, place, args.start, args.end)
    doc = {
        "place": str(place),
        "range": [args.start, args.end],
        "max_ratio": _logsum_doc(report.max_ratio),
        "argmax_n": report.argmax_n,
        "positive_samples": len(report.samples),
        "skipped_zeros": list(report.skipped_zeros),
    }
    lines = [
        f"decay of |{rec.render(spec.var.lower())}| at place {place} "
        f"on [{args.start}, {args.end}]:",
        f"  max ratio = {report.max_ratio.render()}"
        f" = {_decimal(report.max_ratio.to_float())}",
        f"  attained at n = {report.argmax_n}",
        f"  positive-ratio indices: {len(report.samples)}"
        f", zeros skipped: {list(report.skipped_zeros)}",
    ]
    return EXIT_OK, doc, lines


def _parse_d_policy(text: str):
    kind, _, value = text.partition(":")
    try:
        number = int(value)
    except ValueError:
        raise InputError(f"bad --d-policy value: {text!r}") from None
    if kind == "fixed":
        return FixedDenominator(number)
    if kind == "poly":
        return PolynomialDenominatorBound(number)
    raise InputError(f"bad --d-policy kind: {text!r} (want fixed:k or poly:B)")


def _cmd_search(args):
    _, u = _load_spec(args.numerator)
    _, v = _load_spec(args.divisor)
    policy = _parse_d_policy(args.d_policy)
    s_spec = None
    if args.s_primes:
        try:
            primes = [int(p) for p in args.s_primes.split(",")]
        except ValueError:
            raise InputError(f"bad --s-primes {args.s_primes!r} (want p1,p2,...)") from None
        s_spec = SIntegerSpec(primes)
    hits = integrality_search(
        u,
        v,
        args.m_max,
        args.n_max,
        policy,
        s_spec=s_spec,
        totient=args.totient,
    )
    doc = {
        "grid": {"m_max": args.m_max, "n_max": args.n_max},
        "d_policy": args.d_policy,
        "totient": args.totient,
        "s_primes": s_spec.sorted() if s_spec else [],
        "hits": [{"m": h.m, "n": h.n, "d": h.d} for h in hits],
    }
    lines = [f"{len(hits)} hit(s) on m <= {args.m_max}, n <= {args.n_max}"]
    lines += [f"  m={h.m} n={h.n} d={h.d}" for h in hits]
    return EXIT_OK, doc, lines


def _cmd_obstruct(args):
    _, u = _load_spec(args.numerator)
    _, v = _load_spec(args.divisor)
    try:
        q, r = (int(part) for part in args.progression.split(","))
    except ValueError:
        raise InputError(
            f"bad --progression {args.progression!r} (want q,r)"
        ) from None
    report = obstruction_scan(u, v, (q, r), args.prime)
    doc = {
        "prime": report.prime,
        "progression": {"modulus": q, "residue": r},
        "verdict": report.verdict,
        "period": report.period,
        "clearing_constants": list(report.clearing_constants),
    }
    lines = [f"verdict: {report.verdict}"]
    if report.certified:
        lines.append(
            f"  {report.prime} divides V on the progression and never divides U"
            f" (checked over period {report.period})"
        )
        code = EXIT_OK
    else:
        doc["failing_side"] = report.failing_side
        doc["failing_index"] = report.failing_index
        lines.append(
            f"  fails on the {report.failing_side} at index {report.failing_index}"
        )
        code = EXIT_NEGATIVE
    return code, doc, lines


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurquot",
        description="exact quotient analysis for linear recurrence sequences",
    )
    parser.add_argument(
        "--factor-limit",
        type=int,
        default=None,
        help="cap on accepted prime factors (overrides RECURQUOT_FACTOR_LIMIT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, layers):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler, layers=layers)
        return p

    p = add("eval", _cmd_eval, "evaluate a recurrence on an index range", ("parsing",))
    p.add_argument("spec")
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--to", dest="end", type=int, default=10)

    p = add("zeros", _cmd_zeros, "certified zero set", ("parsing", "recurrences"))
    p.add_argument("spec")
    p.add_argument("--bound", type=int, default=100)

    p = add("quotient", _cmd_quotient, "divide one recurrence by another",
            ("parsing", "quotient", "recurrences"))
    p.add_argument("numerator")
    p.add_argument("divisor")
    p.add_argument(
        "--mode", choices=("hadamard", "clearance", "cross"), default="hadamard"
    )
    p.add_argument(
        "--decimate",
        action="store_true",
        help="on a torsion root group, solve each section mod 2 instead",
    )

    p = add("decimate", _cmd_decimate, "restrict to an arithmetic progression", ("parsing",))
    p.add_argument("spec")
    p.add_argument("-q", "--modulus", type=int, required=True)
    p.add_argument("-r", "--residue", type=int, required=True)

    p = add("basis", _cmd_basis, "multiplicative basis of the roots",
            ("parsing", "multiplicative"))
    p.add_argument("specs", nargs="+")

    p = add("heights", _cmd_heights, "exact Weil heights of rationals", ("heights",))
    p.add_argument("values", nargs="+")
    p.add_argument(
        "--vector", action="store_true", help="treat all values as one vector"
    )

    p = add("decay-check", _cmd_decay_check, "decay profile of |V(n)| at a place",
            ("parsing", "places", "heights"))
    p.add_argument("spec")
    p.add_argument("--place", required=True, help="a prime, or 'inf'")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)

    p = add("search", _cmd_search, "grid search for quasi-integral pairs",
            ("parsing", "heights", "integrality"))
    p.add_argument("numerator")
    p.add_argument("divisor")
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--d-policy", default="poly:2", help="fixed:k or poly:B")
    p.add_argument("--s-primes", default="", help="comma-separated primes of S")
    p.add_argument("--totient", action="store_true")

    p = add("obstruct", _cmd_obstruct, "mod-p obstruction certificate",
            ("parsing", "integrality"))
    p.add_argument("numerator")
    p.add_argument("divisor")
    p.add_argument("--progression", required=True, help="q,r for n = r mod q")
    p.add_argument("--prime", type=int, required=True)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        code = _run(argv, out)
        out.flush()
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`).  Point the stream at
        # devnull, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_CLOSED
    return code


def _run(argv, out) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = args.factor_limit
    if cap is None:
        env = os.environ.get("RECURQUOT_FACTOR_LIMIT")
        if env is None:
            cap = DEFAULT_FACTOR_LIMIT
        else:
            try:
                cap = int(env)
            except ValueError:
                print(
                    f"error: RECURQUOT_FACTOR_LIMIT must be an integer, got {env!r}",
                    file=out,
                )
                return EXIT_INPUT
    _bind(args.layers)
    try:
        try:
            with factor_limit(cap):
                code, doc, lines = args.handler(args)
        except ResourceError as exc:
            print(f"resource limit: {exc}", file=out)
            return EXIT_RESOURCE
        except InputError as exc:
            # A TorsionGroup finds its witness when its message is read,
            # and a missing witness raises VerificationFailed here.
            print(f"error: {exc}", file=out)
            return EXIT_INPUT
    except VerificationFailed as exc:
        print(f"internal check failed (a defect in recurquot, not in the input): {exc}",
              file=out)
        return EXIT_INTERNAL
    document = {"version": VERSION_TAG, "command": args.command, **doc}
    _emit(document, lines, args.json, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
