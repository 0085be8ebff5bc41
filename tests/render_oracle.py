"""Test-only oracle: a group-ring element rendered from its Fraction terms.

This is how ``GroupRingElement.render`` worked before it read the stored
split: it built the rational map (x_degree, t_exponents) -> coefficient
that ``terms`` gives, sorted it from the lex-leading term down and let
``Fraction`` reduce and print each coefficient.  The library now reduces
content * poly[e] in integers and adds ``low`` to each key itself, so
the tests compare the two.
"""

from recurquot.polys import _monomial, _render_sum


def render(f) -> str:
    return _render_sum(
        (c, _monomial([("X", x), *((f"T{i}", e) for i, e in enumerate(te, start=1))]))
        for (x, te), c in sorted(f.terms.items(), reverse=True)
    )
