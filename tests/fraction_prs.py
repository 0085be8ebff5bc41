"""Test-only oracles: the recursive primitive PRS gcd, the exact
division and the removal of X-content, all over Fractions, and the
primitive PRS gcd over the integers.

The Fraction oracles are the gcd, division and refusal witness that
``recurquot`` computed before it moved to integer coefficients.  That
gcd is slow (its innermost content is a gcd of constants, always 1, so
remainders are never normalized and coefficients grow).  The integer PRS
makes every remainder primitive, its contents being gcds in one variable
fewer down to ``math.gcd``, so coefficient size stays bounded by the
gcd's; ``recurquot`` used it as a fallback next to GCDHEU.  All of them
are simple and share no code with the library's integer core, so the
tests compare the library against them on small inputs.  Polynomials
are dicts mapping exponent tuples to Fractions, or to ints for the
integer PRS.
"""

import math
from fractions import Fraction

from recurquot.polys import UniPoly


def _mv_lead(f: dict) -> tuple[tuple[int, ...], Fraction]:
    e = max(f)
    return e, f[e]


def _mv_divide(f: dict, g: dict) -> dict | None:
    """Exact quotient f/g in the polynomial ring, or None.

    Single-divisor division in lex order: if g divides f the remainder
    process terminates empty, otherwise some leading term fails.
    """
    if not f:
        return {}
    q: dict[tuple[int, ...], Fraction] = {}
    r = dict(f)
    ge, gc = _mv_lead(g)
    while r:
        re, rc = _mv_lead(r)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            return None
        c = rc / gc
        q[diff] = q.get(diff, Fraction(0)) + c
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(diff, e2))
            v = r.get(key, Fraction(0)) - c * c2
            if v:
                r[key] = v
            else:
                r.pop(key, None)
    return q


def _mv_scale(f: dict, c: Fraction) -> dict:
    if c == 0:
        return {}
    return {e: v * c for e, v in f.items()}


def _mv_mul(f: dict, g: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(key, Fraction(0)) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _mv_monic(f: dict) -> dict:
    if not f:
        return {}
    _, c = _mv_lead(f)
    return _mv_scale(f, 1 / c)


def _split_main(f: dict) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for e, c in f.items():
        out.setdefault(e[0], {})[e[1:]] = c
    return out


def _join_main(parts: dict[int, dict]) -> dict:
    out = {}
    for d, sub in parts.items():
        for e, c in sub.items():
            out[(d,) + e] = c
    return out


def _list_gcd(polys: list[dict], k: int) -> dict:
    out = polys[0]
    for p in polys[1:]:
        out = fraction_prs_gcd(out, p, k)
    return out


def _primitive(parts: dict[int, dict], k: int) -> dict[int, dict]:
    if not parts:
        return {}
    cont = _list_gcd(list(parts.values()), k)
    out = {}
    for d, c in parts.items():
        quo = _mv_divide(c, cont)
        if quo is None:
            raise AssertionError("content failed to divide its own polynomial")
        out[d] = quo
    return out


def _prem(f_parts: dict[int, dict], g_parts: dict[int, dict]) -> dict[int, dict]:
    dg = max(g_parts)
    lg = g_parts[dg]
    r = dict(f_parts)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        nxt: dict[int, dict] = {d: _mv_mul(c, lg) for d, c in r.items()}
        for d, c in g_parts.items():
            key = d + dr - dg
            prod = _mv_mul(c, lr)
            merged = dict(nxt.get(key, {}))
            for e, v in prod.items():
                w = merged.get(e, Fraction(0)) - v
                if w:
                    merged[e] = w
                else:
                    merged.pop(e, None)
            nxt[key] = merged
        r = {d: c for d, c in nxt.items() if c}
    return r


def fraction_prs_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd in Q[v_0..v_{k-1}] of Fraction dicts, monic in lex order."""
    if not f:
        return _mv_monic(g)
    if not g:
        return _mv_monic(f)
    if k == 0:
        return {(): Fraction(1)}
    fm = _split_main(f)
    gm = _split_main(g)
    cont = fraction_prs_gcd(
        _list_gcd(list(fm.values()), k - 1), _list_gcd(list(gm.values()), k - 1), k - 1
    )
    fp = _primitive(fm, k - 1)
    gp = _primitive(gm, k - 1)
    while gp:
        rem = _prem(fp, gp)
        fp, gp = gp, _primitive(rem, k - 1)
    return _mv_monic(_join_main({d: _mv_mul(c, cont) for d, c in fp.items()}))


def _euclid_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q by Euclid's algorithm; a and b are not both zero."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def fraction_strip_x_content(terms: dict) -> dict:
    """A non-zero group-ring element without its largest Q[X] factor.

    ``terms`` maps (x_degree, t_exponents) to Fractions, as
    ``GroupRingElement.terms`` does.  The X-content is the gcd over Q of
    the columns, one polynomial in X per T-monomial.  The result, in the
    same form, is shifted to least T-exponents 0 and scaled to a
    lex-leading coefficient of 1.
    """
    columns: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (x, te), c in terms.items():
        columns.setdefault(te, {})[x] = c
    polys = [UniPoly([col.get(d, 0) for d in range(max(col) + 1)]) for col in columns.values()]
    content = polys[0].monic()
    for p in polys[1:]:
        content = _euclid_gcd(content, p)
    low = [min(col) for col in zip(*columns)]
    shifted = {(x, *(t - m for t, m in zip(te, low))): c for (x, te), c in terms.items()}
    zero_t = (0,) * len(low)
    quo = _mv_divide(shifted, {(d, *zero_t): c for d, c in enumerate(content.coeffs) if c})
    if quo is None:
        raise AssertionError("X-content does not divide its own element")
    lead = quo[max(quo)]
    return {(e[0], e[1:]): c / lead for e, c in quo.items()}


# -- the primitive PRS over the integers ---------------------------------------


def _zz_mul(f: dict, g: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _zz_exact(f: dict, g: dict) -> dict:
    """f / g over the integers; g must divide f."""
    quo = _mv_divide({e: Fraction(c) for e, c in f.items()}, g)
    if quo is None or any(c.denominator != 1 for c in quo.values()):
        raise AssertionError("content failed to divide its own polynomial")
    return {e: int(c) for e, c in quo.items()}


def _zz_content(parts: dict[int, dict], k: int) -> dict:
    polys = iter(parts.values())
    out = next(polys)
    for p in polys:
        out = integer_prs_gcd(out, p, k)
    return out


def _zz_primitive(parts: dict[int, dict], cont: dict) -> dict[int, dict]:
    return {d: _zz_exact(c, cont) for d, c in parts.items()}


def _zz_prem(f_parts: dict[int, dict], g_parts: dict[int, dict]) -> dict[int, dict]:
    """Pseudo-remainder in the main variable (premultipliers dropped;
    callers take primitive parts, which absorbs them)."""
    dg = max(g_parts)
    lg = g_parts[dg]
    r = f_parts
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        nxt = {d: _zz_mul(c, lg) for d, c in r.items()}
        for d, c in g_parts.items():
            merged = nxt.setdefault(d + dr - dg, {})
            for e, v in _zz_mul(c, lr).items():
                w = merged.get(e, 0) - v
                if w:
                    merged[e] = w
                else:
                    del merged[e]
        r = {d: c for d, c in nxt.items() if c}
    return r


def integer_prs_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}] by a primitive PRS, up to sign."""
    if k == 0:
        return {(): math.gcd(f[()], g[()])}
    fm = _split_main(f)
    gm = _split_main(g)
    f_cont = _zz_content(fm, k - 1)
    g_cont = _zz_content(gm, k - 1)
    cont = integer_prs_gcd(f_cont, g_cont, k - 1)
    fp = _zz_primitive(fm, f_cont)
    gp = _zz_primitive(gm, g_cont)
    while gp:
        rem = _zz_prem(fp, gp)
        fp, gp = gp, (_zz_primitive(rem, _zz_content(rem, k - 1)) if rem else {})
    return _join_main({d: _zz_mul(sub, cont) for d, sub in fp.items()})
