"""Test-only oracles: the recursive primitive PRS gcd and the exact
division over Fractions.

These are the gcd and division ``recurquot.groupring`` used before it
moved to integer coefficients.  The gcd is slow (its innermost content
is a gcd of constants, always 1, so remainders are never normalized and
coefficients grow), but both are simple and share no code with the
library, so the tests compare the library against them on small inputs.
Polynomials are dicts mapping exponent tuples to Fractions.
"""

from fractions import Fraction


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
