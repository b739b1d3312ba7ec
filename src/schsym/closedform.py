"""Conversion between exponential-trigonometric functions and expressions.

The lemma fixtures build potentials and generators whose time dependence
is an exact ExpPoly; this module renders such a function as an Expr over
cos/sin/exp so that formal differentiation and numeric evaluation agree to
rounding.
"""
from __future__ import annotations

from .expr import COS, EXP, SIN, Expr, const, func_app, int_pow, prod, sum_, t
from .funcbank import ExpPoly


def _poly_expr(coeffs, var_expr: Expr, real_part: bool) -> Expr:
    terms = []
    for i, c in enumerate(coeffs):
        v = c.real if real_part else c.imag
        if v == 0.0:
            continue
        term = const(v)  # the float's exact binary value
        terms.append(term * int_pow(var_expr, i) if i >= 1 else term)
    return sum_(terms)


def exppoly_to_expr(f: ExpPoly) -> Expr:
    """Render a real-valued ExpPoly as an Expr in t (exact to rounding).

    Each frequency gives its own monomials, so the terms are collected and
    summed once; a constant pair of conjugate frequencies adds its cos and
    sin terms to that list directly, not as a Sum of their own.
    """
    tv = t()
    terms = []
    seen: set[complex] = set()
    for lam, coeffs in f.terms.items():
        if lam in seen:
            continue
        a, b = lam.real, lam.imag
        if abs(b) <= 1e-13:
            # real lambda: polynomial times exp(a t); coefficients must be real
            if any(abs(c.imag) > 1e-9 * (1 + abs(c)) for c in coeffs):
                raise ValueError("ExpPoly is not real-valued")
            body = _poly_expr(coeffs, tv, real_part=True)
            if a != 0.0:
                body = body * func_app(EXP, [const(a) * tv])
            terms.append(body)
            seen.add(lam)
            continue
        # complex pair: p e^(lam t) + conj(p) e^(conj(lam) t)
        conj_lam = complex(a, -b)
        if conj_lam not in f.terms:
            raise ValueError("ExpPoly is not real-valued (unpaired frequency)")
        seen.add(lam)
        seen.add(conj_lam)
        if b < 0:
            lam, conj_lam = conj_lam, lam
            coeffs = f.terms[lam]
            a, b = lam.real, lam.imag
        # 2 Re[p(t) e^(a t) (cos bt + i sin bt)]
        phase_c = func_app(COS, [const(b) * tv])
        phase_s = func_app(SIN, [const(b) * tv])
        if len(coeffs) == 1 and a == 0.0:
            # 2 Re(c) cos bt - 2 Im(c) sin bt, whose two terms the final
            # sum would take out of their own Sum
            c = 2 * coeffs[0]
            if c.real != 0.0:
                terms.append(prod((const(c.real), phase_c)))
            if c.imag != 0.0:
                terms.append(prod((const(-c.imag), phase_s)))
            continue
        re_p = _poly_expr([2 * c for c in coeffs], tv, real_part=True)
        im_p = _poly_expr([2 * c for c in coeffs], tv, real_part=False)
        body = re_p * phase_c - im_p * phase_s
        if a != 0.0:
            body = body * func_app(EXP, [const(a) * tv])
        terms.append(body)
    return sum_(terms)
