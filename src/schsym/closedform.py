"""Conversion of exponential-trigonometric functions to expression form.

Case instantiation builds potentials and generators whose time dependence
is an exact ExpPoly; this module renders such a function as an Expr over
cos/sin/exp so that formal differentiation and numeric evaluation agree to
rounding.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .expr import (COS, EXP, SIN, T_VAR, ZERO, Const, Expr, FuncApp, IntPow, Product, Sum,
                   Var, const, func_app, int_pow, t)
from .funcbank import ExpPoly, ExpPolyImpl


def _poly_expr(coeffs, var_expr: Expr, real_part: bool) -> Expr:
    out = ZERO
    for i, c in enumerate(coeffs):
        v = c.real if real_part else c.imag
        if v == 0.0:
            continue
        term = const(Fraction(v))
        if i >= 1:
            term = term * int_pow(var_expr, i)
        out = out + term
    return out


def exppoly_to_expr(f: ExpPoly, tol: float = 1e-13) -> Expr:
    """Render a real-valued ExpPoly as an Expr in t (exact to rounding)."""
    tv = t()
    out = ZERO
    seen: set[complex] = set()
    for lam, coeffs in f.terms.items():
        if lam in seen:
            continue
        a, b = lam.real, lam.imag
        if abs(b) <= tol:
            # real lambda: polynomial times exp(a t); coefficients must be real
            if any(abs(c.imag) > 1e-9 * (1 + abs(c)) for c in coeffs):
                raise ValueError("ExpPoly is not real-valued")
            body = _poly_expr(coeffs, tv, real_part=True)
            if a != 0.0:
                body = body * func_app(EXP, [const(Fraction(a)) * tv])
            out = out + body
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
        re_p = _poly_expr([2 * c for c in coeffs], tv, real_part=True)
        im_p = _poly_expr([2 * c for c in coeffs], tv, real_part=False)
        phase_c = func_app(COS, [const(Fraction(b)) * tv])
        phase_s = func_app(SIN, [const(Fraction(b)) * tv])
        body = re_p * phase_c - im_p * phase_s
        if a != 0.0:
            body = body * func_app(EXP, [const(Fraction(a)) * tv])
        out = out + body
    return out


def expr_to_exppoly(e: Expr, impls: dict) -> ExpPoly:
    """Interpret an expression in t within ExpPoly arithmetic.

    Supports constants, t, sums, products, non-negative integer powers, and
    applications (with slot derivatives) of symbols whose implementation is
    an ExpPoly applied to a rational-affine function of t.  Used to give
    antiderivative-defined symbols exact implementations.
    """
    if isinstance(e, Const):
        if e.im != 0:
            return ExpPoly({0j: (complex(float(e.re), float(e.im)),)})
        return ExpPoly.constant(float(e.re))
    if isinstance(e, Var):
        if e.vid != T_VAR:
            raise ValueError("only t allowed")
        return ExpPoly.identity()
    if isinstance(e, Sum):
        out = ExpPoly()
        for tm in e.terms:
            out = out + expr_to_exppoly(tm, impls)
        return out
    if isinstance(e, Product):
        out = ExpPoly.constant(1.0)
        for f in e.factors:
            out = out * expr_to_exppoly(f, impls)
        return out
    if isinstance(e, IntPow):
        if e.k < 0:
            raise ValueError("negative powers are not exponential polynomials")
        out = ExpPoly.constant(1.0)
        base = expr_to_exppoly(e.base, impls)
        for _ in range(e.k):
            out = out * base
        return out
    if isinstance(e, FuncApp):
        impl = impls.get(e.sym)
        if e.sym.name == "cos" or e.sym.name == "sin":
            arg = e.args[0]
            a, b = expr_to_exppoly_linear(arg)
            k = e.didx[0]
            base = ExpPoly.cos(a, b) if e.sym.name == "cos" else ExpPoly.sin(a, b)
            for _ in range(k):
                base = base.derivative()
            return base
        if e.sym.name == "exp":
            a, b = expr_to_exppoly_linear(e.args[0])
            base = ExpPoly({complex(a): (complex(np.exp(b)),)})
            for _ in range(e.didx[0]):
                base = base.derivative()
            return base
        if isinstance(impl, ExpPolyImpl):
            a, b = expr_to_exppoly_linear(e.args[0])
            if (a, b) != (1.0, 0.0):
                raise ValueError("symbol must be applied to t itself")
            f = impl.func
            for _ in range(e.didx[0]):
                f = f.derivative()
            return f
        raise ValueError(f"symbol {e.sym.name} has no exponential-polynomial meaning")
    raise ValueError(f"{type(e).__name__} is not an exponential polynomial in t")


def expr_to_exppoly_linear(e: Expr) -> tuple[float, float]:
    if isinstance(e, Var) and e.vid == T_VAR:
        return (1.0, 0.0)
    if isinstance(e, Const):
        if e.im != 0:
            raise ValueError("affine form must be real")
        return (0.0, float(e.re))
    if isinstance(e, Sum):
        a = b = 0.0
        for tm in e.terms:
            aa, bb = expr_to_exppoly_linear(tm)
            a += aa
            b += bb
        return (a, b)
    if isinstance(e, Product):
        a, b = 0.0, 1.0
        lin = None
        coeff = 1.0
        for f in e.factors:
            if isinstance(f, Const):
                if f.im != 0:
                    raise ValueError("affine form must be real")
                coeff *= float(f.re)
            elif isinstance(f, Var) and f.vid == T_VAR and lin is None:
                lin = f
            else:
                raise ValueError("not affine in t")
        if lin is None:
            return (0.0, coeff)
        return (coeff, 0.0)
    raise ValueError("not affine in t")
