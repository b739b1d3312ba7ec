"""Random trig-polynomial surrogates and their expressions, against the
ExpPoly-arithmetic constructions they replace."""
import numpy as np
import pytest

from schsym.closedform import _poly_expr, exppoly_to_expr
from schsym.expr import COS, EXP, SIN, const, func_app, sum_, t
from schsym.funcbank import (TRIG_DEGREE, ExpPoly, random_positive_trig_poly,
                             random_trig_poly)


def _ref_trig_poly(rng, codomain):
    """random_trig_poly by ExpPoly arithmetic: one polynomial per step."""
    def coeff():
        if codomain == "complex":
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return complex(rng.uniform(-1, 1))

    f = ExpPoly.constant(coeff())
    for k in range(1, TRIG_DEGREE + 1):
        f = f + ExpPoly.cos(float(k)).scale(coeff()) + ExpPoly.sin(float(k)).scale(coeff())
    return f


def _ref_positive_trig_poly(rng, low=1.5, high=2.5, ripple=0.3):
    f = ExpPoly.constant(rng.uniform(low, high))
    for k in range(1, TRIG_DEGREE + 1):
        f = f + ExpPoly.cos(float(k)).scale(rng.uniform(-1, 1) * ripple / TRIG_DEGREE)
        f = f + ExpPoly.sin(float(k)).scale(rng.uniform(-1, 1) * ripple / TRIG_DEGREE)
    return f


def _bits(f: ExpPoly) -> list:
    """Keys and coefficients in dict order, as uint64 views, so that signed
    zeros and key order count."""
    flat = []
    for lam, coeffs in f.terms.items():
        flat.append(lam)
        flat.extend(coeffs)
        flat.append(np.nan)  # ends a term, so splits between terms count
    return np.array(flat, dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("make, ref", [
    (lambda rng: random_trig_poly(rng, "real"), lambda rng: _ref_trig_poly(rng, "real")),
    (lambda rng: random_trig_poly(rng, "complex"), lambda rng: _ref_trig_poly(rng, "complex")),
    (random_positive_trig_poly, _ref_positive_trig_poly),
])
def test_trig_polys_match_exppoly_arithmetic_bitwise(make, ref):
    for seed in range(500):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = make(rng), ref(ref_rng)
        assert _bits(got) == _bits(want), seed
        # the same draws, in the same order
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _ref_exppoly_to_expr(f: ExpPoly):
    """exppoly_to_expr with every conjugate pair built as its own expression
    re_p cos(bt) - im_p sin(bt), which the final sum takes apart."""
    tv = t()
    terms = []
    seen = set()
    for lam, coeffs in f.terms.items():
        if lam in seen:
            continue
        a, b = lam.real, lam.imag
        if abs(b) <= 1e-13:
            body = _poly_expr(coeffs, tv, real_part=True)
            if a != 0.0:
                body = body * func_app(EXP, [const(a) * tv])
            terms.append(body)
            seen.add(lam)
            continue
        conj_lam = complex(a, -b)
        seen.add(lam)
        seen.add(conj_lam)
        if b < 0:
            lam = conj_lam
            coeffs = f.terms[lam]
            a, b = lam.real, lam.imag
        re_p = _poly_expr([2 * c for c in coeffs], tv, real_part=True)
        im_p = _poly_expr([2 * c for c in coeffs], tv, real_part=False)
        body = (re_p * func_app(COS, [const(b) * tv])
                - im_p * func_app(SIN, [const(b) * tv]))
        if a != 0.0:
            body = body * func_app(EXP, [const(a) * tv])
        terms.append(body)
    return sum_(terms)


def test_exppoly_to_expr_matches_the_pairwise_construction():
    rng = np.random.default_rng(11)
    fixed = [ExpPoly(), ExpPoly.constant(0.0), ExpPoly.constant(2.5), ExpPoly.cos(1.0),
             ExpPoly.sin(2.0), ExpPoly.cos(1.0, 0.5), ExpPoly.cos(1.0).scale(2.0),
             ExpPoly.exp(0.5), ExpPoly.identity() * ExpPoly.identity(),
             ExpPoly.cos(1.0) + ExpPoly.sin(1.0).scale(-1)]
    polys = list(fixed)
    for _ in range(300):
        f = random_trig_poly(rng, "real")
        polys += [f, f.scale(0.08), f.antiderivative(), f.derivative(),
                  ExpPoly.identity() * f, ExpPoly.exp(-0.3) * f, ExpPoly.exp(0.7) + f,
                  ExpPoly({lam: c for lam, c in random_trig_poly(rng, "complex").terms.items()
                           if lam != 0})]
    for f in polys:
        assert exppoly_to_expr(f) is _ref_exppoly_to_expr(f), f.terms


def test_exppoly_values_do_not_depend_on_batch_size():
    # numpy evaluates a product whose right operand is a temporary of 256 KiB
    # or more as right * left, and complex multiply is not bitwise commutative
    f = random_trig_poly(np.random.default_rng(11), "complex")
    z = np.random.default_rng(12).uniform(0.3, 1.7, 20_000).astype(complex)
    chunks = np.concatenate([f(z[i:i + 40]) for i in range(0, len(z), 40)])
    assert np.array_equal(f(z).view(np.uint64), chunks.view(np.uint64))
