"""Numeric implementations behind function symbols.

Every implementation can produce the exact value of an arbitrary mixed
partial derivative of itself at given argument arrays, which is what the
randomized identity checks need.  Random surrogates are trigonometric
polynomials (univariate: exponential-trigonometric class; multivariate:
products of cosines), whose derivatives of all orders are closed-form.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

_HALF_PI = math.pi / 2.0
TRIG_DEGREE = 3


class FunctionImpl:
    """Base protocol: ``deriv(didx, args) -> (values, unsafe_mask)``.

    ``values`` is the mixed partial derivative of order ``didx`` as a complex
    ndarray broadcast over ``args`` (the builtin cos and sin give float64
    values for float64 arguments).  ``unsafe_mask`` is a boolean array
    marking the points where those values cannot be trusted (a singular
    base, a branch cut, a failed root solve), or None when every point is
    safe.  An implementation may substitute harmless values at unsafe
    points, but it must report them: the zero test redraws those points.

    Values and mask are pointwise: each point's depend only on that point's
    arguments, bit for bit, whatever other points share the call.  A
    stacked run calls an impl that every block binds once over all the
    blocks' points (``numeric.StackedBinding``) and reads each block's own
    values from it.
    """

    def deriv(self, didx: tuple[int, ...], args: tuple[np.ndarray, ...]
              ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        raise NotImplementedError


def nth_derivative(derivs: list, k: int, step: Callable):
    """``derivs[k]``, first extending the list of successive derivatives by ``step``."""
    while len(derivs) <= k:
        derivs.append(step(derivs[-1]))
    return derivs[k]


class ConstImpl(FunctionImpl):
    """Arity-0 symbol bound to a fixed numeric value."""

    def __init__(self, value):
        self.value = complex(value)

    def deriv(self, didx, args):
        return np.asarray(self.value), None


class ExpPoly:
    """Complex exponential polynomials sum_lam p_lam(z) e^(lam z).

    Closed under +, *, d/dz and antiderivative (for lam != 0 terms and
    polynomial terms), which covers trigonometric polynomials, plain
    polynomials, exponentials and their products.
    """

    def __init__(self, terms: Optional[dict[complex, tuple[complex, ...]]] = None):
        self.terms: dict[complex, tuple[complex, ...]] = {}
        if terms:
            for lam, coeffs in terms.items():
                self._add_term(complex(lam), tuple(complex(c) for c in coeffs))

    def _add_term(self, lam: complex, coeffs: tuple[complex, ...]):
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            return
        old = self.terms.get(lam)
        if old is None:
            self.terms[lam] = coeffs
        else:
            m = max(len(old), len(coeffs))
            merged = tuple(
                (old[i] if i < len(old) else 0) + (coeffs[i] if i < len(coeffs) else 0)
                for i in range(m)
            )
            while merged and merged[-1] == 0:
                merged = merged[:-1]
            if merged:
                self.terms[lam] = merged
            else:
                del self.terms[lam]

    @staticmethod
    def constant(c) -> "ExpPoly":
        return ExpPoly({0.0 + 0.0j: (complex(c),)})

    @staticmethod
    def identity() -> "ExpPoly":
        return ExpPoly({0.0 + 0.0j: (0.0, 1.0)})

    @staticmethod
    def exp(lam) -> "ExpPoly":
        return ExpPoly({complex(lam): (1.0,)})

    @staticmethod
    def cos(a, b=0.0) -> "ExpPoly":
        # cos(a z + b) = (e^(i b) e^(i a z) + e^(-i b) e^(-i a z)) / 2
        eb = complex(math.cos(b), math.sin(b))
        return ExpPoly({1j * a: (eb / 2,), -1j * a: (eb.conjugate() / 2,)})

    @staticmethod
    def sin(a, b=0.0) -> "ExpPoly":
        eb = complex(math.cos(b), math.sin(b))
        return ExpPoly({1j * a: (eb / 2j,), -1j * a: (-eb.conjugate() / 2j,)})

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = ExpPoly(self.terms)
        for lam, coeffs in other.terms.items():
            out._add_term(lam, coeffs)
        return out

    def scale(self, c) -> "ExpPoly":
        c = complex(c)
        return ExpPoly({lam: tuple(ci * c for ci in coeffs) for lam, coeffs in self.terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out = ExpPoly()
        for l1, p1 in self.terms.items():
            for l2, p2 in other.terms.items():
                conv = [0j] * (len(p1) + len(p2) - 1)
                for i, a in enumerate(p1):
                    for j, b in enumerate(p2):
                        conv[i + j] += a * b
                out._add_term(l1 + l2, tuple(conv))
        return out

    def derivative(self) -> "ExpPoly":
        out = ExpPoly()
        for lam, p in self.terms.items():
            dp = tuple((i + 1) * p[i + 1] for i in range(len(p) - 1))
            out._add_term(lam, tuple(lam * c for c in p))
            if dp:
                out._add_term(lam, dp)
        return out

    def antiderivative(self) -> "ExpPoly":
        """An antiderivative (constant of integration 0 for each term)."""
        out = ExpPoly()
        for lam, p in self.terms.items():
            if lam == 0:
                out._add_term(0.0 + 0.0j, (0j,) + tuple(c / (i + 1) for i, c in enumerate(p)))
                continue
            # solve q' + lam q = p for polynomial q, highest degree first
            q = [0j] * len(p)
            for i in range(len(p) - 1, -1, -1):
                upper = (i + 1) * q[i + 1] if i + 1 < len(q) else 0j
                q[i] = (p[i] - upper) / lam
            out._add_term(lam, tuple(q))
        return out

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return _exp_poly_values(self.terms.items(), np.asarray(z, dtype=complex))


def _exp_poly_values(terms, z: np.ndarray) -> np.ndarray:
    """The sum over terms (lam, p) of p(z) e^(lam z) at the complex points z,
    by Horner's rule in p's coefficients, each a number or an array of one
    per point (complex addition rounds each part alone, so an array of
    equal numbers gives the bits of the number)."""
    out = np.zeros_like(z)
    for lam, p in terms:
        pv = np.zeros_like(z)
        for c in reversed(p):
            pv = pv * z + c
        # pv times exp, in that order at every size: numpy computes a
        # product with a large temporary right operand as exp * pv,
        # and complex multiply is not bitwise commutative
        out = out + np.multiply(pv, np.exp(lam * z))
    return out


class ExpPolyImpl(FunctionImpl):
    """Arity-1 symbol backed by an ExpPoly; derivatives are exact."""

    def __init__(self, f: ExpPoly):
        self._derivs = [f]

    @property
    def func(self) -> ExpPoly:
        return self._derivs[0]

    def derivative(self, k: int) -> ExpPoly:
        return nth_derivative(self._derivs, k, ExpPoly.derivative)

    def deriv(self, didx, args):
        return self.derivative(didx[0])(args[0]), None


class StackedImpl(FunctionImpl):
    """The impls of consecutive blocks of ``size`` points, one per block,
    as one impl: each block's values and mask are those of its own impl at
    its own points, bit for bit, concatenated (a None mask reads as all
    safe).

    Exponential polynomials whose derivatives of the order asked have the
    same (lam, len(p)) terms in the same order make one evaluation, with
    an array of each coefficient, repeated over its block's points
    (``_exp_poly_values``); any other impls are called block by block.
    """

    def __init__(self, impls: Sequence[FunctionImpl], size: int):
        self.impls = impls
        self.size = size

    def deriv(self, didx, args):
        size = self.size
        if all(type(f) is ExpPolyImpl for f in self.impls):
            fs = [f.derivative(didx[0]) for f in self.impls]
            shape = [(lam, len(p)) for lam, p in fs[0].terms.items()]
            if all([(lam, len(p)) for lam, p in f.terms.items()] == shape for f in fs[1:]):
                # each coefficient of each term as one array over every block
                terms = [(lam, [np.repeat(cs, size) for cs in zip(*ps)])
                         for (lam, _), *ps in zip(shape, *(f.terms.values() for f in fs))]
                return _exp_poly_values(terms, np.asarray(args[0], dtype=complex)), None
        got = [f.deriv(didx, tuple([a[b * size:(b + 1) * size] for a in args]))
               for b, f in enumerate(self.impls)]
        vals = np.concatenate([np.broadcast_to(v, (size,)) for v, _ in got])
        if all(m is None for _, m in got):
            return vals, None
        return vals, np.concatenate([np.zeros(size, dtype=bool) if m is None else m
                                     for _, m in got])


class TrigPolyND(FunctionImpl):
    """Multivariate trigonometric polynomial: c0 + sum_k c_k prod_j cos(a_kj z_j + b_kj).

    Sines are encoded as phase-shifted cosines; the k-th derivative of
    cos(a z + b) is a^k cos(a z + b + k pi/2).
    """

    def __init__(self, c0: complex, terms: Sequence[tuple[complex, tuple[tuple[float, float], ...]]]):
        self.c0 = complex(c0)
        self.trig_terms = [(complex(c), tuple(fs)) for c, fs in terms]

    def deriv(self, didx, args):
        shape = np.broadcast(*args).shape if args else ()
        total = np.zeros(shape, dtype=complex)
        order = sum(didx)
        if order == 0:
            total = total + self.c0
        for c, factors in self.trig_terms:
            val = np.full(shape, c, dtype=complex)
            for j, (a, b) in enumerate(factors):
                k = didx[j]
                zj = np.asarray(args[j], dtype=complex)
                val = val * (a ** k) * np.cos(a * zj + b + k * _HALF_PI)
            total = total + val
        return total, None


def _trig_poly(coeffs: Sequence[complex]) -> ExpPoly:
    """c0 + sum_k (c_k cos(k z) + s_k sin(k z)) for k = 1..TRIG_DEGREE, of
    coeffs = [c0, c_1, s_1, c_2, s_2, ...].

    Fills one terms dict with the values, keys and key order that
    ``ExpPoly.constant(c0) + ExpPoly.cos(k).scale(c_k) + ExpPoly.sin(k).scale(s_k)
    + ...`` gives, bit for bit, without building those polynomials.
    """
    eb = complex(math.cos(0.0), math.sin(0.0))  # e^(i b) of ExpPoly.cos and .sin at b = 0
    f = ExpPoly()
    f._add_term(0.0 + 0.0j, (complex(coeffs[0]),))
    for k in range(1, TRIG_DEGREE + 1):
        a = float(k)
        c = complex(coeffs[2 * k - 1])
        f._add_term(1j * a, (eb / 2 * c,))
        f._add_term(-1j * a, (eb.conjugate() / 2 * c,))
        s = complex(coeffs[2 * k])
        f._add_term(1j * a, (eb / 2j * s,))
        f._add_term(-1j * a, (-eb.conjugate() / 2j * s,))
    return f


def _coeff(rng, codomain: str) -> complex:
    """A random coefficient in [-1, 1], or in the square [-1, 1]^2 for a
    complex codomain, whose real part is drawn first."""
    if codomain == "complex":
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return complex(rng.uniform(-1, 1))


def random_trig_poly(rng, codomain: str = "real") -> ExpPoly:
    """Random univariate trig polynomial with frequencies 1..TRIG_DEGREE, coeffs in [-1,1]."""
    return _trig_poly([_coeff(rng, codomain) for _ in range(2 * TRIG_DEGREE + 1)])


def random_positive_trig_coeffs(rng, low, high, ripple) -> list[float]:
    """c0, then c_k and s_k for k = 1..TRIG_DEGREE, of a random real trig
    polynomial bounded away from zero (>= low - 2*ripple > 0)."""
    return [rng.uniform(low, high)] + [rng.uniform(-1, 1) * ripple / TRIG_DEGREE
                                       for _ in range(2 * TRIG_DEGREE)]


def random_positive_trig_poly(rng) -> ExpPoly:
    """The trig polynomial of ``random_positive_trig_coeffs``."""
    return _trig_poly(random_positive_trig_coeffs(rng, 1.5, 2.5, 0.3))


def random_surrogate(rng, arity: int, codomain: str) -> FunctionImpl:
    if arity == 0:
        return ConstImpl(_coeff(rng, codomain))
    if arity == 1:
        return ExpPolyImpl(random_trig_poly(rng, codomain))
    terms = []
    for _ in range(3):
        c = _coeff(rng, codomain)
        factors = tuple(
            (float(rng.integers(1, 4)), rng.uniform(0, 2 * math.pi)) for _ in range(arity)
        )
        terms.append((c, factors))
    return TrigPolyND(_coeff(rng, codomain), terms)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

# cos and sin keep a float64 argument real: their values are then the real
# parts of the complex ones, bit for bit, at a fraction of the cost

class _CosImpl(FunctionImpl):
    def deriv(self, didx, args):
        k = didx[0]
        return np.cos(np.asarray(args[0]) + k * _HALF_PI), None


class _SinImpl(FunctionImpl):
    def deriv(self, didx, args):
        k = didx[0]
        return np.sin(np.asarray(args[0]) + k * _HALF_PI), None


class _ExpImpl(FunctionImpl):
    def deriv(self, didx, args):
        return np.exp(np.asarray(args[0], dtype=complex)), None


class _LogImpl(FunctionImpl):
    """Natural log on positive reals; points with base <= eps are unsafe."""

    EPS = 1e-9

    def deriv(self, didx, args):
        z = np.real(args[0])
        unsafe = (z <= self.EPS) | (np.abs(np.imag(args[0])) > 1e-9)
        safe = np.where(z > self.EPS, z, 1.0)
        k = didx[0]
        if k == 0:
            return np.log(safe).astype(complex), unsafe
        sign = -1.0 if (k - 1) % 2 else 1.0
        return (sign * math.factorial(k - 1) * safe ** (-float(k))).astype(complex), unsafe


class _AtanImpl(FunctionImpl):
    """arctan with exact higher derivatives P_k(z)/(1+z^2)^k."""

    def __init__(self):
        # P_1 = 1;  P_{k+1} = P_k' (1+z^2) - 2 k z P_k
        self._polys = [np.array([1.0])]

    def _poly(self, k: int) -> np.ndarray:
        while len(self._polys) < k:
            p = self._polys[-1]
            kk = len(self._polys)
            dp = np.polyder(p) if len(p) > 1 else np.array([0.0])
            term1 = np.polyadd(np.polymul(dp, np.array([1.0, 0.0, 1.0])), np.array([0.0]))
            term2 = np.polymul(np.array([2.0 * kk, 0.0]), p)
            self._polys.append(np.polysub(term1, term2))
        return self._polys[k - 1]

    def deriv(self, didx, args):
        z = np.real(args[0])
        unsafe = np.abs(np.imag(args[0])) > 1e-9
        k = didx[0]
        if k == 0:
            return np.arctan(z).astype(complex), unsafe
        p = self._poly(k)
        return (np.polyval(p, z) / (1.0 + z * z) ** k).astype(complex), unsafe


BUILTIN_IMPLS = {
    "cos": _CosImpl(),
    "sin": _SinImpl(),
    "exp": _ExpImpl(),
    "log": _LogImpl(),
    "atan": _AtanImpl(),
    "pi": ConstImpl(math.pi),
}
