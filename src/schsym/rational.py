"""Exact complex rationals as four reduced ints (re_num, re_den, im_num, im_den).

Both denominators are positive and each part is in lowest terms, so equal
values are equal tuples.  This is `fractions.Fraction`'s arithmetic with
`math.gcd` and no objects: the expression DAG folds every constant
coefficient with `cadd`, `cmul` and `cpow`.  Most coefficients are real, so
the real case skips the imaginary parts, and a factor of +-1 only flips
signs.
"""
from __future__ import annotations

from math import gcd

ONE = (1, 1, 0, 1)


def _qadd(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd in lowest terms."""
    if ad == bd:
        n = an + bn
        if ad == 1:
            return n, 1
        g = gcd(n, ad)
        return (n, ad) if g == 1 else (n // g, ad // g)
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + ad * bn, ad * bd
    # only a factor of g can divide the sum over lcm(ad, bd)
    s = ad // g
    n = an * (bd // g) + bn * s
    g2 = gcd(n, g)
    if g2 == 1:
        return n, s * bd
    return n // g2, s * (bd // g2)


def _qmul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad * bn/bd in lowest terms, cancelling each numerator against the
    other's denominator first."""
    if ad == 1 and bd == 1:
        return an * bn, 1
    g = gcd(an, bd)
    if g != 1:
        an, bd = an // g, bd // g
    g = gcd(bn, ad)
    if g != 1:
        bn, ad = bn // g, ad // g
    return an * bn, ad * bd


def cadd(a, b):
    """a + b."""
    if a[2] or b[2]:
        return _qadd(a[0], a[1], b[0], b[1]) + _qadd(a[2], a[3], b[2], b[3])
    return _qadd(a[0], a[1], b[0], b[1]) + (0, 1)


def cmul(a, b):
    """a * b."""
    if not b[2] and b[1] == 1 and (b[0] == 1 or b[0] == -1):
        return a if b[0] == 1 else (-a[0], a[1], -a[2], a[3])
    if not a[2] and a[1] == 1 and (a[0] == 1 or a[0] == -1):
        return b if a[0] == 1 else (-b[0], b[1], -b[2], b[3])
    if a[2] or b[2]:
        an, ad, aj, ajd = a
        bn, bd, bj, bjd = b
        return (_qadd(*_qmul(an, ad, bn, bd), *_qmul(-aj, ajd, bj, bjd))
                + _qadd(*_qmul(an, ad, bj, bjd), *_qmul(aj, ajd, bn, bd)))
    return _qmul(a[0], a[1], b[0], b[1]) + (0, 1)


def cpow(a, k: int):
    """a ** k for an int k; ZeroDivisionError for 0 ** k with k < 0."""
    if k < 0:
        if not a[2]:
            if not a[0]:
                raise ZeroDivisionError("inverse of exact zero constant")
            a = (a[1], a[0], 0, 1) if a[0] > 0 else (-a[1], -a[0], 0, 1)
        else:
            # 1/(x + iy) = (x - iy)/(x^2 + y^2), and x^2 + y^2 > 0
            dn, dd = _qadd(a[0] * a[0], a[1] * a[1], a[2] * a[2], a[3] * a[3])
            a = _qmul(a[0], a[1], dd, dn) + _qmul(-a[2], a[3], dd, dn)
        k = -k
    if not a[2]:
        return (a[0] ** k, a[1] ** k, 0, 1)  # powers of coprime ints stay coprime
    # exponentiation by squaring: O(log k) products instead of k
    out = ONE
    while k:
        if k & 1:
            out = cmul(out, a)
        k >>= 1
        if k:
            a = cmul(a, a)
    return out
