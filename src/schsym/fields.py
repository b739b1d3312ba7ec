"""Canonical symmetry vector fields and their Lie-algebra structure.

A generator is stored in the canonical coefficient form
(tau, kappa, chi, sigma, rho, eta0): time component tau(t), rotation
coefficients kappa_ab (a<b, multiplying J_ab = x_a d_b - x_b d_a),
generalized-shift tuple chi(t), phase part sigma(t), scaling part rho(t)
and inhomogeneous part eta0(t, x), ZERO when the generator has none.

Brackets come in three flavours: the closed-form structural bracket on
canonical data; the generic commutator of first-order operators on
(t, x, psi, psi*), used as an independent oracle for the former; and
sampled bracket rows for span analysis, computed from the generators'
sampled data and their t-derivatives without building the brackets.
Every rank decision on sampled rows is made in ``conditions``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .expr import (
    Const,
    Expr,
    HALF,
    I_UNIT,
    ONE,
    T_VAR,
    ZERO,
    as_expr,
    conj_expr,
    const,
    depends_only_on_t,
    diff,
    has_complex_symbols,
    jet_var,
    prod,
    psi,
    sum_,
    x,
    x_var,
)
from .numeric import Binding, StackedBinding, UnsafeSampleError, eval_batch, owned_tape

I8 = const(0, Fraction(1, 8))  # i/8
I2 = const(0, Fraction(1, 2))  # i/2


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def _matmul(A, B) -> tuple:
    """The exact product of two n x n matrices, a tuple of rows."""
    n = len(A)
    return tuple(tuple(sum(A[a][c] * B[c][b] for c in range(n)) for b in range(n))
                 for a in range(n))


@dataclass(frozen=True)
class GeneratorCoeffs:
    """Canonical Lie-symmetry vector field data at space dimension n."""

    n: int
    tau: Expr
    kappa: tuple[Expr, ...]  # free of t and x; strict upper triangle (1,2),(1,3),...,(n-1,n)
    chi: tuple[Expr, ...]
    sigma: Expr
    rho: Expr
    eta0: Expr = ZERO  # a None passed in is stored as ZERO

    def __post_init__(self):
        if self.eta0 is None:
            object.__setattr__(self, "eta0", ZERO)
        if len(self.chi) != self.n:
            raise ValueError("chi must have n components")
        if len(self.kappa) != len(_pairs(self.n)):
            raise ValueError("kappa must list the strict upper triangle")
        object.__setattr__(self, "kappa", tuple(as_expr(k) for k in self.kappa))
        for k in self.kappa:
            if k.free_vars:
                raise ValueError("kappa entries must be constants, free of t and x")
            if has_complex_symbols(k):
                raise ValueError("kappa must not contain complex-codomain symbols")
            if not k.is_real:
                raise ValueError("kappa must be real-valued")
        for name, e in (("tau", self.tau), ("sigma", self.sigma), ("rho", self.rho),
                        *((f"chi{i+1}", c) for i, c in enumerate(self.chi))):
            if not depends_only_on_t(e):
                raise ValueError(f"{name} must depend on t only")
            if has_complex_symbols(e):
                raise ValueError(f"{name} must not contain complex-codomain symbols")
            if not e.is_real:
                raise ValueError(f"{name} must be real-valued")
        if self.eta0.jet_vars:
            raise ValueError("eta0 must not contain jet variables")

    # -- linear structure

    def add(self, other: "GeneratorCoeffs") -> "GeneratorCoeffs":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return GeneratorCoeffs(
            self.n, self.tau + other.tau,
            tuple(a + b for a, b in zip(self.kappa, other.kappa)),
            tuple(a + b for a, b in zip(self.chi, other.chi)),
            self.sigma + other.sigma, self.rho + other.rho, self.eta0 + other.eta0)

    def scale(self, c) -> "GeneratorCoeffs":
        ce = as_expr(c)
        return GeneratorCoeffs(
            self.n, ce * self.tau, tuple(ce * k for k in self.kappa),
            tuple(ce * ch for ch in self.chi), ce * self.sigma, ce * self.rho,
            ce * self.eta0)

    def kappa_matrix(self) -> list[list[Expr]]:
        """K with rotation part xi_a = K_ab x_b; K_ba = kappa_ab for a<b."""
        K = [[ZERO] * self.n for _ in range(self.n)]
        for (a, b), k in zip(_pairs(self.n), self.kappa):
            K[b - 1][a - 1] = k
            K[a - 1][b - 1] = -k
        return K

    def rotation_xi(self) -> tuple[Expr, ...]:
        K = self.kappa_matrix()
        return tuple(
            sum_(K[a][b] * x(b + 1) for b in range(self.n) if K[a][b] is not ZERO)
            for a in range(self.n))


def zero_gen(n: int) -> GeneratorCoeffs:
    return GeneratorCoeffs(n, ZERO, (ZERO,) * len(_pairs(n)), (ZERO,) * n, ZERO, ZERO)


def D(tau, n: int = 2) -> GeneratorCoeffs:
    return replace(zero_gen(n), tau=as_expr(tau))


def J(a: int, b: int, n: int = 2) -> GeneratorCoeffs:
    kap = [ZERO] * len(_pairs(n))
    kap[_pairs(n).index((a, b))] = ONE
    return replace(zero_gen(n), kappa=tuple(kap))


def P(*chi, n: Optional[int] = None) -> GeneratorCoeffs:
    chis = tuple(as_expr(c) for c in chi)
    return replace(zero_gen(len(chis) if n is None else n), chi=chis)


def M(sigma=1, n: int = 2) -> GeneratorCoeffs:
    return replace(zero_gen(n), sigma=as_expr(sigma))


def Iop(rho=1, n: int = 2) -> GeneratorCoeffs:
    return replace(zero_gen(n), rho=as_expr(rho))


def Z(eta0: Expr, n: int = 2) -> GeneratorCoeffs:
    return replace(zero_gen(n), eta0=eta0)


@dataclass(frozen=True)
class VectorField:
    """General first-order operator on (t, x, psi, psi*)."""

    n: int
    coef_t: Expr
    coef_x: tuple[Expr, ...]
    coef_psi: Expr
    coef_psi_star: Expr

    def apply_to(self, h: Expr) -> Expr:
        out = self.coef_t * diff(h, T_VAR)
        for a in range(1, self.n + 1):
            out = out + self.coef_x[a - 1] * diff(h, x_var(a))
        out = out + self.coef_psi * diff(h, jet_var((0,) * (self.n + 1), False))
        out = out + self.coef_psi_star * diff(h, jet_var((0,) * (self.n + 1), True))
        return out

    def sub(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.n, self.coef_t - other.coef_t,
            tuple(a - b for a, b in zip(self.coef_x, other.coef_x)),
            self.coef_psi - other.coef_psi,
            self.coef_psi_star - other.coef_psi_star)

    def components(self) -> tuple[Expr, ...]:
        return (self.coef_t, *self.coef_x, self.coef_psi, self.coef_psi_star)


def absx2(n: int) -> Expr:
    return sum_(x(a) * x(a) for a in range(1, n + 1))


def expand(g: GeneratorCoeffs) -> VectorField:
    """Canonical data to the explicit first-order operator.

    Each coefficient is one n-ary sum_: its summands share no monomial, so
    it is the node the chain of binary sums would build.
    """
    n = g.n
    tau_t = diff(g.tau, T_VAR)
    tau_tt = diff(tau_t, T_VAR)
    xi_rot = g.rotation_xi()
    coef_x = tuple(sum_((prod((HALF, tau_t, x(a))), xi_rot[a - 1], g.chi[a - 1]))
                   for a in range(1, n + 1))
    q = sum_((prod((I8, tau_tt, absx2(n))),
              *(prod((I2, diff(g.chi[a - 1], T_VAR), x(a))) for a in range(1, n + 1)),
              g.rho, I_UNIT * g.sigma))
    coef_psi = q * psi(n) + g.eta0
    coef_psi_star = conj_expr(q) * psi(n, conj=True) + conj_expr(g.eta0)
    return VectorField(n, g.tau, coef_x, coef_psi, coef_psi_star)


def bracket_generic(f1: VectorField, f2: VectorField) -> VectorField:
    """Commutator of first-order operators: coefficients f1(f2_i) - f2(f1_i)."""
    if f1.n != f2.n:
        raise ValueError("dimension mismatch")
    return VectorField(
        f1.n,
        f1.apply_to(f2.coef_t) - f2.apply_to(f1.coef_t),
        tuple(f1.apply_to(c2) - f2.apply_to(c1)
              for c1, c2 in zip(f1.coef_x, f2.coef_x)),
        f1.apply_to(f2.coef_psi) - f2.apply_to(f1.coef_psi),
        f1.apply_to(f2.coef_psi_star) - f2.apply_to(f1.coef_psi_star))


def _z_action(g: GeneratorCoeffs, zeta: Expr) -> Expr:
    """The listed [., Z(zeta)] rules, applied for a single generator g."""
    if zeta is ZERO:
        return ZERO
    n = g.n
    tau_t = diff(g.tau, T_VAR)
    out = g.tau * diff(zeta, T_VAR)
    for a in range(1, n + 1):
        out = out + HALF * tau_t * x(a) * diff(zeta, x_var(a))
    out = out - I8 * diff(tau_t, T_VAR) * absx2(n) * zeta
    xi_rot = g.rotation_xi()
    for a in range(1, n + 1):
        out = out + xi_rot[a - 1] * diff(zeta, x_var(a))
        out = out + g.chi[a - 1] * diff(zeta, x_var(a))
        out = out - I2 * diff(g.chi[a - 1], T_VAR) * x(a) * zeta
    out = out - I_UNIT * g.sigma * zeta - g.rho * zeta
    return out


def bracket_structural(g1: GeneratorCoeffs, g2: GeneratorCoeffs) -> GeneratorCoeffs:
    """Closed-form bracket from the commutation table of the canonical fields.

    Each chi component is a chain of sums, one step per group of summands.
    A step adds its group's summands straight into the running sum, which
    builds the node the group's own Sum would.  Steps stay apart: a
    monomial that cancels at one step and comes back at a later one would
    move in the term order.
    """
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    n = g1.n
    t1, t2 = g1.tau, g2.tau
    t1t, t2t = diff(t1, T_VAR), diff(t2, T_VAR)
    tau = t1 * t2t - t2 * t1t

    K1 = g1.kappa_matrix()
    K2 = g2.kappa_matrix()
    K21, K12 = _matmul(K2, K1), _matmul(K1, K2)
    kappa = tuple(K21[b - 1][a - 1] - K12[b - 1][a - 1] for a, b in _pairs(n))

    chi = []
    for a in range(n):
        c = t1 * diff(g2.chi[a], T_VAR) - HALF * t1t * g2.chi[a]
        c = sum_((c, -(t2 * diff(g1.chi[a], T_VAR)), prod((HALF, t2t, g1.chi[a]))))
        c = sum_((c, *(-K1[a][b] * g2.chi[b] for b in range(n))))
        c = sum_((c, *(K2[a][b] * g1.chi[b] for b in range(n))))
        chi.append(c)

    sigma = t1 * diff(g2.sigma, T_VAR) - t2 * diff(g1.sigma, T_VAR)
    pp = ZERO
    for a in range(n):
        pp = pp + g1.chi[a] * diff(g2.chi[a], T_VAR) - g2.chi[a] * diff(g1.chi[a], T_VAR)
    sigma = sigma + HALF * pp

    rho = t1 * diff(g2.rho, T_VAR) - t2 * diff(g1.rho, T_VAR)

    eta0 = _z_action(g1, g2.eta0) - _z_action(g2, g1.eta0)
    return GeneratorCoeffs(n, tau, kappa, tuple(chi), sigma, rho, eta0)


# ---------------------------------------------------------------------------
# numeric span analysis
# ---------------------------------------------------------------------------

def coefficient_rows(gs: Sequence[GeneratorCoeffs], binding: Binding,
                     tvals: np.ndarray, tapes: Optional[dict] = None):
    """Sampled coefficient matrices of the canonical data and of its first
    t-derivatives.

    Returns (rows, drows, slices): row i of rows is the concatenation of
    gs[i]'s tau samples, kappa entries, chi samples (componentwise), sigma
    and rho samples; drows holds the same samples of the t-derivatives,
    whose kappa entries are zeros.  A kappa entry is sampled as the other
    coefficients are, and its row holds its first sample.  One program
    samples every coefficient and derivative that is not a constant: the
    tape of the tuple of those roots, kept in ``tapes``, a caller's dict
    (``numeric.owned_tape``), or else in one for this call, run without a
    subterm scale, which rows do not read.  Where a node of that run is
    unsafe, UnsafeSampleError is raised: singular or undefined at a sampled
    time.  It names the first root that is unsafe in a run of its own, the
    coefficients of every generator first and then the derivatives.

    tvals may be 2-d, one row of times per draw, with binding a sequence of
    the draws' bindings: the tape then runs once over all the times
    (``numeric.StackedBinding``), and rows and drows gain a leading axis,
    one entry per draw, each bit for bit that draw's own.
    """
    m, n, k = np.shape(tvals)[-1], gs[0].n, len(gs)
    lead = np.shape(tvals)[:-1]
    if any(g.n != n for g in gs):
        raise ValueError("dimension mismatch in generator list")
    npair = len(_pairs(n))
    names = ("tau", *(f"kappa{a}{b}" for a, b in _pairs(n)),
             *(f"chi{a}" for a in range(1, n + 1)), "sigma", "rho")
    coeffs = [e for g in gs for e in (g.tau, *g.kappa, *g.chi, g.sigma, g.rho)]
    exprs = coeffs + [diff(e, T_VAR) for e in coeffs]
    env = {T_VAR: np.asarray(tvals, dtype=complex).ravel()}
    if lead:
        binding = StackedBinding(binding, m)
    tapes = {} if tapes is None else tapes
    roots = tuple(dict.fromkeys(e for e in exprs if type(e) is not Const))
    sampled = {}
    if roots:
        vals, _, unsafe = eval_batch(owned_tape(tapes, roots), binding, env, scale=False)
        if unsafe.any():
            for e in roots:  # in the order of their first places in exprs
                alone = eval_batch(e, binding, env, scale=False)[2]
                if alone.any():
                    i, field = divmod(exprs.index(e) % len(coeffs), len(names))
                    raise UnsafeSampleError(
                        f"generator {i}: {names[field]} is singular or undefined at "
                        f"{int(alone.sum())} of {alone.size} sampled times")
            raise UnsafeSampleError(f"the coefficients are singular or undefined at "
                                    f"{int(unsafe.sum())} of {unsafe.size} sampled times")
        sampled = dict(zip(roots, np.real(vals)))
    samples = np.empty((*lead, len(exprs), m))
    for p, e in enumerate(exprs):
        # a constant's real part is the one eval_batch would give
        samples[..., p, :] = e.value().real if type(e) is Const else sampled[e].reshape(*lead, m)
    samples = samples.reshape(*lead, 2, k, len(names), m)
    rows, drows = (np.concatenate([s[..., 0, :], s[..., 1:npair + 1, 0],
                                   s[..., npair + 1:, :].reshape(*lead, k, (n + 2) * m)], axis=-1)
                   for s in (samples[..., 0, :, :, :], samples[..., 1, :, :, :]))
    slices = {
        "tau": slice(0, m),
        "kappa": slice(m, m + npair),
        "chi": slice(m + npair, m + npair + n * m),
        "sigma": slice(m + npair + n * m, m + npair + n * m + m),
        "rho": slice(m + npair + n * m + m, rows.shape[-1]),
    }
    return rows, drows, slices


@functools.cache
def _pair_index(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the pairs i < j of k items, in
    row-major order (``_pairs(k)``, from 0)."""
    i, j = (np.array(_pairs(k), dtype=np.intp).reshape(-1, 2) - 1).T
    i.flags.writeable = j.flags.writeable = False
    return i, j


def bracket_rows(rows: np.ndarray, drows: np.ndarray, slices: dict) -> np.ndarray:
    """Sampled rows of the brackets [gs[i], gs[j]], i < j, one row per pair
    in row-major order: (0, 1), (0, 2), ..., (1, 2), ...

    (rows, drows, slices) is coefficient_rows(gs, ...); rows and drows may
    be stacks of draws along leading axes.  The bracket's canonical data
    are bilinear in the generators' data and their first t-derivatives (the
    formulas of bracket_structural), so the sampled derivatives give every
    bracket row without building the brackets; the rotation matrices K come
    from the rows' kappa entries.  Rows carry no eta0, so eta0 is ignored.
    """
    m = slices["tau"].stop
    k, n = rows.shape[-2], (slices["chi"].stop - slices["chi"].start) // m
    i, j = _pair_index(k)
    rows, drows = np.moveaxis(rows, -2, 0), np.moveaxis(drows, -2, 0)  # generators first

    def skew(a, b):  # a_i b_j - a_j b_i for each pair
        return a[i] * b[j] - a[j] * b[i]

    tau, dtau = rows[..., slices["tau"]], drows[..., slices["tau"]]
    chi = rows[..., slices["chi"]].reshape(*rows.shape[:-1], n, m)
    dchi = drows[..., slices["chi"]].reshape(*rows.shape[:-1], n, m)
    lo, hi = _pair_index(n)
    kappa = rows[..., slices["kappa"]]
    K = np.zeros((*kappa.shape[:-1], n, n))  # K[..., b, a] = kappa_ab, K[..., a, b] = -kappa_ab
    K[..., hi, lo] = kappa
    K[..., lo, hi] = 0.0 - kappa  # a zero entry stays +0.0
    KK = K[j] @ K[i] - K[i] @ K[j]
    out = np.empty((len(i), *rows.shape[1:]))
    out[..., slices["tau"]] = skew(tau, dtau)
    out[..., slices["kappa"]] = KK[..., hi, lo]
    out[..., slices["chi"]] = (skew(tau[..., None, :], dchi) - 0.5 * skew(dtau[..., None, :], chi)
                               - (K[i] @ chi[j] - K[j] @ chi[i])).reshape(*out.shape[:-1], n * m)
    out[..., slices["sigma"]] = (skew(tau, drows[..., slices["sigma"]])
                                 + 0.5 * skew(chi, dchi).sum(axis=-2))
    out[..., slices["rho"]] = skew(tau, drows[..., slices["rho"]])
    return np.moveaxis(out, 0, -2)
