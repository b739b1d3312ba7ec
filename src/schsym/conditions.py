"""Determining equations, classifying condition and invariant integers.

The classifying condition couples a potential V(t, x) with the canonical
coefficients (tau, kappa, chi, sigma, rho) of a would-be symmetry: g's
equivalence generator must be tangent to V, so its dV component
(dv_coefficient) equals g's derivative of V along (t, x).  The residual
vanishing (as a randomized identity) decides membership.  The
second-prolongation residual built from total derivatives provides the
independent oracle for the same decision.

The invariant integers are rank decisions on sampled coefficient rows,
all made here by one rank rule (sv_rank).  Each draw's rows and their
t-derivatives come from one program run (``coefficient_rows``), in the
random stream's order; the span analysis of all of a case's draws then
runs as one stack (``span_invariants``).  One SVD gives each draw's span
dimension and row-space basis; the M and I probes (constant rows) and
the bracket rows are tested against it in one masked projection each.
One SVD of the tau/kappa columns gives both k1 and r0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .closedform import exppoly_to_expr
from .expr import (
    Expr,
    FunctionSymbol,
    HALF,
    I_UNIT,
    T_VAR,
    ZERO,
    abs_pow,
    conj_expr,
    const,
    diff,
    func_app,
    int_pow,
    jet_var,
    psi,
    subst,
    sum_,
    t as t_expr,
    total_derivative,
    var,
    x,
    x_var,
)
from .fields import (
    D,
    GeneratorCoeffs,
    Iop,
    J,
    M,
    P,
    VectorField,
    _pair_index,
    absx2,
    bracket_rows,
    coefficient_rows,
)
from .funcbank import ExpPoly, ExpPolyImpl, random_positive_trig_poly, random_trig_poly
from .numeric import AntiderivImpl, Binding, DEFAULT_TOL, EMPTY_BINDING, Workspace, is_zero


@dataclass
class Potential:
    """Potential V(t, x): an expression without jet variables."""

    expr: Expr
    n: int = 2
    binding: Binding = field(default_factory=Binding)

    def __post_init__(self):
        if self.expr.jet_vars:
            raise ValueError("a potential must not contain jet variables")
        for v in self.expr.free_vars:
            if v.kind == "x" and v.a > self.n:
                raise ValueError("potential uses a space variable beyond dimension n")


def dv_coefficient(g: GeneratorCoeffs, V: Potential) -> Expr:
    """The dV component of g's equivalence generator on V, linear in g:
    -tau_t V + tau_ttt |x|^2 / 8 - i (n/4) tau_tt + sum_a chi_a'' x_a / 2
    + sigma_t - i rho_t.  The rotation part adds nothing."""
    tau_t = diff(g.tau, T_VAR)
    tau_tt = diff(tau_t, T_VAR)
    return sum_([const(-1) * tau_t * V.expr,
                 const(Fraction(1, 8)) * diff(tau_tt, T_VAR) * absx2(g.n),
                 const(0, Fraction(-g.n, 4)) * tau_tt,
                 *(HALF * diff(diff(c, T_VAR), T_VAR) * x(a) for a, c in enumerate(g.chi, 1)),
                 diff(g.sigma, T_VAR), -I_UNIT * diff(g.rho, T_VAR)])


def classifying_residual(V: Potential, g: GeneratorCoeffs) -> Expr:
    """The classifying condition's residual, zero iff g is admissible:
    g's equivalence generator is tangent to V exactly when its dV component
    equals g's derivative of V along (t, x),

    tau V_t + xi_a V_a - dv_coefficient(g, V),
    xi_a = tau_t x_a / 2 + (rotation)_a + chi_a.

    (g.eta0 is ignored; it is constrained by the separate linear equation.)
    """
    if V.n != g.n:
        raise ValueError("dimension mismatch between potential and generator")
    half_tau_t = HALF * diff(g.tau, T_VAR)
    return sum_([g.tau * diff(V.expr, T_VAR),
                 *((half_tau_t * x(a) + rot + chi) * diff(V.expr, x_var(a))
                   for a, (rot, chi) in enumerate(zip(g.rotation_xi(), g.chi), 1)),
                 -dv_coefficient(g, V)])


def eta0_residual(V: Potential, eta0: Expr) -> Expr:
    """i eta0_t + eta0_aa + V eta0: zero iff eta0 solves the equation."""
    res = I_UNIT * diff(eta0, T_VAR)
    for a in range(1, V.n + 1):
        res = res + diff(diff(eta0, x_var(a)), x_var(a))
    return res + V.expr * eta0


def prolonged_residual(V: Potential, f: VectorField) -> Expr:
    """Second-prolongation residual on the solution manifold.

    Builds eta^t and eta^{aa} by total derivatives, assembles
    i eta^t + eta^{aa} + (tau V_t + xi^a V_a) psi + V eta, and substitutes
    psi_t (and its conjugate) from the equation.  The result is an
    expression in the remaining jet variables; its vanishing as a
    randomized identity decides invariance.
    """
    if V.n != f.n:
        raise ValueError("dimension mismatch between potential and field")
    n = f.n
    zeros = (0,) * (n + 1)

    def jet(*orders):
        alpha = list(zeros)
        for d in orders:
            alpha[d] += 1
        return var(jet_var(alpha))

    psi0 = jet()
    psi_t = jet(0)
    W = f.coef_psi - f.coef_t * psi_t
    for a in range(1, n + 1):
        W = W - f.coef_x[a - 1] * jet(a)

    eta_t = total_derivative(W, 0) + f.coef_t * jet(0, 0)
    for a in range(1, n + 1):
        eta_t = eta_t + f.coef_x[a - 1] * jet(0, a)

    eta_lap = ZERO
    for a in range(1, n + 1):
        block = total_derivative(total_derivative(W, a), a) + f.coef_t * jet(0, a, a)
        for c in range(1, n + 1):
            block = block + f.coef_x[c - 1] * jet(a, a, c)
        eta_lap = eta_lap + block

    drift = f.coef_t * diff(V.expr, T_VAR)
    for a in range(1, n + 1):
        drift = drift + f.coef_x[a - 1] * diff(V.expr, x_var(a))

    res = I_UNIT * eta_t + eta_lap + drift * psi0 + V.expr * f.coef_psi

    lap = sum_(jet(a, a) for a in range(1, n + 1))
    lap_c = conj_expr(lap)
    repl = {
        jet_var([1] + [0] * n): I_UNIT * lap + I_UNIT * V.expr * psi0,
        jet_var([1] + [0] * n, conj=True):
            const(0, -1) * lap_c + const(0, -1) * conj_expr(V.expr) * psi(n, conj=True),
    }
    return subst(res, repl)


# ---------------------------------------------------------------------------
# invariant integers
# ---------------------------------------------------------------------------

class InvariantTuple(NamedTuple):
    k0: int
    k1: int
    k2: int
    k3: int
    r0: int

    @property
    def dim(self) -> int:
        return self.k0 + self.k1 + self.k2 + self.k3

    def constraint_violations(self, n: int = 2) -> list[str]:
        """Structural constraints every admissible tuple must satisfy."""
        bad = []
        if self.k0 != 2:
            bad.append(f"k0={self.k0} but the kernel is two-dimensional")
        if (self.k2, self.r0) == (1, 1):
            bad.append("(k2, r0) = (1, 1) is impossible")
        if (self.k2, self.r0) != (0, 0) and self.k3 == 2:
            bad.append("k3=2 is impossible when (k2, r0) != (0, 0)")
        top = n * (n + 3) // 2 + 5
        if self.dim > top:
            bad.append(f"dim={self.dim} exceeds the bound {top}")
        if self.k0 + self.k1 > 2 * n + 2:
            bad.append(f"(P,M,I)-block dimension {self.k0 + self.k1} exceeds {2 * n + 2}")
        return bad


class SpanError(ValueError):
    """The generator list does not span an admissible algebra."""


def sv_rank(s: np.ndarray, tol: float):
    """The rank rule, on descending singular values s of shape (..., r).

    0 if the largest singular value s0 is 0, else the number of singular
    values above tol * max(1, s0): an int for one matrix, an int array for
    a stack of them.
    """
    s0 = s[..., :1]
    ranks = np.sum((s > tol * np.maximum(1.0, s0)) & (s0 > 0), axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def _rank(mat: np.ndarray, tol: float):
    """sv_rank of a matrix, or of each matrix in a stack (..., k, n)."""
    return sv_rank(np.linalg.svd(mat, compute_uv=False), tol)


def _row_space(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, row-space bases) of a stack (draws, k, cols), from one SVD.

    The ranks are sv_rank's; a basis keeps the right singular vectors
    above numpy's default least-squares cut (rcond=None: eps * max(k, cols)
    * s0) and zeroes the others, so projecting onto it leaves the residual
    a least-squares solve against that matrix would leave.
    """
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > np.finfo(float).eps * max(rows.shape[1:]) * s[:, :1]
    return sv_rank(s, tol), vt * keep[..., None]


def _inside(basis: np.ndarray, cand: np.ndarray, tol: float) -> np.ndarray:
    """(draws, c) flags: row b of cand (c, cols), or of each draw's cand, is
    within tol * (1 + |b|) of the span of that draw's basis (_row_space)."""
    resid = cand - (cand @ basis.swapaxes(1, 2)) @ basis
    return np.linalg.norm(resid, axis=-1) <= tol * (1.0 + np.linalg.norm(cand, axis=-1))


def sample_rows(gs: Sequence[GeneratorCoeffs], binding: Optional[Binding] = None,
                rng: Optional[np.random.Generator] = None, tapes: Optional[dict] = None):
    """coefficient_rows of gs at 13 times drawn from rng, in one tape run;
    raises SpanError, before drawing, for an empty list or one with eta0."""
    if not gs:
        raise SpanError("empty generator list")
    if any(g.eta0 is not ZERO for g in gs):
        raise SpanError("invariants are defined for the essential part (eta0 = 0)")
    rng = np.random.default_rng(0) if rng is None else rng
    return coefficient_rows(gs, binding or EMPTY_BINDING, sample_times(rng), tapes)


def sample_times(rng: np.random.Generator) -> np.ndarray:
    """The 13 times in [0.32, 1.68] at which ``sample_rows`` samples a draw."""
    return rng.uniform(0.32, 1.68, size=13)


def span_invariants(samples: Sequence[tuple], tol: float = DEFAULT_TOL) -> list:
    """Each draw's invariant tuple, or the SpanError invariants would raise,
    for the sample_rows results of draws with the same generator count.

    The draws are stacked (draws, k, cols), one stacked call per decision.
    A probe or bracket row b is in the span iff its residual after
    projection onto the row-space basis is at most max(tol, 1e-7) *
    (1 + |b|).  The probes are the constant rows of M and I: ones in the
    sigma or the rho samples; the bracket rows are ``bracket_rows``.  The
    first row outside is reported: M, then I, then the pairs (i, j),
    i < j, in row-major order.  The left singular vectors of the tau/kappa
    columns past their rank are the tau- and kappa-free combinations; r0
    is the largest rank of their chi tuples at one sampled time.
    """
    if not samples:
        return []
    rows, drows, slices = zip(*samples)
    rows, drows, slices = np.stack(rows), np.stack(drows), slices[0]
    k, m = rows.shape[1], slices["tau"].stop
    dim, basis = _row_space(rows, tol)
    span_tol = max(tol, 1e-7)
    probes = np.zeros((2, rows.shape[2]))
    probes[0, slices["sigma"]] = probes[1, slices["rho"]] = 1.0
    probes_in = _inside(basis, probes, span_tol)
    pairs_in = _inside(basis, bracket_rows(rows, drows, slices), span_tol)

    # columns run tau, kappa, chi, sigma, rho, so each head block is a prefix
    rank_tau = _rank(rows[..., slices["tau"]], tol)
    u, s, _ = np.linalg.svd(rows[..., :slices["kappa"].stop], full_matrices=True)
    rank_tau_kappa = sv_rank(s, tol)
    rank_tkc = _rank(rows[..., :slices["chi"].stop], tol)
    # one (k x n) chi matrix per draw and sampled time, ranked in one stacked SVD
    chi = u.swapaxes(1, 2) @ rows[..., slices["chi"]]
    chi[np.arange(k) < rank_tau_kappa[:, None]] = 0.0
    r0 = _rank(chi.reshape(len(chi), k, -1, m).transpose(0, 3, 1, 2), tol).max(axis=1)
    k0 = dim - rank_tkc
    k1 = (dim - rank_tau_kappa) - k0
    k2 = (dim - rank_tau) - k1 - k0
    tuples = np.stack([k0, k1, k2, rank_tau, r0], axis=1).tolist()
    i, j = _pair_index(k)
    out = []
    for p_in, b_in, tup in zip(probes_in, pairs_in, tuples):
        if not p_in.all():
            out.append(SpanError(f"{('M', 'I')[np.argmin(p_in)]} is missing from the span"))
        elif not b_in.all():
            miss = np.argmin(b_in)
            out.append(SpanError(f"span is not closed under the bracket "
                                 f"(generators {i[miss]} and {j[miss]})"))
        else:
            out.append(InvariantTuple(*tup))
    return out


def invariants(gs: Sequence[GeneratorCoeffs], binding: Optional[Binding] = None,
               rng: Optional[np.random.Generator] = None,
               tol: float = DEFAULT_TOL) -> InvariantTuple:
    """Invariant integers (k0, k1, k2, k3, r0) of the span of gs.

    Requires the span to be closed under the bracket and to contain the
    phase-rotation and scaling generators; raises SpanError otherwise.

    It is span_invariants of one draw of sample_rows; a case's verifier
    samples its draws from the random stream in this same order and
    analyses them as one stack after the last.
    """
    tup, = span_invariants([sample_rows(gs, binding, rng)], tol)
    if isinstance(tup, SpanError):
        raise tup
    return tup


# ---------------------------------------------------------------------------
# kernel check and lemma fixtures
# ---------------------------------------------------------------------------

def kernel_check(rng: Optional[np.random.Generator] = None, n: int = 2,
                 tol: float = DEFAULT_TOL) -> bool:
    """True iff M and I annihilate the classifying residual for random
    potentials while no other single elementary generator does (each has
    four draws in which to leave a nonzero residual)."""
    if rng is None:
        rng = np.random.default_rng(0)
    sym = FunctionSymbol("V_probe", n + 1, "complex")
    Vexpr = func_app(sym, (t_expr(),) + tuple(x(a) for a in range(1, n + 1)))
    V = Potential(Vexpr, n)

    for good in (M(1, n), Iop(1, n)):
        res = classifying_residual(V, good)
        if not is_zero(res, trials=3, points=60, rng=rng, tol=tol):
            return False

    others = [D(1, n), D(var(T_VAR), n), P(*([1] + [0] * (n - 1)), n=n)]
    if n >= 2:
        others.append(J(1, 2, n))
    for bad in others:
        res = classifying_residual(V, bad)
        ok_somewhere = False
        for _ in range(4):
            if not is_zero(res, trials=1, points=40, rng=rng, tol=tol):
                ok_somewhere = True
                break
        if not ok_somewhere:
            return False
    return True


def lemma_fixtures(rng: Optional[np.random.Generator] = None, tol: float = DEFAULT_TOL) -> dict:
    """Two structural facts about generalized-shift generators at n=2.

    1. If P(1,0) + rho1 I is a symmetry of V = U(t, x2) - i rho1' x1, then
       P(t,0) + rho2 I with rho2' = t rho1' is one as well.
    2. A shift generator with independent chi components is carried by a
       time reparameterization and a shift to the normal form
       P(h cos t, h sin t) + rho I (sigma part numerically zero).
    """
    from . import equivalence as eq  # equivalence imports this module

    if rng is None:
        rng = np.random.default_rng(0)
    report: dict = {}

    # -- lemma on the induced P(t,0) symmetry
    ws = Workspace()
    r1_poly = random_trig_poly(rng, "real")
    r1 = ws.declare("rho1", 1, "real", ExpPolyImpl(r1_poly))
    integrand = ExpPoly.identity() * r1_poly.derivative()  # t * rho1'
    r2 = ws.declare("rho2", 1, "real", ExpPolyImpl(integrand.antiderivative()))
    Usym = ws.declare("U_l8", 2, "complex")
    r1_app = func_app(r1, [t_expr()])
    Vexpr = func_app(Usym, [t_expr(), x(2)]) - I_UNIT * diff(r1_app, T_VAR) * x(1)
    V = Potential(Vexpr, 2, ws.binding)
    g1 = P(1, 0).add(Iop(r1_app, 2))
    g2 = P(var(T_VAR), 0).add(Iop(func_app(r2, [t_expr()]), 2))
    ok1 = is_zero(classifying_residual(V, g1), binding=ws.binding, rng=rng, tol=tol)
    ok2 = is_zero(classifying_residual(V, g2), binding=ws.binding, rng=rng, tol=tol)
    report["shift_pair"] = {"base_symmetry": ok1, "induced_symmetry": ok2,
                            "passed": ok1 and ok2}

    # -- lemma on reduction to P(h cos t, h sin t) + rho I
    ws2 = Workspace()
    h_poly = random_positive_trig_poly(rng)
    theta_poly = ExpPoly.identity() + random_trig_poly(rng, "real").scale(0.15)
    h_expr = exppoly_to_expr(h_poly)
    theta_expr = exppoly_to_expr(theta_poly)
    cosT = func_app(ws2.table.get("cos"), [theta_expr])
    sinT = func_app(ws2.table.get("sin"), [theta_expr])
    sigma_expr = exppoly_to_expr(random_trig_poly(rng, "real"))
    rho_expr = exppoly_to_expr(random_trig_poly(rng, "real"))
    g = P(h_expr * cosT, h_expr * sinT)
    g = GeneratorCoeffs(2, g.tau, g.kappa, g.chi, sigma_expr, rho_expr)

    trD = eq.EquivTransformation.elementary_D(theta_expr, 2, ws2)
    g_mid = eq.pushforward(g, trD)
    # kill the remaining sigma part with a shift X = lambda(t) * chi
    tinv_app = trD.tinv_app()
    sig_til = g_mid.sigma
    h2_til = subst(abs_pow(diff(theta_expr, T_VAR), 1) * h_expr * h_expr,
                   {T_VAR: tinv_app})
    lam_integrand = const(-2) * sig_til * int_pow(h2_til, -1)
    # lambda's value is an antiderivative's free constant (AntiderivImpl),
    # drawn so that no fixed number can be a root of a wrong identity
    lam = ws2.declare("lam_1", 1, "real",
                      AntiderivImpl(lam_integrand, ws2.binding, rng.uniform(-1.0, 1.0)))
    lam_app = func_app(lam, [t_expr()])
    Xshift = (lam_app * g_mid.chi[0], lam_app * g_mid.chi[1])
    trP = eq.EquivTransformation.elementary_P(Xshift, 2, ws2)
    g_out = eq.pushforward(g_mid, trP)

    cos_t = func_app(ws2.table.get("cos"), [t_expr()])
    sin_t = func_app(ws2.table.get("sin"), [t_expr()])
    form = g_out.chi[0] * sin_t - g_out.chi[1] * cos_t
    ok_form = is_zero(form, binding=ws2.binding, rng=rng, tol=tol)
    ok_sigma = is_zero(g_out.sigma, binding=ws2.binding, rng=rng, tol=max(tol, DEFAULT_TOL))
    ok_tau = g_out.tau is ZERO and all(k is ZERO for k in g_out.kappa)
    report["polar_reduction"] = {"target_form": ok_form, "sigma_killed": ok_sigma,
                                 "no_tau_kappa": ok_tau,
                                 "passed": ok_form and ok_sigma and ok_tau}
    report["passed"] = report["shift_pair"]["passed"] and report["polar_reduction"]["passed"]
    return report
