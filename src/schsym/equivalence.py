"""Admissible transformations, their action on potentials, and pushforwards.

A transformation is the tuple (T, O, X, Sigma, Upsilon, Lambda): a time
reparameterization with T_t != 0, a constant orthogonal matrix, a
time-dependent shift, phase and amplitude adjustments, and a solution
summand.  Lambda is not stored, since it does not act on the potential.
The action on potentials composes the closed-form target potential with
the inverse variable map.  An inverse time map T^-1 is a
fresh function symbol evaluated by root finding, with derivatives from the
chain-rule expressions H_k, except for a map built by ``invert``, whose
inverse is the original T, and a map whose T is t, whose inverse is t.
A generator of the equivalence algebra is its ``GeneratorCoeffs``:
``pushforward`` moves it along any map, one closed-form rule per
elementary factor, and ``flow`` is a map tangent to its flow, checked
against its dV component ``conditions.dv_coefficient``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .conditions import Potential, dv_coefficient
from .expr import (
    Expr,
    FuncApp,
    FunctionSymbol,
    HALF,
    I_UNIT,
    T_VAR,
    ZERO,
    abs_pow,
    as_expr,
    conj_expr,
    const,
    depends_only_on_t,
    diff,
    func_app,
    im_part,
    int_pow,
    post_order,
    subst,
    sum_,
    t as t_expr,
    x,
    x_var,
)
from .fields import GeneratorCoeffs, _matmul, _pairs, absx2
from .numeric import (
    Binding,
    DEFAULT_TOL,
    InverseImpl,
    SOLVE_BRACKET,
    T_RANGE,
    Workspace,
    draw_env,
    eval_batch,
    is_zero,
)

# numbers the inverse time maps Tinv1, Tinv2, ...: FunctionSymbol compares by
# name and compose merges bindings, so one command's names must differ
_tinv_numbers = itertools.count(1)


def restart_inverse_names() -> None:
    """Name the next inverse time map Tinv1, as each CLI command does."""
    global _tinv_numbers
    _tinv_numbers = itertools.count(1)


class UndecidableTemplate(ValueError):
    """Free-equation reducibility cannot be decided for this template."""


def _identity_matrix(n: int):
    return tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                 for i in range(n))


def rational_rotation(m: Fraction):
    """Exactly orthogonal 2x2 rotation from a rational circle point:
    (cos, sin) = ((1-m^2)/(1+m^2), 2m/(1+m^2))."""
    m = Fraction(m)
    c = (1 - m * m) / (1 + m * m)
    s = 2 * m / (1 + m * m)
    return ((c, -s), (s, c))


@dataclass
class EquivTransformation:
    """One admissible-map candidate (T, O, X, Sigma, Upsilon).

    The map keeps the target expression of each source expression it has
    acted on (``act_on_potential``), as it keeps its inverse time map; the
    table takes no part in equality or repr.
    """

    n: int
    T: Expr
    O: tuple[tuple[Fraction, ...], ...]
    X: tuple[Expr, ...]
    Sigma: Expr
    Upsilon: Expr
    binding: Binding = field(default_factory=Binding)
    bracket: tuple[float, float] = SOLVE_BRACKET
    eps: int = 0
    _tinv: Optional[Expr] = None
    _targets: dict[Expr, Expr] = field(default_factory=dict, init=False,
                                       compare=False, repr=False)

    def __post_init__(self):
        if len(self.X) != self.n or len(self.O) != self.n:
            raise ValueError("dimension mismatch in transformation data")
        for name, e in (("T", self.T), ("Sigma", self.Sigma),
                        ("Upsilon", self.Upsilon),
                        *((f"X{i+1}", c) for i, c in enumerate(self.X))):
            if not depends_only_on_t(e) or not e.is_real:
                raise ValueError(f"{name} must be a real-valued function of t")
        Om = np.array([[float(v) for v in row] for row in self.O])
        if np.max(np.abs(Om @ Om.T - np.eye(self.n))) > 1e-12:
            raise ValueError("O is not orthogonal")
        if self.eps == 0:
            self.eps = self._infer_eps()

    def _infer_eps(self) -> int:
        tt = diff(self.T, T_VAR)
        env = {T_VAR: np.linspace(*T_RANGE, 33).astype(complex)}
        vals, _, unsafe = eval_batch(tt, self.binding, env)
        if unsafe.any():
            raise ValueError("T_t is singular on the sample domain")
        r = np.real(vals)
        if np.min(np.abs(r)) < 1e-9:
            raise ValueError("T_t vanishes on the sample domain")
        if (r > 0).all():
            return 1
        if (r < 0).all():
            return -1
        raise ValueError("T_t changes sign on the sample domain")

    # -- constructors

    @staticmethod
    def identity(n: int = 2) -> "EquivTransformation":
        return _elementary(n, None)

    @staticmethod
    def elementary_D(T: Expr, n: int = 2,
                     ws: Optional[Workspace] = None) -> "EquivTransformation":
        return _elementary(n, ws, T=T)

    @staticmethod
    def elementary_J(O, n: int = 2) -> "EquivTransformation":
        return _elementary(n, None, O=O)

    @staticmethod
    def elementary_P(X: Sequence[Expr], n: int = 2,
                     ws: Optional[Workspace] = None) -> "EquivTransformation":
        return _elementary(n, ws, X=X)

    @staticmethod
    def elementary_M(Sigma: Expr, n: int = 2,
                     ws: Optional[Workspace] = None) -> "EquivTransformation":
        return _elementary(n, ws, Sigma=as_expr(Sigma))

    @staticmethod
    def elementary_I(Upsilon: Expr, n: int = 2,
                     ws: Optional[Workspace] = None) -> "EquivTransformation":
        return _elementary(n, ws, Upsilon=as_expr(Upsilon))

    # -- derived data

    def tinv_app(self) -> Expr:
        """The inverse time map T^-1(t): given, t itself where T is t (so no
        symbol is bound and no Tinv number taken), or a root-solved FuncApp."""
        if self._tinv is None:
            if self.T is t_expr():
                self._tinv = self.T
            else:
                sym = FunctionSymbol(f"Tinv{next(_tinv_numbers)}", 1, "real")
                self.binding.bind(sym, InverseImpl(self.T, self.binding, self.bracket))
                self._tinv = func_app(sym, [t_expr()])
        return self._tinv


def _elementary(n: int, ws: Optional[Workspace], T: Optional[Expr] = None, O=None,
                X: Optional[Sequence[Expr]] = None, Sigma: Optional[Expr] = None,
                Upsilon: Expr = ZERO) -> EquivTransformation:
    """The map with the given parts and the identity's everywhere else; an
    omitted Sigma is the shift's canonical phase X . X_t / 4."""
    X = (ZERO,) * n if X is None else tuple(as_expr(c) for c in X)
    return EquivTransformation(
        n, t_expr() if T is None else T,
        _identity_matrix(n) if O is None else tuple(map(tuple, O)), X,
        _canonical_shift_sigma(X) if Sigma is None else Sigma, Upsilon,
        binding=ws.binding if ws is not None else Binding())


def _canonical_shift_sigma(X: Sequence[Expr]) -> Expr:
    return const(Fraction(1, 4)) * sum_(c * diff(c, T_VAR) for c in X)


def _o_apply(O, vec: Sequence[Expr]) -> tuple[Expr, ...]:
    n = len(vec)
    return tuple(sum_(const(O[a][b]) * vec[b] for b in range(n) if O[a][b] != 0)
                 for a in range(n))


def _o_transpose(O):
    n = len(O)
    return tuple(tuple(O[b][a] for b in range(n)) for a in range(n))


def _dot(u: Sequence[Expr], v: Sequence[Expr]) -> Expr:
    return sum_(a * b for a, b in zip(u, v))


def act_on_potential(V: Potential, tr: EquivTransformation) -> Potential:
    """Target potential, expressed in the target variables.

    The closed-form target value at the source point is composed with the
    inverse variable map; the source potential is conjugated when T_t < 0.
    The map keeps the target expression of each source expression it has
    acted on, so a repeat builds nothing; the binding is merged per call.
    """
    n = V.n
    if n != tr.n:
        raise ValueError("dimension mismatch")
    out = tr._targets.get(V.expr)
    if out is None:
        out = tr._targets[V.expr] = _target_expr(V.expr, tr)
    return Potential(out, n, V.binding.merged(tr.binding))


def _target_expr(src: Expr, tr: EquivTransformation) -> Expr:
    n = tr.n
    Tt = diff(tr.T, T_VAR)
    Ttt = diff(Tt, T_VAR)
    Tttt = diff(Ttt, T_VAR)
    eps = tr.eps
    abs_tt = abs_pow(Tt, 1)
    inv_tt = int_pow(Tt, -1)

    Vhat = src if eps > 0 else conj_expr(src)
    x2 = absx2(n)

    out = Vhat * int_pow(abs_tt, -1)
    out = out + const(Fraction(eps, 16)) * (2 * Tttt * Tt - 3 * Ttt * Ttt) \
        * int_pow(Tt, -3) * x2
    shift = ZERO
    for c, row in zip(tr.X, _o_apply(tr.O, tuple(x(a) for a in range(1, n + 1)))):
        shift = shift + diff(diff(c, T_VAR) * inv_tt, T_VAR) * row
    out = out + const(Fraction(eps, 2)) * abs_pow(Tt, Fraction(-1, 2)) * shift
    out = out + (diff(tr.Sigma, T_VAR) - I_UNIT * diff(tr.Upsilon, T_VAR)) * inv_tt
    xdots = sum_(diff(c, T_VAR) * diff(c, T_VAR) for c in tr.X)
    out = out - (xdots + const(0, n) * Ttt) * const(Fraction(1, 4)) * int_pow(Tt, -2)

    # source coordinates in terms of target ones: x_b = (O^T (xt - X))_b / s
    s_inv = abs_pow(Tt, Fraction(-1, 2))
    xmap = {}
    for b in range(1, n + 1):
        acc = ZERO
        for a in range(1, n + 1):
            if tr.O[a - 1][b - 1] != 0:
                acc = acc + const(tr.O[a - 1][b - 1]) * (x(a) - tr.X[a - 1])
        xmap[x_var(b)] = acc * s_inv
    out = subst(out, xmap)
    return subst(out, {T_VAR: tr.tinv_app()})


@dataclass
class AdmissibleTransformation:
    """Source potential, transformation, target potential."""

    source: Potential
    map: EquivTransformation
    target: Potential

    @staticmethod
    def create(source: Potential, tr: EquivTransformation) -> "AdmissibleTransformation":
        return AdmissibleTransformation(source, tr, act_on_potential(source, tr))


def potentials_agree(V1: Potential, V2: Potential, rng=None,
                     tol: float = DEFAULT_TOL) -> bool:
    d = V1.expr - V2.expr
    return is_zero(d, trials=2, points=60, tol=tol,
                   binding=V1.binding.merged(V2.binding), rng=rng)


def compose(t1: AdmissibleTransformation, t2: AdmissibleTransformation,
            validate: bool = True, rng=None, tol: float = DEFAULT_TOL) -> AdmissibleTransformation:
    """Parameter-level composition (apply t1, then t2)."""
    tr1, tr2 = t1.map, t2.map
    n = tr1.n
    if validate and not potentials_agree(t1.target, t2.source, rng=rng, tol=max(tol, 1e-7)):
        raise ValueError("transformations are not composable: target != source")

    def after1(e: Expr) -> Expr:
        return subst(e, {T_VAR: tr1.T})

    T2t = diff(tr2.T, T_VAR)
    T = after1(tr2.T)
    O = _matmul(tr2.O, tr1.O)
    s2_c = after1(abs_pow(T2t, Fraction(1, 2)))
    o2x1 = _o_apply(tr2.O, tr1.X)
    X = tuple(s2_c * o2x1[a] + after1(tr2.X[a]) for a in range(n))
    eps2 = tr2.eps

    phase2_quad = after1(const(Fraction(1, 8)) * diff(T2t, T_VAR) * int_pow(abs_pow(T2t, 1), -1))
    rate2 = tuple(after1(diff(c, T_VAR) * abs_pow(T2t, Fraction(-1, 2)))
                  for c in tr2.X)
    Sigma = after1(tr2.Sigma) + const(eps2) * tr1.Sigma \
        + phase2_quad * _dot(tr1.X, tr1.X) \
        + const(Fraction(eps2, 2)) * _dot(rate2, o2x1)
    Upsilon = after1(tr2.Upsilon) + tr1.Upsilon

    out = EquivTransformation(n, T, O, X, Sigma, Upsilon,
                              binding=tr1.binding.merged(tr2.binding),
                              bracket=tr1.bracket)
    composed = AdmissibleTransformation(t1.source, out, t2.target)
    if validate:
        direct = act_on_potential(t1.source, out)
        if not potentials_agree(direct, t2.target, rng=rng, tol=max(tol, 1e-7)):
            raise ValueError("parameter-level composition disagrees with "
                             "potential-level composition")
    return composed


def invert(t: AdmissibleTransformation, validate: bool = True, rng=None,
           tol: float = DEFAULT_TOL) -> AdmissibleTransformation:
    """Inverse admissible transformation with swapped source and target."""
    tr = t.map
    n = tr.n
    tinv = tr.tinv_app()
    Tt = diff(tr.T, T_VAR)
    abs_tt = abs_pow(Tt, 1)
    eps = tr.eps

    def comp(e: Expr) -> Expr:
        return subst(e, {T_VAR: tinv})

    Oi = _o_transpose(tr.O)
    s_inv_src = abs_pow(Tt, Fraction(-1, 2))
    otx = _o_apply(Oi, tr.X)
    Xi = tuple(comp(const(-1) * otx[a] * s_inv_src) for a in range(n))
    xdotx = _dot(tuple(diff(c, T_VAR) for c in tr.X), tr.X)
    inner = tr.Sigma \
        + const(Fraction(1, 8)) * diff(Tt, T_VAR) * int_pow(abs_tt, -1) \
        * _dot(tr.X, tr.X) * int_pow(abs_tt, -1) \
        - const(Fraction(eps, 2)) * xdotx * int_pow(abs_tt, -1)
    Sigma_i = const(-eps) * comp(inner)
    Upsilon_i = const(-1) * comp(tr.Upsilon)

    # the inverse of T^-1 is T itself, so its action needs no nested solve
    out = EquivTransformation(n, tinv, Oi, Xi, Sigma_i, Upsilon_i,
                              binding=tr.binding, bracket=tr.bracket, eps=eps,
                              _tinv=tr.T)
    result = AdmissibleTransformation(t.target, out, t.source)
    if validate:
        back = act_on_potential(t.target, out)
        if not potentials_agree(back, t.source, rng=rng, tol=max(tol, 1e-7)):
            raise ValueError("inverse transformation fails the round trip")
    return result


# ---------------------------------------------------------------------------
# pushforwards: one closed-form rule per elementary factor
# ---------------------------------------------------------------------------

def pushforward(g: GeneratorCoeffs, tr: EquivTransformation) -> GeneratorCoeffs:
    """Image of g under tr, folded over tr's factors.  By ``compose``, tr is
    I(Upsilon), then M(Sigma_hat), P(X_hat) (canonical phase), J(O) and D(T),
    with X_hat = O^T X / |T_t|^(1/2) and Sigma_hat = eps (Sigma - T_tt |X_hat|^2
    / (8 |T_t|)) - X_hat . X_hat_t / 4; only D needs T^-1.  A factor whose
    parameter is ZERO, t or the identity matrix is skipped."""
    if g.eta0 is not ZERO:
        raise ValueError("pushforward is defined for the essential part (eta0 = 0)")
    x_hat = None  # no shift factor
    sigma_hat = tr.Sigma if tr.eps > 0 else -tr.Sigma
    if any(c is not ZERO for c in tr.X):
        Tt = diff(tr.T, T_VAR)
        s_inv = abs_pow(Tt, Fraction(-1, 2))
        x_hat = tuple(c * s_inv for c in _o_apply(_o_transpose(tr.O), tr.X))
        quad = const(Fraction(-tr.eps, 8)) * diff(Tt, T_VAR) * abs_pow(Tt, -1)
        sigma_hat = sum_((sigma_hat, quad * _dot(x_hat, x_hat), -_canonical_shift_sigma(x_hat)))
    if tr.Upsilon is not ZERO:
        g = _push_I(g, tr.Upsilon)
    if sigma_hat is not ZERO:
        g = _push_M(g, sigma_hat)
    if x_hat is not None:
        g = _push_P(g, x_hat)
    if tr.O != _identity_matrix(tr.n):
        g = _push_J(g, tr.O)
    if tr.T is not t_expr():
        g = _push_D(g, tr.T, tr.tinv_app(), tr.eps)
    return g


def _push_D(g: GeneratorCoeffs, T: Expr, tinv: Expr, eps: int) -> GeneratorCoeffs:
    # a decreasing T conjugates psi: sigma changes sign, rho does not
    Tt = diff(T, T_VAR)
    at = {T_VAR: tinv}
    return replace(g, tau=subst(Tt * g.tau, at),
                   chi=tuple(subst(abs_pow(Tt, Fraction(1, 2)) * c, at) for c in g.chi),
                   sigma=subst(g.sigma if eps > 0 else -g.sigma, at), rho=subst(g.rho, at))


def _push_J(g: GeneratorCoeffs, O) -> GeneratorCoeffs:
    OKOt = _matmul(_matmul(O, g.kappa_matrix()), tuple(zip(*O)))
    return replace(g, kappa=tuple(OKOt[b - 1][a - 1] for a, b in _pairs(g.n)),
                   chi=_o_apply(O, g.chi))


def _push_P(g: GeneratorCoeffs, X: Sequence[Expr]) -> GeneratorCoeffs:
    n = g.n
    Xt = tuple(diff(c, T_VAR) for c in X)
    Xtt = tuple(diff(c, T_VAR) for c in Xt)
    tau_t = diff(g.tau, T_VAR)
    tau_tt = diff(tau_t, T_VAR)
    chi = list(g.chi)
    # D(tau) part
    for a in range(n):
        chi[a] = chi[a] + g.tau * Xt[a] - HALF * tau_t * X[a]
    sigma = g.sigma + const(Fraction(1, 8)) * tau_tt * _dot(X, X) \
        - const(Fraction(1, 4)) * tau_t * _dot(X, Xt) \
        - const(Fraction(1, 4)) * g.tau * (_dot(X, Xtt) - _dot(Xt, Xt))
    # J part: the shift tuple picks up -K X (hat-X of the listed rule)
    K = g.kappa_matrix()
    for a in range(n):
        chi[a] = chi[a] - sum_(K[a][b] * X[b] for b in range(n))
    for (a, b), kab in zip(_pairs(n), g.kappa):
        if kab is not ZERO:
            sigma = sigma - kab * HALF * (X[a - 1] * Xt[b - 1] - X[b - 1] * Xt[a - 1])
    # P part
    sigma = sigma + HALF * (_dot(g.chi, Xt) - _dot(tuple(diff(c, T_VAR) for c in g.chi), X))
    return replace(g, chi=tuple(chi), sigma=sigma)


def _push_M(g: GeneratorCoeffs, Sigma: Expr) -> GeneratorCoeffs:
    return replace(g, sigma=g.sigma + g.tau * diff(Sigma, T_VAR))


def _push_I(g: GeneratorCoeffs, Upsilon: Expr) -> GeneratorCoeffs:
    return replace(g, rho=g.rho + g.tau * diff(Upsilon, T_VAR))


# ---------------------------------------------------------------------------
# the equivalence-algebra generators and their infinitesimal check
# ---------------------------------------------------------------------------

def flow(g: GeneratorCoeffs, delta: float, ws: Workspace) -> EquivTransformation:
    """A map tangent to g's flow at delta = 0: T = t + delta tau, O the
    rotation by delta kappa (kappa's value in ws's binding), X = delta chi,
    Sigma = X . X_t / 4 + delta sigma, Upsilon = delta rho."""
    if g.n != 2 and any(k is not ZERO for k in g.kappa):
        raise ValueError("rotation flows are defined at n = 2 only")
    d = const(Fraction(delta))
    X = tuple(d * c for c in g.chi)
    O = None
    if g.n == 2:
        O = _rotation_float(delta * eval_batch(g.kappa[0], ws.binding, {})[0][0].real)
    return _elementary(g.n, ws, T=t_expr() + d * g.tau, O=O,
                       X=X, Sigma=_canonical_shift_sigma(X) + d * g.sigma, Upsilon=d * g.rho)


def _rotation_float(angle: float):
    c = Fraction(float(np.cos(angle)))
    s = Fraction(float(np.sin(angle)))
    # rounded cos and sin: c^2 + s^2 is 1 to within a few ulp, well inside
    # the 1e-12 orthogonality check
    return ((c, -s), (s, c))


def pullback_along(Vt: Potential, tr: EquivTransformation) -> Expr:
    """Transformed potential seen along the flow: Vt composed with the
    forward variable map (t, x) -> (T, |T_t|^(1/2) O x + X)."""
    n = tr.n
    s = abs_pow(diff(tr.T, T_VAR), Fraction(1, 2))
    ox = _o_apply(tr.O, tuple(x(b) for b in range(1, n + 1)))
    fwd = {x_var(a): s * ox[a - 1] + tr.X[a - 1] for a in range(1, n + 1)}
    out = subst(Vt.expr, fwd)
    return subst(out, {T_VAR: tr.T})


def equiv_generator_check(g: GeneratorCoeffs, V: Potential,
                          rng: Optional[np.random.Generator] = None,
                          tol: float = 1e-4) -> bool:
    """Finite-difference dV coefficient versus the closed form.

    Central difference (step delta = 1e-5) along g's ``flow`` at delta = 0,
    of the transformed potential evaluated at the flowed point (so the
    variable transport does not enter), compared with ``dv_coefficient`` at
    24 random sample points with relative tolerance tol.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    delta = 1e-5
    ws = Workspace()
    ws.binding = ws.binding.merged(V.binding)
    trp = flow(g, +delta, ws)
    trm = flow(g, -delta, ws)
    plus = act_on_potential(V, trp)
    minus = act_on_potential(V, trm)
    ep = pullback_along(plus, trp)
    em = pullback_along(minus, trm)
    theta = dv_coefficient(g, V)
    vars_needed = ep.free_vars | em.free_vars | theta.free_vars
    env = draw_env(vars_needed, 24, rng)
    vp, _, up = eval_batch(ep, plus.binding, env)
    vm, _, um = eval_batch(em, minus.binding, env)
    th, _, ut = eval_batch(theta, V.binding, env)
    good = ~(up | um | ut)
    if not good.any():
        raise RuntimeError("no safe sample points for the generator check")
    fd = (vp - vm) / (2.0 * delta)
    err = np.abs(fd - th)[good]
    ref = 1.0 + np.abs(th)[good]
    return bool(np.max(err / ref) < tol)


# ---------------------------------------------------------------------------
# real-potential subclass and free-equation reducibility
# ---------------------------------------------------------------------------

def is_real_admissible(tr: EquivTransformation, n: int,
                       rng: Optional[np.random.Generator] = None,
                       tol: float = DEFAULT_TOL) -> bool:
    """True iff Upsilon_t + n T_tt / (4 T_t) vanishes on the sample domain."""
    Tt = diff(tr.T, T_VAR)
    expr = diff(tr.Upsilon, T_VAR) * Tt + const(Fraction(n, 4)) * diff(Tt, T_VAR)
    return is_zero(expr, trials=3, points=60, binding=tr.binding, rng=rng, tol=tol)


def is_free_reducible(V: Potential, rng: Optional[np.random.Generator] = None,
                      tol: float = DEFAULT_TOL) -> bool:
    """Whether V has the quadratic-in-x shape mappable to the free equation.

    Raises UndecidableTemplate when V contains function symbols applied to
    space variables (the x-profile is then not polynomial-detectable).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = V.n
    for sub in post_order(V.expr):
        if isinstance(sub, FuncApp) and any(v.kind == "x" for v in sub.free_vars):
            raise UndecidableTemplate(f"potential applies {sub.sym.name} to space variables")

    def zero(e: Expr) -> bool:
        return is_zero(e, trials=3, points=60, binding=V.binding, rng=rng, tol=tol)

    for a in range(1, n + 1):
        for b in range(a, n + 1):
            for c in range(b, n + 1):
                third = diff(diff(diff(V.expr, x_var(a)), x_var(b)), x_var(c))
                if not zero(third):
                    return False
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if not zero(diff(diff(V.expr, x_var(a)), x_var(b))):
                return False
    h11 = diff(diff(V.expr, x_var(1)), x_var(1))
    for a in range(2, n + 1):
        if not zero(h11 - diff(diff(V.expr, x_var(a)), x_var(a))):
            return False
    for a in range(1, n + 1):
        if not zero(im_part(diff(V.expr, x_var(a)))):
            return False
    return True
