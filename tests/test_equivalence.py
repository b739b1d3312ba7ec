"""Transformations: action, groupoid laws, pushforwards, algebra generators."""
from dataclasses import replace

import numpy as np
import pytest
from fractions import Fraction

from schsym.closedform import exppoly_to_expr
from schsym.conditions import Potential, classifying_residual
from schsym import equivalence
from schsym.equivalence import (AdmissibleTransformation, EquivTransformation,
                                UndecidableTemplate, act_on_potential, compose,
                                dv_coefficient, equiv_generator_check, flow,
                                invert, is_free_reducible, is_real_admissible,
                                potentials_agree, pushforward, rational_rotation,
                                _dot, _identity_matrix, _o_apply)
from schsym.expr import (HALF, LOG, ONE, SIN, SymbolTable, T_VAR, ZERO, abs_pow, conj_expr,
                         const, diff, func_app, im_part, int_pow, subst, sum_, t, var, x,
                         x_var)
from schsym.fields import D, GeneratorCoeffs, Iop, J, M, P, _pairs, absx2
from schsym.funcbank import random_surrogate, random_trig_poly
from schsym.numeric import Binding, Workspace, eval_batch, is_zero
from schsym.parsing import parse

RNG = np.random.default_rng(41)


def standard_equiv_generators(rng, n=2) -> list[tuple[str, GeneratorCoeffs]]:
    """One random representative per family of the equivalence algebra,
    labelled by its family."""
    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real"))

    return [
        ("D", D(fn(), n)),
        ("J", J(1, 2, n)),
        ("P", P(*(fn() for _ in range(n)), n=n)),
        ("M", M(fn(), n)),
        ("I", Iop(fn(), n)),
    ]


def _theta_D(g, V):
    tau_t = diff(g.tau, T_VAR)
    tau_tt = diff(tau_t, T_VAR)
    tau_ttt = diff(tau_tt, T_VAR)
    return const(-1) * tau_t * V.expr + const(Fraction(1, 8)) * tau_ttt * absx2(g.n) \
        - const(0, Fraction(g.n, 4)) * tau_tt


# the dV coefficient of each family, one closed form per family
REFERENCE_THETA = {
    "D": _theta_D,
    "J": lambda g, V: ZERO,
    "P": lambda g, V: HALF * sum_(diff(diff(g.chi[a - 1], T_VAR), T_VAR) * x(a)
                                  for a in range(1, g.n + 1)),
    "M": lambda g, V: diff(g.sigma, T_VAR),
    "I": lambda g, V: const(0, -1) * diff(g.rho, T_VAR),
}


@pytest.fixture
def table():
    tbl = SymbolTable()
    tbl.declare("W", 3, "complex")
    tbl.declare("Uc", 0, "complex")
    return tbl


def small_fn(rng, amp=0.2):
    return exppoly_to_expr(random_trig_poly(rng, "real").scale(amp))


def random_transform(rng, ws):
    # amplitude 0.08 keeps T_t positive (trig slope is at most 6x amplitude)
    T = var(T_VAR) + small_fn(rng, amp=0.08)
    O = rational_rotation(Fraction(int(rng.integers(-3, 4)), 7))
    X = (small_fn(rng), small_fn(rng))
    return EquivTransformation(2, T, O, X, small_fn(rng), small_fn(rng),
                               binding=ws.binding)


def generic_potential(table):
    return Potential(func_app(table.get("W"), [t(), x(1), x(2)]), 2)


def inverse_square(table):
    return Potential(func_app(table.get("Uc"), []) * int_pow(parse("x1^2+x2^2"), -1), 2)


def test_identity_acts_trivially(table):
    V = generic_potential(table)
    Vt = act_on_potential(V, EquivTransformation.identity(2))
    assert potentials_agree(Vt, V, rng=RNG)


def test_a_map_whose_time_map_is_t_binds_no_inverse(table):
    # T^-1 is t itself: no inverse symbol, so the target is the source
    tr = EquivTransformation.identity(2)
    assert tr.tinv_app() is t()
    V = generic_potential(table)
    assert act_on_potential(V, tr).expr is V.expr
    assert tr.binding._impls == {}  # no InverseImpl, nor any other impl


def test_a_shift_acts_outside_the_solver_bracket():
    # a root solve of T = t brackets in [-60, 60] and gave 900 at both
    # points, masked; t itself is defined everywhere
    V = Potential(parse("x1^2 + t*x2"), 2)
    Vt = act_on_potential(V, EquivTransformation.elementary_P((t(), ZERO), 2))
    zeros = np.zeros(2, dtype=complex)
    env = {T_VAR: np.array([70.0, -100.0], dtype=complex), x_var(1): zeros, x_var(2): zeros}
    vals, _, unsafe = eval_batch(Vt.expr, Vt.binding, env)
    assert vals.tolist() == [4900, 10000] and not unsafe.any()


def test_phase_shift_adds_constant(table):
    tr = EquivTransformation.elementary_M(parse("3/7*t"), 2)
    Vt = act_on_potential(Potential(ZERO, 2), tr)
    assert is_zero(Vt.expr - const(Fraction(3, 7)), binding=Vt.binding, rng=RNG)


def test_scaling_preserves_inverse_square(table):
    V = inverse_square(table)
    tr = EquivTransformation.elementary_D(parse("4*t"), 2)
    Vt = act_on_potential(V, tr)
    assert potentials_agree(Vt, V, rng=RNG)


def test_wigner_reflection_conjugates(table):
    V = inverse_square(table)
    refl = EquivTransformation(2, -var(T_VAR), _identity_matrix(2),
                               (ZERO, ZERO), ZERO, ZERO)
    assert refl.eps == -1
    Vt = act_on_potential(V, refl)
    want = conj_expr(func_app(table.get("Uc"), [])) * int_pow(parse("x1^2+x2^2"), -1)
    assert is_zero(Vt.expr - want, binding=Vt.binding, rng=RNG)


def test_compose_and_invert_roundtrip(table):
    rng = np.random.default_rng(5)
    ws = Workspace()
    V = generic_potential(table)
    t1 = AdmissibleTransformation.create(V, random_transform(rng, ws))
    t2 = AdmissibleTransformation.create(t1.target, random_transform(rng, ws))
    comp = compose(t1, t2, validate=True, rng=rng)  # raises on mismatch
    inv = invert(t1, validate=True, rng=rng)
    roundtrip = compose(t1, inv, validate=False)
    back = act_on_potential(V, roundtrip.map)
    assert potentials_agree(back, V, rng=rng, tol=1e-7)
    # identity composes neutrally
    ident = AdmissibleTransformation.create(V, EquivTransformation.identity(2))
    again = compose(ident, t1, validate=True, rng=rng)
    assert potentials_agree(again.target, t1.target, rng=rng)


def test_inverse_of_inverse_time_map_is_t(table):
    rng = np.random.default_rng(8)
    a = AdmissibleTransformation.create(generic_potential(table),
                                        random_transform(rng, Workspace()))
    inv = invert(a, validate=False)
    assert inv.map.tinv_app() is a.map.T
    assert invert(inv, validate=False).map.T is a.map.T


def test_invert_makes_no_nested_root_solve(table, monkeypatch):
    import schsym.numeric as numeric

    rng = np.random.default_rng(5)
    a = AdmissibleTransformation.create(generic_potential(table),
                                        random_transform(rng, Workspace()))
    calls = []
    inner = numeric.eval_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(numeric, "eval_batch", counted)
    invert(a, validate=True, rng=rng)
    # 30 calls here; solving the inverse of T^-1 numerically, with a whole
    # inner solve per Newton iterate, took 198
    assert len(calls) <= 60


def test_invert_round_trip_fails_loudly(table, monkeypatch):
    import schsym.equivalence as equivalence

    rng = np.random.default_rng(9)
    tr = EquivTransformation(2, var(T_VAR) + small_fn(rng, amp=0.08),
                             rational_rotation(Fraction(2, 7)),
                             (small_fn(rng), small_fn(rng)), small_fn(rng),
                             small_fn(rng), binding=Workspace().binding)
    a = AdmissibleTransformation.create(generic_potential(table), tr)
    monkeypatch.setattr(equivalence, "_o_transpose", lambda O: O)
    with pytest.raises(ValueError, match="round trip"):
        invert(a, validate=True, rng=rng)


def test_sigma_shifts_compose_additively(table):
    rng = np.random.default_rng(12)
    V0 = Potential(ZERO, 2)
    s1, s2 = parse("2/5*t"), parse("1/3*t")
    t1 = AdmissibleTransformation.create(V0, EquivTransformation.elementary_M(s1, 2))
    t2 = AdmissibleTransformation.create(t1.target, EquivTransformation.elementary_M(s2, 2))
    comp = compose(t1, t2, validate=True, rng=rng)
    both = AdmissibleTransformation.create(
        V0, EquivTransformation.elementary_M(parse("(2/5 + 1/3)*t"), 2))
    assert potentials_agree(comp.target, both.target, rng=rng)
    # inversion flips the shift
    inv = invert(t1, validate=True, rng=rng)
    assert potentials_agree(inv.target, V0, rng=rng)
    minus = act_on_potential(t1.target,
                             EquivTransformation.elementary_M(-s1, 2))
    assert potentials_agree(minus, V0, rng=rng)


def test_compose_requires_matching_potentials(table):
    V = generic_potential(table)
    V0 = Potential(ZERO, 2)
    t1 = AdmissibleTransformation.create(V, EquivTransformation.identity(2))
    t2 = AdmissibleTransformation.create(V0, EquivTransformation.identity(2))
    with pytest.raises(ValueError):
        compose(t1, t2, validate=True, rng=RNG)


def test_functoriality(table):
    rng = np.random.default_rng(6)
    ws = Workspace()
    V = generic_potential(table)
    t1 = AdmissibleTransformation.create(V, random_transform(rng, ws))
    t2 = AdmissibleTransformation.create(t1.target, random_transform(rng, ws))
    comp = compose(t1, t2, validate=False)
    lhs = act_on_potential(V, comp.map)
    rhs = act_on_potential(act_on_potential(V, t1.map), t2.map)
    assert potentials_agree(lhs, rhs, rng=rng, tol=1e-7)


def _tinv_names(e):
    return {s.name for s in e.free_symbols if s.name.startswith("Tinv")}


def test_a_map_builds_each_target_once(table, monkeypatch):
    rng = np.random.default_rng(13)
    tr = random_transform(rng, Workspace())
    V = generic_potential(table)
    calls = []
    inner = equivalence.subst

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(equivalence, "subst", counted)
    first = act_on_potential(V, tr)
    assert len(calls) == 2  # the x map, then t -> Tinv(t)
    again = act_on_potential(V, tr)
    assert len(calls) == 2
    assert again.expr is first.expr
    assert _tinv_names(again.expr) == _tinv_names(first.expr) == {tr.tinv_app().sym.name}
    # a map with equal fields keeps its own table, which takes no part in
    # equality or repr
    copy = replace(tr)
    assert copy == tr and repr(copy) == repr(tr)
    assert act_on_potential(V, copy).expr is first.expr
    assert len(calls) == 4


def test_potentials_agree_solves_each_inverse_argument_set_once(table, monkeypatch):
    # two trials of 60 points are one stacked run, in which each inverse
    # time map, bound once and shared by both trials' bindings, is called
    # once over all 120 points; its orders reuse that solve
    from schsym.numeric import InverseImpl

    rng = np.random.default_rng(5)
    ws = Workspace()
    V = generic_potential(table)
    t1 = AdmissibleTransformation.create(V, random_transform(rng, ws))
    t2 = AdmissibleTransformation.create(t1.target, random_transform(rng, ws))
    direct = act_on_potential(V, compose(t1, t2, validate=False).map)
    solved = []
    solve = InverseImpl._solve

    def recorded(self, args):
        y = np.real(np.asarray(args[0], dtype=complex))
        if self._memo[0] != (self._binding._binds, y.shape, y.tobytes()):
            solved.append((self, y.tobytes(), len(y)))
        return solve(self, args)

    monkeypatch.setattr(InverseImpl, "_solve", recorded)
    assert potentials_agree(direct, t2.target, rng=rng, tol=1e-7)
    # the composed map's T^-1, and T2^-1 and T1^-1 nested in t2's target
    assert len({impl for impl, _, _ in solved}) == 3
    assert len(set(solved)) == len(solved) and {n for _, _, n in solved} == {120}


def test_a_map_keeps_expressions_not_bindings():
    rng = np.random.default_rng(14)
    tr = random_transform(rng, Workspace())
    results = []
    for seed in (1, 2):
        ws = Workspace()
        impl = random_surrogate(np.random.default_rng(seed), 3, "complex")
        W = ws.declare("W", 3, "complex", impl)
        V = Potential(func_app(W, [t(), x(1), x(2)]), 2, ws.binding)
        Vt = act_on_potential(V, tr)
        assert Vt.binding.lookup(W) is impl
        fresh = act_on_potential(V, random_transform(np.random.default_rng(14), Workspace()))
        assert potentials_agree(Vt, fresh, rng=rng, tol=1e-7)
        results.append(Vt)
    # one symbol W, so one source expression and one cached target
    assert results[0].expr is results[1].expr


def test_pushforward_takes_a_zero_eta0_as_none():
    identity = EquivTransformation.identity(2)
    assert pushforward(replace(D(1), eta0=ZERO), identity) == pushforward(D(1), identity)
    with pytest.raises(ValueError, match="essential part"):
        pushforward(replace(D(1), eta0=x(1)), identity)


def test_pushforward_listed_rules():
    rng = np.random.default_rng(7)
    tau = small_fn(rng, amp=1.0)
    ups = small_fn(rng)
    img = pushforward(D(tau), EquivTransformation.elementary_I(ups, 2))
    assert img.tau is tau
    assert is_zero(img.rho - tau * diff(ups, T_VAR), rng=RNG)
    sig = small_fn(rng)
    img2 = pushforward(D(tau), EquivTransformation.elementary_M(sig, 2))
    assert is_zero(img2.sigma - tau * diff(sig, T_VAR), rng=RNG)
    O = rational_rotation(Fraction(1, 3))
    chi = small_fn(rng, amp=1.0)
    img3 = pushforward(P(chi, 0), EquivTransformation.elementary_J(O, 2))
    assert is_zero(img3.chi[0] - const(O[0][0]) * chi, rng=RNG)
    assert is_zero(img3.chi[1] - const(O[1][0]) * chi, rng=RNG)
    # rotations conjugate the kappa matrix trivially at n=2
    img4 = pushforward(J(1, 2), EquivTransformation.elementary_J(O, 2))
    assert img4.kappa == (ONE,)


def _reference_pushforward(g, tr, kind):
    """The closed-form rule of one elementary kind, applied to the whole map
    as the single-kind pushforward did: the oracle for factored pushforward
    on elementary maps."""
    n = g.n
    if kind == "D":
        tinv = tr.tinv_app()
        Tt = diff(tr.T, T_VAR)

        def comp(e):
            return subst(e, {T_VAR: tinv})

        tau = comp(Tt * g.tau)
        chi = tuple(comp(abs_pow(Tt, Fraction(1, 2)) * c) for c in g.chi)
        return GeneratorCoeffs(n, tau, g.kappa, chi, comp(g.sigma), comp(g.rho), None)
    if kind == "J":
        O = tr.O
        K = g.kappa_matrix()
        OK = [[sum(O[a][c] * K[c][b] for c in range(n)) for b in range(n)]
              for a in range(n)]
        OKOt = [[sum(OK[a][c] * O[b][c] for c in range(n)) for b in range(n)]
                for a in range(n)]
        kappa = tuple(OKOt[b - 1][a - 1] for a, b in _pairs(n))
        return GeneratorCoeffs(n, g.tau, kappa, _o_apply(O, g.chi), g.sigma, g.rho, None)
    if kind == "P":
        X = tr.X
        Xt = tuple(diff(c, T_VAR) for c in X)
        Xtt = tuple(diff(c, T_VAR) for c in Xt)
        tau_t = diff(g.tau, T_VAR)
        tau_tt = diff(tau_t, T_VAR)
        chi = list(g.chi)
        sigma = g.sigma
        for a in range(n):
            chi[a] = chi[a] + g.tau * Xt[a] - HALF * tau_t * X[a]
        sigma = sigma + const(Fraction(1, 8)) * tau_tt * _dot(X, X) \
            - const(Fraction(1, 4)) * tau_t * _dot(X, Xt) \
            - const(Fraction(1, 4)) * g.tau * (_dot(X, Xtt) - _dot(Xt, Xt))
        K = g.kappa_matrix()
        for a in range(n):
            chi[a] = chi[a] - sum_(K[a][b] * X[b] for b in range(n))
        for (a, b), kab in zip(_pairs(n), g.kappa):
            if kab is not ZERO:
                sigma = sigma - kab * HALF * (X[a - 1] * Xt[b - 1] - X[b - 1] * Xt[a - 1])
        sigma = sigma + HALF * (_dot(g.chi, Xt) - _dot(tuple(diff(c, T_VAR) for c in g.chi), X))
        return GeneratorCoeffs(n, g.tau, g.kappa, tuple(chi), sigma, g.rho, None)
    if kind == "M":
        return GeneratorCoeffs(n, g.tau, g.kappa, g.chi,
                               g.sigma + g.tau * diff(tr.Sigma, T_VAR), g.rho, None)
    assert kind == "I"
    return GeneratorCoeffs(n, g.tau, g.kappa, g.chi, g.sigma,
                           g.rho + g.tau * diff(tr.Upsilon, T_VAR), None)


def criterion_4_generators():
    tv = var(T_VAR)
    return [D(1), D(tv), D(tv * tv).add(Iop(-tv, 2)), J(1, 2)]


def criterion_4_maps(rng):
    """The six elementary maps of criterion 4, each with its kind."""
    def small():
        return exppoly_to_expr(random_trig_poly(rng, "real").scale(0.2))

    return [("D", EquivTransformation.elementary_D(parse("4*t"), 2)),
            ("D", EquivTransformation.elementary_D(
                var(T_VAR) + exppoly_to_expr(random_trig_poly(rng, "real").scale(0.08)), 2)),
            ("J", EquivTransformation.elementary_J(rational_rotation(Fraction(2, 5)), 2)),
            ("P", EquivTransformation.elementary_P((small(), small()), 2)),
            ("M", EquivTransformation.elementary_M(small(), 2)),
            ("I", EquivTransformation.elementary_I(small(), 2))]


def assert_equivariant(V, g, tr, rng):
    # the image of a symmetry of V is a symmetry of V's image
    Vt = act_on_potential(V, tr)
    res = classifying_residual(Vt, pushforward(g, tr))
    assert is_zero(res, trials=2, points=50, binding=Vt.binding, rng=rng), (g, tr)


def test_pushforward_on_elementary_maps_is_the_single_kind_rule():
    # the factored fold builds the very nodes of each kind's rule
    rng = np.random.default_rng(400)
    for kind, tr in criterion_4_maps(rng):
        for g in criterion_4_generators():
            got = pushforward(g, tr)
            want = _reference_pushforward(g, tr, kind)
            assert got.tau is want.tau and got.sigma is want.sigma \
                and got.rho is want.rho, (kind, g)
            assert all(a is b for a, b in zip(got.chi, want.chi)), (kind, g)
            assert got.kappa == want.kappa, (kind, g)


def test_pushforward_along_a_mixed_map(table):
    # D(4t) with a shift whose Sigma is not the canonical phase
    tr = EquivTransformation(2, parse("4*t"), _identity_matrix(2),
                             (parse("t"), ZERO), ZERO, ZERO)
    assert_equivariant(inverse_square(table), D(1), tr, np.random.default_rng(13))


def test_pushforward_along_any_map(table):
    rng = np.random.default_rng(14)
    ws = Workspace()
    V = inverse_square(table)
    maps = [random_transform(rng, ws) for _ in range(3)]
    r = random_transform(rng, ws)
    decreasing = EquivTransformation(2, -r.T, r.O, r.X, r.Sigma, r.Upsilon,
                                     binding=ws.binding)
    assert decreasing.eps == -1
    a1 = AdmissibleTransformation.create(V, maps[0])
    a2 = AdmissibleTransformation.create(a1.target, decreasing)
    maps += [decreasing, compose(a1, a2, validate=False).map,
             flow(P(t(), func_app(SIN, [t()])), 0.25, ws)]
    for tr in maps:
        for g in criterion_4_generators():
            assert_equivariant(V, g, tr, rng)


def test_pushforward_along_a_decreasing_time_map():
    # sigma changes sign with the orientation of T; rho does not
    rng = np.random.default_rng(15)
    for T in ("-t", "-2*t - sin(t)/10"):
        tr = EquivTransformation.elementary_D(parse(T), 2)
        assert tr.eps == -1
        assert_equivariant(Potential(parse("2*t"), 2), D(1).add(M(parse("2*t"))), tr, rng)
        assert_equivariant(Potential(parse("2*i*t"), 2), D(1).add(Iop(parse("-2*t"))), tr, rng)


def test_pushforward_equivariance(table):
    # symmetry generators map to symmetry generators of the moved potential
    rng = np.random.default_rng(8)
    V = inverse_square(table)
    gens = [D(var(T_VAR)), J(1, 2), D(1)]
    trs = [EquivTransformation.elementary_D(parse("4*t"), 2),
           EquivTransformation.elementary_D(var(T_VAR) + small_fn(rng, amp=0.08)),
           EquivTransformation.elementary_P((small_fn(rng), small_fn(rng)), 2),
           EquivTransformation.elementary_M(small_fn(rng), 2),
           EquivTransformation.elementary_I(small_fn(rng), 2),
           EquivTransformation.elementary_J(rational_rotation(Fraction(2, 5)), 2)]
    checked = 0
    for g in gens:
        for tr in trs:
            assert_equivariant(V, g, tr, rng)
            checked += 1
    assert checked >= 18


def test_equiv_generator_families(table):
    ws = Workspace()
    rng = np.random.default_rng(9)
    U3 = ws.declare("U3", 3, "complex", random_surrogate(rng, 3, "complex"))
    V = Potential(func_app(U3, [t(), x(1), x(2)]), 2, ws.binding)
    for family, g in standard_equiv_generators(rng):
        assert equiv_generator_check(g, V, rng=rng), family


def test_dv_coefficient_matches_per_family_reference():
    ws = Workspace()
    rng = np.random.default_rng(12)
    U3 = ws.declare("U3d", 3, "complex", random_surrogate(rng, 3, "complex"))
    V = Potential(func_app(U3, [t(), x(1), x(2)]), 2, ws.binding)
    gens = standard_equiv_generators(rng)
    for family, g in gens:
        diff_ = dv_coefficient(g, V) - REFERENCE_THETA[family](g, V)
        assert is_zero(diff_, trials=2, binding=V.binding, rng=rng), family
    # linear in g: D(tau) + M(sigma) gives the sum of the two closed forms
    mixed = gens[0][1].add(gens[3][1])
    ref = REFERENCE_THETA["D"](mixed, V) + REFERENCE_THETA["M"](mixed, V)
    assert is_zero(dv_coefficient(mixed, V) - ref, trials=2, binding=V.binding, rng=rng)
    # and the mixed generator passes the finite-difference check
    assert equiv_generator_check(mixed, V, rng=rng)


def test_rotation_flows_are_defined_at_n_2():
    ws = Workspace()
    tr = flow(J(1, 2), 0.25, ws)
    assert tr.T is t() and tr.X == (ZERO, ZERO) and tr.Sigma is ZERO
    assert float(tr.O[1][0]) == pytest.approx(np.sin(0.25))
    for a, b in ((1, 2), (2, 3)):
        with pytest.raises(ValueError, match="n = 2"):
            flow(J(a, b, 3), 0.25, ws)
    # a rotation-free generator flows at any n
    tr = flow(D(t(), 3), 0.25, ws)
    assert tr.O == _identity_matrix(3) and tr.X == (ZERO,) * 3 and tr.Sigma is ZERO
    tr = flow(D(1, 3), 0.25, ws)
    assert tr.O == _identity_matrix(3) and tr.T is t() + Fraction(1, 4)


def test_flow_rotates_by_a_symbolic_kappa_bound_in_its_workspace():
    # case 3's D(t) + beta J: kappa is the symbol beta, which the draw binds
    from schsym.cases import instantiate, table as case_table

    inst = instantiate(case_table()[3], np.random.default_rng(1))
    g = inst.generators[3]
    beta = inst.workspace.binding.lookup(inst.workspace.table.get("beta"))
    assert g.kappa == (func_app(inst.workspace.table.get("beta"), []),)
    tr = flow(g, 0.25, inst.workspace)
    assert float(tr.O[1][0]) == pytest.approx(np.sin(0.25 * beta.value.real))
    assert equiv_generator_check(g, inst.V, rng=np.random.default_rng(2))


def test_equiv_generator_check_detects_wrong_coefficient(table, monkeypatch):
    ws = Workspace()
    rng = np.random.default_rng(10)
    U3 = ws.declare("U3b", 3, "complex", random_surrogate(rng, 3, "complex"))
    V = Potential(func_app(U3, [t(), x(1), x(2)]), 2, ws.binding)
    g = M(parse("t^2"))
    assert equiv_generator_check(g, V, rng=rng)
    # flow from sigma = t^2, coefficient from t^2 + t
    true_flow = equivalence.flow
    monkeypatch.setattr(equivalence, "flow", lambda _, delta, ws: true_flow(g, delta, ws))
    assert not equiv_generator_check(M(parse("t^2 + t")), V, rng=rng)


def test_real_admissibility(table):
    assert is_real_admissible(EquivTransformation.identity(2), 2, rng=RNG)
    lnexpr = func_app(LOG, [parse("2*t")])
    trR = EquivTransformation(2, int_pow(var(T_VAR), 2), _identity_matrix(2),
                              (ZERO, ZERO), ZERO, const(Fraction(-1, 2)) * lnexpr,
                              bracket=(0.05, 60.0))
    assert is_real_admissible(trR, 2, rng=RNG)
    assert not is_real_admissible(EquivTransformation.elementary_I(var(T_VAR), 2), 2, rng=RNG)


def test_real_subclass_closure(table):
    tbl = table
    UR = tbl.declare("UR", 3, "real")
    V = Potential(func_app(UR, [t(), x(1), x(2)]), 2)
    lnexpr = func_app(LOG, [parse("2*t")])
    trR = EquivTransformation(2, int_pow(var(T_VAR), 2), _identity_matrix(2),
                              (ZERO, ZERO), ZERO, const(Fraction(-1, 2)) * lnexpr,
                              bracket=(0.05, 60.0))
    Vt = act_on_potential(V, trR)
    assert is_zero(im_part(Vt.expr), binding=Vt.binding, rng=RNG)


def test_free_reducibility(table):
    rng = np.random.default_rng(11)
    assert is_free_reducible(Potential(ZERO, 2), rng)
    assert is_free_reducible(Potential(parse("(x1^2+x2^2)/4"), 2), rng)
    assert is_free_reducible(Potential(parse("t*x1 + x2 + i*t^2"), 2), rng)
    assert not is_free_reducible(Potential(parse("x2^(-2)"), 2), rng)
    assert not is_free_reducible(Potential(parse("i*x1"), 2), rng)  # imaginary linear
    assert not is_free_reducible(Potential(parse("x1^2"), 2), rng)  # non-scalar hessian
    with pytest.raises(UndecidableTemplate):
        is_free_reducible(generic_potential(table), rng)


def test_transformation_validation():
    with pytest.raises(ValueError):
        EquivTransformation(2, var(T_VAR), ((Fraction(1), Fraction(1)),
                                            (Fraction(0), Fraction(1))),
                            (ZERO, ZERO), ZERO, ZERO)
    with pytest.raises(ValueError):
        EquivTransformation(2, int_pow(var(T_VAR), 2) - var(T_VAR),
                            _identity_matrix(2), (ZERO, ZERO), ZERO, ZERO)
