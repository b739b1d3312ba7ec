"""Canonical fields: expansion, both brackets, span ranks."""
import itertools

import numpy as np
import pytest
from fractions import Fraction

import schsym.expr as expr_module
from schsym.closedform import exppoly_to_expr
from schsym.expr import (HALF, I_UNIT, ONE, T_VAR, ZERO, AbsPow, Conj, Const, Expr, FuncApp,
                         IntPow, Product, Sign, Sum, SymbolTable, Var, const, diff, func_app,
                         int_pow, psi, sum_, t, var, x)
from schsym.conditions import _rank, invariants
from schsym.fields import (I2, I8, D, GeneratorCoeffs, Iop, J, M, P, _pairs, absx2,
                           bracket_generic, bracket_rows, bracket_structural,
                           coefficient_rows, expand)
from schsym.funcbank import random_trig_poly
from schsym.numeric import EMPTY_BINDING, UnsafeSampleError, _Tape, eval_batch, is_zero
from schsym.parsing import parse

RNG = np.random.default_rng(20)


def rand_gen(rng, with_eta=False):
    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real"))

    eta = None
    if with_eta:
        eta = parse("(1+i)*t*x1 + x2^2")
    return GeneratorCoeffs(2, fn(), (Fraction(int(rng.integers(-2, 3)), 3),),
                           (fn(), fn()), fn(), fn(), eta)


def test_expand_time_translation():
    f = expand(D(1))
    assert f.coef_t is ONE
    assert all(c is ZERO for c in f.coef_x)
    assert f.coef_psi is ZERO and f.coef_psi_star is ZERO


def test_eta0_none_is_stored_as_zero():
    args = (2, var(T_VAR), (ZERO,), (ONE, ZERO), ZERO, ZERO)
    assert GeneratorCoeffs(*args, None) == GeneratorCoeffs(*args, ZERO) == GeneratorCoeffs(*args)
    assert GeneratorCoeffs(*args, None).eta0 is ZERO


def test_expand_rotation():
    f = expand(J(1, 2))
    assert f.coef_x == (-x(2), x(1))
    assert f.coef_psi is ZERO


def test_expand_galilean_boost():
    f = expand(P(var(T_VAR), 0))
    assert f.coef_x == (var(T_VAR), ZERO)
    assert f.coef_psi is parse("1/2*i*x1*psi")
    assert f.coef_psi_star is parse("-1/2*i*x1*conj(psi)")


def test_structural_bracket_closed_forms():
    b = bracket_structural(D(1), D(var(T_VAR)))
    assert b.tau is ONE and b.sigma is ZERO and b.rho is ZERO
    b2 = bracket_structural(P(1, 0), P(var(T_VAR), 0))
    assert b2.sigma is const(Fraction(1, 2))
    assert all(c is ZERO for c in b2.chi)
    # [J, P(c1, c2)] = P(c2, -c1)
    c1 = parse("cos(t)")
    c2 = parse("sin(2*t)")
    b3 = bracket_structural(J(1, 2), P(c1, c2))
    assert b3.chi == (c2, -c1)


def test_bracket_antisymmetry_on_random_generators():
    for k in range(5):
        g = rand_gen(np.random.default_rng(100 + k))
        b = bracket_structural(g, g)
        f = expand(b)
        for comp in f.components():
            assert is_zero(comp, trials=1, points=30, rng=RNG)


def test_generic_matches_structural_with_eta0():
    # the Z-rules are bracket identities independent of the equation
    rng = np.random.default_rng(17)
    g1 = rand_gen(rng, with_eta=True)
    g2 = rand_gen(rng, with_eta=True)
    dvf = expand(bracket_structural(g1, g2)).sub(bracket_generic(expand(g1), expand(g2)))
    for comp in dvf.components():
        assert is_zero(comp, trials=2, points=40, rng=RNG)


# expand and the chi part of bracket_structural, as chains of binary + and *
def _ref_expand_x_and_q(g):
    n = g.n
    tau_t = diff(g.tau, T_VAR)
    xi_rot = g.rotation_xi()
    coef_x = tuple(HALF * tau_t * x(a) + xi_rot[a - 1] + g.chi[a - 1] for a in range(1, n + 1))
    q = I8 * diff(tau_t, T_VAR) * absx2(n)
    for a in range(1, n + 1):
        q = q + I2 * diff(g.chi[a - 1], T_VAR) * x(a)
    return coef_x, q + g.rho + I_UNIT * g.sigma


def _ref_structural_chi(g1, g2):
    n = g1.n
    t1, t2 = g1.tau, g2.tau
    t1t, t2t = diff(t1, T_VAR), diff(t2, T_VAR)
    K1, K2 = g1.kappa_matrix(), g2.kappa_matrix()
    chi = []
    for a in range(n):
        c = t1 * diff(g2.chi[a], T_VAR) - HALF * t1t * g2.chi[a]
        c = c - (t2 * diff(g1.chi[a], T_VAR) - HALF * t2t * g1.chi[a])
        c = c - sum_(K1[a][b] * g2.chi[b] for b in range(n))
        c = c + sum_(K2[a][b] * g1.chi[b] for b in range(n))
        chi.append(c)
    return tuple(chi)


def test_expand_and_structural_chi_match_binary_chains():
    """One n-ary sum_ builds the node the chain builds: the summands of
    expand share no monomial, and bracket_structural adds only one group
    of summands per step."""
    tv = t()
    f = parse("cos(t) + 2*sin(3*t)")
    g = parse("t^2/2 + t")
    gens = [D(1), D(tv), D(g), J(1, 2), P(1, 0), P(tv, tv * tv), M(f), Iop(g),
            # rotations and chis whose terms cancel between the summands
            GeneratorCoeffs(2, ONE, (Fraction(1),), (f, f + 1), g, f),
            GeneratorCoeffs(2, g, (Fraction(-2, 3),), (f, f), f, ZERO),
            GeneratorCoeffs(2, -tv * tv / 2, (Fraction(0),), (-g, tv), ZERO, g),
            # a pair whose chi_2 would reorder if two chi steps were one sum
            GeneratorCoeffs(2, tv, (Fraction(1),), (2 * tv, ZERO), ZERO, ZERO),
            GeneratorCoeffs(2, ZERO, (Fraction(2),), (tv - parse("cos(t)"), 2 * tv), ZERO, ZERO)]
    rng = np.random.default_rng(23)
    gens += [rand_gen(rng) for _ in range(6)]
    for g1 in gens:
        coef_x, q = _ref_expand_x_and_q(g1)
        e = expand(g1)
        assert all(u is v for u, v in zip(e.coef_x, coef_x))
        assert e.coef_psi is q * psi(2) + g1.eta0
        for g2 in gens:
            got = bracket_structural(g1, g2).chi
            assert all(u is v for u, v in zip(got, _ref_structural_chi(g1, g2)))


# the stored fields an interned node's key holds after its class; a Sum or
# Product is keyed by the one tuple it stores
_KEY_FIELDS = {FuncApp: ("sym", "args", "didx"), IntPow: ("base", "k"), AbsPow: ("base", "q"),
               Sign: ("base",), Conj: ("arg",), Var: ("vid",)}


def test_intern_keys_hold_the_nodes_own_children():
    g1, g2, g3 = (rand_gen(np.random.default_rng(300 + k), with_eta=k == 0) for k in range(3))
    g3 = g3.add(Iop(parse("t^(1/3)")))  # |t|^q and sgn(t) nodes
    jacobi = bracket_structural(g1, bracket_structural(g2, g3)) \
        .add(bracket_structural(g2, bracket_structural(g3, g1))) \
        .add(bracket_structural(g3, bracket_structural(g1, g2)))
    expand(jacobi).sub(bracket_generic(expand(g1), expand(bracket_structural(g2, g3))))
    kinds, pairs = set(), 0
    for key, node in expr_module._INTERN.items():
        # a node differentiated by one variable keeps its derivative as a
        # pair; a dict holds two or more
        diffs = node._diffs
        assert not (type(diffs) is dict and len(diffs) == 1), node
        pairs += type(diffs) is tuple
        if type(node) is Const:
            assert key is node.coeff and all(type(v) is int for v in key)
            continue
        kinds.add(type(node))
        # a Sum/Product key is a bare tuple of children, apart from the Const
        # int-tuple keys only while every child is an Expr
        assert all(isinstance(c, Expr) for c in node.children())
        if type(node) is Sum or type(node) is Product:
            # its own children, or its class and them when the other class
            # holds that tuple
            kids = node.children()
            assert key is kids or (key == (type(node), kids) and key[1] is kids
                                   and type(expr_module._INTERN[kids]) in {Sum, Product} - {type(node)})
            continue
        stored = tuple(getattr(node, f) for f in _KEY_FIELDS[type(node)])
        assert key[0] is type(node) and len(key) == 1 + len(stored)
        assert all(k is v for k, v in zip(key[1:], stored)), key
    assert {Sum, Product, FuncApp, IntPow, AbsPow, Sign, Var} <= kinds and pairs


def test_generic_bracket_simple():
    f1 = expand(D(1))
    f2 = expand(D(var(T_VAR)))
    b = bracket_generic(f1, f2)
    assert b.coef_t is ONE


def test_generic_bracket_crossed_rotations():
    from schsym.fields import VectorField

    f1 = VectorField(2, ZERO, (ZERO, x(1)), ZERO, ZERO)  # x1 d2
    f2 = VectorField(2, ZERO, (x(2), ZERO), ZERO, ZERO)  # x2 d1
    b = bracket_generic(f1, f2)
    assert b.coef_x == (x(1), -x(2))  # x1 d1 - x2 d2


def test_n3_machinery_through_classifying_condition():
    # the canonical machinery is dimension-generic even though the table is n=2
    from schsym.conditions import Potential, classifying_residual
    from schsym.expr import int_pow

    tv = var(T_VAR)
    V0 = Potential(ZERO, 3)
    g = D(int_pow(tv, 2), 3).add(Iop(parse("-3/2*t", n=3), 3))
    assert is_zero(classifying_residual(V0, g), rng=RNG)
    rot = J(1, 3, 3)
    f = expand(rot)
    assert f.coef_x == (-x(3), ZERO, x(1))
    assert classifying_residual(V0, rot) is ZERO


def test_expand_injective_on_canonical_data():
    rng = np.random.default_rng(23)
    g1 = rand_gen(rng)
    g2 = rand_gen(rng)
    dvf = expand(g1).sub(expand(g2))
    nonzero = any(not is_zero(c, trials=1, points=30, rng=RNG)
                  for c in dvf.components())
    assert nonzero  # distinct data give distinct fields
    same = expand(g1).sub(expand(g1))
    assert all(c is ZERO for c in same.components())


def _closed_spans():
    """Bracket-closed hand-built spans with M and I, and their r0."""
    tv = var(T_VAR)
    cos, sin = parse("cos(t)"), parse("sin(t)")
    return [
        ([M(1), Iop(1), P(1, 0), P(0, 1), P(tv, 0), P(0, tv)], 2),
        # more generators than tau/kappa columns (13 + 1): every left
        # singular vector past the rank counts, not only the first 14
        ([M(1), Iop(1), *[P(1, 0)] * 12, P(0, 1)], 2),
        ([M(1), Iop(1), D(1), P(cos, sin), P(sin, -cos)], 2),
        ([M(1), Iop(1), P(1, 0).add(Iop(tv, 2)), P(tv, 0).add(Iop(int_pow(tv, 2), 2))], 1),
        # a rotating tuple still has functional rank 1
        ([M(1), Iop(1), P(cos, sin)], 1),
        ([M(1), Iop(1), D(1), D(tv)], 0),
        # the shift rides on D(1): no tau-free combination carries a chi
        ([M(1), Iop(1), D(1).add(P(1, 0))], 0),
        ([M(1), Iop(1)], 0),
    ]


def test_invariants_r0_examples():
    for i, (gs, r0) in enumerate(_closed_spans()):
        assert invariants(gs, rng=np.random.default_rng(i)).r0 == r0, i


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorCoeffs(2, x(1), (Fraction(0),), (ZERO, ZERO), ZERO, ZERO, None)
    with pytest.raises(ValueError):
        GeneratorCoeffs(2, ZERO, (Fraction(0),), (psi(2), ZERO), ZERO, ZERO, None)


def test_kappa_entries_must_be_real_constants():
    tab = SymbolTable()
    beta = func_app(tab.declare("beta", 0, "real"), [])
    c = func_app(tab.declare("c", 0, "complex"), [])
    for bad, why in ((t(), "t and x"), (beta * x(2), "t and x"), (I_UNIT, "real-valued"),
                     (const(1, 2) * beta, "real-valued"), (c, "complex-codomain")):
        with pytest.raises(ValueError, match=f"kappa .*{why}"):
            GeneratorCoeffs(2, ZERO, (bad,), (ZERO, ZERO), ZERO, ZERO)
    # an arity-0 real symbol is a constant; numbers become exact constants
    assert GeneratorCoeffs(2, ZERO, (beta,), (ZERO, ZERO), ZERO, ZERO).kappa == (beta,)
    assert GeneratorCoeffs(2, ZERO, (Fraction(1, 2),), (ZERO, ZERO), ZERO, ZERO).kappa == (HALF,)


def _entry_value(k, binding) -> float:
    """A kappa entry's value: a constant's own, else its own eval_batch's."""
    if type(k) is Const:
        return k.value().real
    vals, _, _ = eval_batch(k, binding, {}, count=1)
    return vals.reshape(-1)[0].real


def _full_bracket_rows(gs, binding, rows, drows, slices):
    """The k x k bracket rows as bracket_rows computed them before it kept
    only the pairs i < j, with K from the values of each generator's exact
    kappa_matrix: out[i, j] is the row of [gs[i], gs[j]]."""
    k, n, m = len(gs), gs[0].n, slices["tau"].stop

    def skew(a, b):  # out[i, j] = a_i b_j - a_j b_i
        p = a[:, None] * b[None, :]
        return p - p.swapaxes(0, 1)

    tau, dtau = rows[:, slices["tau"]], drows[:, slices["tau"]]
    chi = rows[:, slices["chi"]].reshape(k, n, m)
    dchi = drows[:, slices["chi"]].reshape(k, n, m)
    K = np.array([[[_entry_value(e, binding) for e in row] for row in g.kappa_matrix()]
                  for g in gs])
    lo, hi = (np.array(_pairs(n), dtype=int).reshape(-1, 2) - 1).T
    KK = K[None, :] @ K[:, None]  # KK[i, j] = K_j K_i
    KC = K[:, None] @ chi[None, :]  # KC[i, j] = K_i chi_j
    out = np.empty((k, k, rows.shape[1]))
    out[..., slices["tau"]] = skew(tau, dtau)
    out[..., slices["kappa"]] = (KK - KK.swapaxes(0, 1))[:, :, hi, lo]
    out[..., slices["chi"]] = (skew(tau[:, None], dchi) - 0.5 * skew(dtau[:, None], chi)
                               - (KC - KC.swapaxes(0, 1))).reshape(k, k, n * m)
    out[..., slices["sigma"]] = (skew(tau, drows[:, slices["sigma"]])
                                 + 0.5 * skew(chi, dchi).sum(axis=2))
    out[..., slices["rho"]] = skew(tau, drows[:, slices["rho"]])
    return out


def _assert_bracket_rows_match_structural(gs, binding, rng):
    tvals = rng.uniform(0.32, 1.68, size=13)
    rows, drows, slices = coefficient_rows(gs, binding, tvals)
    got = bracket_rows(rows, drows, slices)
    pairs = list(itertools.combinations(range(len(gs)), 2))
    assert got.shape == (len(pairs), rows.shape[1])
    # the pairs i < j of the k x k rows, row-major, to the bit
    full = _full_bracket_rows(gs, binding, rows, drows, slices)
    assert got.tobytes() == full[tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)].tobytes()
    for (i, j), row in zip(pairs, got):
        ref, _, _ = coefficient_rows([bracket_structural(gs[i], gs[j])], binding, tvals)
        # a bracket that vanishes identically samples to rounding noise of
        # the size of its bilinear operands, so that size joins the scale
        scale = np.linalg.norm(ref[0]) + np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
        assert np.linalg.norm(row - ref[0]) <= 1e-12 * scale, (i, j)


def test_bracket_rows_match_structural_on_table_cases():
    from schsym.cases import instantiate, table

    rng = np.random.default_rng(41)
    for case in table().values():
        inst = instantiate(case, rng)
        _assert_bracket_rows_match_structural(inst.generators, inst.workspace.binding, rng)


def test_stacked_bracket_rows_equal_per_draw_calls():
    from schsym.cases import instantiate, table

    rng = np.random.default_rng(47)
    for cid in (5, 19):  # rotations, and the largest case
        draws = []
        for _ in range(5):
            inst = instantiate(table()[cid], rng)
            tvals = rng.uniform(0.32, 1.68, size=13)
            draws.append(coefficient_rows(inst.generators, inst.workspace.binding, tvals))
        slices = draws[0][2]
        stacked = bracket_rows(np.stack([d[0] for d in draws]),
                               np.stack([d[1] for d in draws]), slices)
        assert np.array_equal(stacked, [bracket_rows(r, dr, slices) for r, dr, _ in draws])


def test_bracket_rows_match_structural_with_rotations_at_n3():
    # the kappa commutator vanishes identically at n = 2
    rng = np.random.default_rng(43)

    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real"))

    gs = [GeneratorCoeffs(3, fn(), tuple(Fraction(int(rng.integers(-2, 3)), 3) for _ in range(3)),
                          (fn(), fn(), fn()), fn(), fn(), None) for _ in range(4)]
    assert any(k is not ZERO for g in gs for k in g.kappa)
    _assert_bracket_rows_match_structural(gs, EMPTY_BINDING, rng)


def _eval_batch_rows(gs, binding, tvals, order):
    """coefficient_rows' rows (order 0) or drows (order 1), with every
    coefficient or derivative sampled through its own eval_batch call."""
    m = len(tvals)
    env = {T_VAR: np.asarray(tvals, dtype=complex)}

    def sample(e):
        vals, _, _ = eval_batch(diff(e, T_VAR) if order else e, binding, env)
        return np.real(np.broadcast_to(vals, (m,)))

    # a kappa entry's row holds its first sample
    return np.array([np.concatenate([sample(g.tau), [sample(k)[0] for k in g.kappa],
                                     *(sample(c) for c in g.chi),
                                     sample(g.sigma), sample(g.rho)]) for g in gs])


def _assert_rows_match_eval_batch_bitwise(gs, binding, tvals, label):
    """Each row of the union run is its root's own eval_batch real part."""
    rows, drows, _ = coefficient_rows(gs, binding, tvals)
    assert rows.tobytes() == _eval_batch_rows(gs, binding, tvals, 0).tobytes(), label
    assert drows.tobytes() == _eval_batch_rows(gs, binding, tvals, 1).tobytes(), label


def test_coefficient_rows_match_eval_batch_bitwise_on_table_cases():
    from schsym.cases import instantiate, table

    rng = np.random.default_rng(47)
    for cid, case in table().items():
        inst = instantiate(case, rng)
        tvals = rng.uniform(0.32, 1.68, size=13)
        _assert_rows_match_eval_batch_bitwise(inst.generators, inst.workspace.binding, tvals, cid)

    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real"))

    # rotations at n = 3
    gs = [GeneratorCoeffs(3, fn(), tuple(Fraction(int(rng.integers(-2, 3)), 3) for _ in range(3)),
                          (fn(), fn(), fn()), fn(), fn(), None) for _ in range(4)]
    tvals = rng.uniform(0.32, 1.68, size=13)
    _assert_rows_match_eval_batch_bitwise(gs, EMPTY_BINDING, tvals, "n3")
    # 3/7 is read by a sum in tau, by products in chi2 and rho and by cos in
    # chi1: the union tape hands it to all of them as an array, while tau's,
    # chi2's and rho's own tapes read it as a scalar
    c = const(Fraction(3, 7))
    gs = [M(1), Iop(1), P(parse("t*cos(3/7)"), parse("3/7*sin(t)")),
          GeneratorCoeffs(2, parse("t^2 + 3/7"), (Fraction(1),), (ZERO, parse("sin(t)")), ZERO,
                          parse("exp(t) + 3/7*t"), None)]
    roots = (gs[2].chi[0], gs[2].chi[1], gs[3].tau, gs[3].rho)
    assert c.value() in [v for _, v in _Tape(roots).bcast]
    assert all(not _Tape(e).bcast for e in roots[1:])
    tvals = rng.uniform(0.32, 1.68, size=13)
    _assert_rows_match_eval_batch_bitwise(gs, EMPTY_BINDING, tvals, "bcast")


def test_coefficient_rows_fold_no_scale(monkeypatch):
    # rows read values and the mask only: neither the union run nor a
    # root-by-root run folds a subterm scale
    from schsym.cases import instantiate, table

    runs, run = [], _Tape.run
    monkeypatch.setattr(_Tape, "run", lambda self, *a: runs.append(a[3:]) or run(self, *a))
    monkeypatch.setattr(_Tape, "_parts", None)
    inst = instantiate(table()[16], np.random.default_rng(3))
    coefficient_rows(inst.generators, inst.workspace.binding, np.linspace(0.32, 1.68, 13))
    gs = [Iop(1), D(parse("t")), P(ONE, parse("log(t - 2)"))]
    with pytest.raises(UnsafeSampleError):
        coefficient_rows(gs, EMPTY_BINDING, np.linspace(0.32, 1.68, 13))
    assert len(runs) > 2 and set(runs) == {(False,)}


def test_coefficient_rows_reject_unsafe_samples():
    gs = [Iop(1), D(parse("t")), P(ONE, parse("log(t - 2)"))]
    with pytest.raises(UnsafeSampleError, match="generator 2: chi2"):
        coefficient_rows(gs, EMPTY_BINDING, np.linspace(0.32, 1.68, 13))


def test_stacked_coefficient_rows_name_the_first_unsafe_draw():
    # log(t - 1) is unsafe at t <= 1 and log(t - 2) at t <= 2: draw 0 is
    # safe, draw 1 is unsafe in generator 2 only and draw 2 in both, so the
    # error names draw 1, counted from first_draw, and its generator 2
    gs = [Iop(1), P(ONE, parse("log(t - 1)")), P(ONE, parse("log(t - 2)"))]
    times = np.array([np.linspace(2.1, 2.5, 13), np.linspace(1.5, 2.5, 13),
                      np.linspace(0.5, 0.9, 13)])
    with pytest.raises(UnsafeSampleError, match=r"^generator 2: chi2 is singular or undefined "
                                                r"at 7 of 13 sampled times of draw 5$"):
        coefficient_rows(gs, [EMPTY_BINDING] * 3, times, first_draw=4)


def test_coefficient_rows_raise_when_no_root_is_unsafe_alone(monkeypatch):
    # an unsafe union run raises even where no root's own run names a culprit
    import schsym.fields as fields_module

    real = fields_module.eval_batch

    def union_unsafe(e, *args, **kw):
        vals, scale, unsafe = real(e, *args, **kw)
        return vals, scale, unsafe | (type(e) is _Tape)

    monkeypatch.setattr(fields_module, "eval_batch", union_unsafe)
    gs = [Iop(1), D(parse("t")), P(ONE, parse("sin(t)"))]
    with pytest.raises(UnsafeSampleError, match="^the coefficients are singular or undefined "
                                                "at 13 of 13 sampled times$"):
        coefficient_rows(gs, EMPTY_BINDING, np.linspace(0.32, 1.68, 13))


# -- the rank rule against the per-matrix rule it replaced ----------------------

def _ref_rank(mat, tol):
    """The rank rule, one matrix per SVD call."""
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


def _ref_r0(gs, binding, rng, tol):
    """r0 on the rows invariants samples, with one SVD per sampled time."""
    n = gs[0].n
    tvals = rng.uniform(0.32, 1.68, size=13)
    rows, _, slices = coefficient_rows(gs, binding, tvals)
    head = np.hstack([rows[:, slices["tau"]], rows[:, slices["kappa"]]])
    u, s, _ = np.linalg.svd(head, full_matrices=True)
    smax = s[0] if len(s) and s[0] > 0 else 1.0
    combos = u[:, int(np.sum(s > tol * max(1.0, smax))):].T
    if combos.shape[0] == 0:
        return 0
    chi = combos @ rows[:, slices["chi"]]
    mlen = len(tvals)
    best = 0
    for j in range(mlen):
        pointwise = np.stack([chi[:, a * mlen + j] for a in range(n)], axis=1)
        best = max(best, _ref_rank(pointwise, tol))
    return best


def _matrix_with_singular_values(rng, k, n, s):
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.zeros((k, n))
    d[np.arange(len(s)), np.arange(len(s))] = s
    return u @ d @ v.T


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
def test_stacked_rank_matches_per_matrix_rank(tol):
    rng = np.random.default_rng(53)
    for k, n in ((3, 2), (2, 3), (5, 5), (1, 4)):
        r = min(k, n)
        mats = [np.zeros((k, n)), rng.standard_normal((k, n))]
        for s0 in (1e-3, 1.0, 40.0):
            cut = tol * max(1.0, s0)
            for tail in (0.5 * cut, 2.0 * cut, 0.0):
                s = [s0] + [tail] * (r - 1)
                mats.append(_matrix_with_singular_values(rng, k, n, s))
        rng.shuffle(mats)
        stack = np.stack(mats)
        want = [_ref_rank(mat, tol) for mat in mats]
        assert _rank(stack, tol).tolist() == want
        got = [_rank(mat, tol) for mat in mats]
        assert got == want and all(type(g) is int for g in got)
    assert _rank(np.zeros((0, 3)), tol) == 0 and _rank(np.zeros((2, 0, 3)), tol).tolist() == [0, 0]


def test_invariants_r0_matches_per_time_reference():
    from schsym.cases import instantiate, table

    rng = np.random.default_rng(59)
    lists = [(inst.generators, inst.workspace.binding)
             for inst in (instantiate(case, rng) for case in table().values())]
    lists += [(gs, EMPTY_BINDING) for gs, _ in _closed_spans()]
    ranks = set()
    for i, (gs, binding) in enumerate(lists):
        want = _ref_r0(gs, binding, np.random.default_rng(i), 1e-8)
        assert invariants(gs, binding, np.random.default_rng(i), 1e-8).r0 == want, i
        ranks.add(want)
    assert ranks == {0, 1, 2}
