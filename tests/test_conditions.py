"""Classifying condition, prolongation oracle, invariants, kernel, lemmas."""
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import schsym.conditions as conditions
import schsym.expr as expr_module
from schsym.cases import instantiate, table as case_table
from schsym.conditions import (InvariantTuple, Potential, SpanError, _inside, _rank, _row_space,
                               classifying_residual, eta0_residual, invariants, kernel_check,
                               lemma_fixtures, prolonged_residual, sample_rows, span_invariants)
from schsym.expr import (EXP, HALF, I_UNIT, SymbolTable, T_VAR, ZERO, conj_expr, const, diff,
                         func_app, int_pow, jet_var, psi, subst, t, var, x, x_var)
from schsym.fields import (D, GeneratorCoeffs, Iop, J, M, P, absx2, bracket_rows,
                           coefficient_rows, expand)
from schsym.funcbank import FunctionImpl
from schsym.numeric import EMPTY_BINDING, UnsafeSampleError, Workspace, _Tape, is_zero
from schsym.parsing import parse

RNG = np.random.default_rng(31)


@pytest.fixture
def table():
    tbl = SymbolTable()
    tbl.declare("Uc", 0, "complex")
    tbl.declare("W", 3, "complex")
    return tbl


def inverse_square(table):
    return Potential(func_app(table.get("Uc"), []) * int_pow(parse("x1^2+x2^2"), -1), 2)


def test_zero_potential_time_translation(table):
    assert classifying_residual(Potential(ZERO, 2), D(1)) is ZERO


def test_inverse_square_dilations(table):
    V = inverse_square(table)
    assert is_zero(classifying_residual(V, D(var(T_VAR))), rng=RNG)
    g = D(int_pow(var(T_VAR), 2)).add(Iop(-var(T_VAR), 2))
    assert is_zero(classifying_residual(V, g), rng=RNG)
    assert is_zero(classifying_residual(V, J(1, 2)), rng=RNG)


def test_non_symmetry_yields_witness(table):
    V = Potential(parse("t*x1"), 2)
    res = classifying_residual(V, D(1))
    assert res is x(1)
    assert not is_zero(res, rng=RNG)


def test_dimension_mismatch(table):
    V3 = Potential(parse("x3", n=3), 3)
    with pytest.raises(ValueError):
        classifying_residual(V3, D(1, 2))


def _written_out_residual(V, g):
    """The classifying condition term by term, LHS - RHS, kept as the reference:
    tau V_t + (tau_t x_a / 2 + rotation + chi_a) V_a + tau_t V
      = tau_ttt |x|^2 / 8 + chi_a'' x_a / 2 + sigma_t - i rho_t - i (n/4) tau_tt"""
    n = g.n
    tau_t = diff(g.tau, T_VAR)
    tau_tt = diff(tau_t, T_VAR)
    xi_rot = g.rotation_xi()
    res = g.tau * diff(V.expr, T_VAR) + tau_t * V.expr
    for a in range(1, n + 1):
        xi_a = HALF * tau_t * x(a) + xi_rot[a - 1] + g.chi[a - 1]
        res = res + xi_a * diff(V.expr, x_var(a))
    res = res - const(Fraction(1, 8)) * diff(tau_tt, T_VAR) * absx2(n)
    for a in range(1, n + 1):
        res = res - HALF * diff(diff(g.chi[a - 1], T_VAR), T_VAR) * x(a)
    res = res - diff(g.sigma, T_VAR) + I_UNIT * diff(g.rho, T_VAR)
    return res + const(0, Fraction(n, 4)) * tau_tt


def test_classifying_residual_is_the_written_out_condition():
    # tau V_t + xi . grad V - dv_coefficient(g, V), checked on every table
    # case's generators and on rotations in three planes at n = 3
    for case in case_table().values():
        inst = instantiate(case, np.random.default_rng(80 + case.id))
        for g in inst.generators:
            d = classifying_residual(inst.V, g) - _written_out_residual(inst.V, g)
            assert is_zero(d, trials=1, points=20, binding=inst.workspace.binding,
                           rng=np.random.default_rng(case.id)), case.id
    V = Potential(parse("sin(t)*x1^2 + x2*x3/(1 + t^2) + exp(t)*x3", n=3), 3)
    g = GeneratorCoeffs(3, parse("t^3 + cos(t)"), (Fraction(1), Fraction(-2), Fraction(1, 3)),
                        (parse("t^2"), parse("sin(t)"), parse("exp(t)")), parse("t*cos(t)"),
                        parse("t^2/3"), None)
    d = classifying_residual(V, g) - _written_out_residual(V, g)
    assert is_zero(d, trials=2, points=40, rng=np.random.default_rng(3))


def test_eta0_residual_free_equation(table):
    V0 = Potential(ZERO, 2)
    assert eta0_residual(V0, parse("1")) is ZERO
    assert eta0_residual(V0, parse("x1")) is ZERO
    plane_wave = func_app(EXP, [parse("i*x1 - i*t")])
    assert is_zero(eta0_residual(V0, plane_wave), rng=RNG)
    # a wrong dispersion fails
    bad = func_app(EXP, [parse("i*x1 - 2*i*t")])
    assert not is_zero(eta0_residual(V0, bad), rng=RNG)


def test_prolonged_matches_classifying_for_symmetries(table):
    V = inverse_square(table)
    g = D(var(T_VAR))
    assert is_zero(prolonged_residual(V, expand(g)), rng=RNG)


def test_prolonged_rejects_non_symmetry(table):
    V = Potential(parse("x1"), 2)
    res = prolonged_residual(V, expand(P(1, 0)))
    assert not is_zero(res, rng=RNG)


def test_prolonged_classifying_equivalence_random(table):
    # both formulations agree on random (V, g) pairs, symmetric or not
    from schsym.closedform import exppoly_to_expr
    from schsym.fields import GeneratorCoeffs
    from schsym.funcbank import random_trig_poly

    W = table.get("W")
    V = Potential(func_app(W, [t(), x(1), x(2)]), 2)
    for k in range(8):
        rng = np.random.default_rng(400 + k)

        def fn():
            return exppoly_to_expr(random_trig_poly(rng, "real"))

        g = GeneratorCoeffs(2, fn(), (Fraction(int(rng.integers(-1, 2))),),
                            (fn(), fn()), fn(), fn(), None)
        seed = np.random.default_rng(500 + k)
        c_zero = is_zero(classifying_residual(V, g), trials=2, points=50, rng=seed)
        seed = np.random.default_rng(500 + k)
        p_zero = is_zero(prolonged_residual(V, expand(g)), trials=2, points=50, rng=seed)
        assert c_zero == p_zero


def test_invariants_free_equation():
    tv = var(T_VAR)
    gens = [M(1), Iop(1), P(1, 0), P(tv, 0), P(0, 1), P(0, tv), J(1, 2),
            D(1), D(tv), D(int_pow(tv, 2)).add(Iop(-tv, 2))]
    tup = invariants(gens, rng=np.random.default_rng(0))
    assert tup == InvariantTuple(2, 4, 1, 3, 2)
    assert tup.dim == 10
    assert tup.constraint_violations() == []


def test_invariants_kernel_only():
    assert invariants([M(1), Iop(1)], rng=RNG) == InvariantTuple(2, 0, 0, 0, 0)


def test_invariants_counts_blocks():
    tv = var(T_VAR)
    gens = [M(1), Iop(1), D(1), D(tv).add(J(1, 2).scale(Fraction(3, 7)))]
    assert invariants(gens, rng=RNG) == InvariantTuple(2, 0, 0, 2, 0)


def test_invariants_take_a_zero_eta0_as_none():
    gens = [M(1), Iop(1), D(1)]
    want = invariants(gens, rng=np.random.default_rng(0))
    assert invariants([replace(g, eta0=ZERO) for g in gens],
                      rng=np.random.default_rng(0)) == want == InvariantTuple(2, 0, 0, 1, 0)
    with pytest.raises(SpanError, match="essential part"):
        invariants([M(1), Iop(1), replace(D(1), eta0=x(1))], rng=np.random.default_rng(0))


def test_invariants_samples_each_draw_once(monkeypatch):
    # one run of the tape of every non-constant coefficient and derivative;
    # the M/I probes are constant rows and r0 reads the generators' rows
    # instead of sampling them again
    import schsym.fields as fields_module

    runs = []
    real = fields_module.eval_batch

    def counted(e, binding, env, count=1, **kw):
        runs.append((e.root if type(e) is _Tape else e, len(env[T_VAR])))
        return real(e, binding, env, count, **kw)

    monkeypatch.setattr(fields_module, "eval_batch", counted)
    tv = var(T_VAR)
    gens = [M(1), Iop(1), P(1, 0), P(tv, 0), P(0, 1), P(0, tv), D(1)]
    for seed in (0, 1):
        assert invariants(gens, rng=np.random.default_rng(seed)) == InvariantTuple(2, 4, 0, 1, 2)
    assert runs == [(_Tape((tv,)).root, 13)] * 2
    # draws that share one dict compile the tape once
    runs.clear()
    tapes = {}
    for seed in (0, 1):
        sample_rows(gens, rng=np.random.default_rng(seed), tapes=tapes)
    assert list(tapes) == [(tv,)]
    assert runs == [(tapes[tv,].root, 13)] * 2 and type(runs[0][0]) is tuple
    # with every coefficient constant there is nothing to run
    runs.clear()
    gens = [M(1), Iop(1), P(1, 0), P(0, 1), D(1)]
    assert invariants(gens, rng=np.random.default_rng(0)) == InvariantTuple(2, 2, 0, 1, 2)
    assert runs == []


class _Masked(FunctionImpl):
    """f(t) = t, its derivatives of the orders in ``masked`` unsafe at t > 1."""

    def __init__(self, masked):
        self.masked = masked

    def deriv(self, didx, args):
        z, k = np.asarray(args[0], dtype=complex), didx[0]
        vals = z if k == 0 else np.ones_like(z) if k == 1 else np.zeros_like(z)
        return vals, (z.real > 1.0) if k in self.masked else None


def test_unsafe_samples_raise_root_by_root():
    # the union run is unsafe, so the roots are sampled one by one: every
    # generator's coefficients first, then the derivatives; 5 of the 13
    # times drawn from seed 5 exceed 1
    ws = Workspace()
    f = func_app(ws.declare("f", 1, "real", _Masked({1})), [t()])  # f' unsafe
    g = func_app(ws.declare("g", 1, "real", _Masked({0})), [t()])  # g unsafe
    msg = r"^generator 2: chi1 is singular or undefined at 5 of 13 sampled times$"
    with pytest.raises(UnsafeSampleError, match=msg):
        invariants([M(1), Iop(1), P(f, 0)], ws.binding, np.random.default_rng(5))
    with pytest.raises(UnsafeSampleError, match=r"^generator 3: chi2 is singular"):
        invariants([M(1), Iop(1), P(0, f), P(0, g)], ws.binding, np.random.default_rng(5))
    # an unsafe derivative is found before any span test
    with pytest.raises(UnsafeSampleError, match=r"^generator 0: chi1 is singular"):
        invariants([P(f, 0)], ws.binding, np.random.default_rng(5))


def test_invariants_requires_kernel():
    with pytest.raises(SpanError):
        invariants([M(1), D(1)], rng=RNG)


def test_invariants_requires_closure():
    tv = var(T_VAR)
    # [D(1) + J, D(t)] = D(1), which is outside the span
    gens = [M(1), Iop(1), D(1).add(J(1, 2)), D(tv)]
    with pytest.raises(SpanError, match="generators 2 and 3"):
        invariants(gens, rng=RNG)
    # [P(1, 0), D(t^2)] = P(t, 0) is the first bracket outside the span
    gens = [M(1), Iop(1), P(1, 0), P(0, 1), D(tv), D(int_pow(tv, 2))]
    with pytest.raises(SpanError, match="generators 2 and 5"):
        invariants(gens, rng=RNG)


def test_constraint_catalogue():
    assert InvariantTuple(2, 0, 1, 0, 1).constraint_violations()
    assert InvariantTuple(2, 0, 1, 2, 0).constraint_violations()
    assert InvariantTuple(2, 5, 0, 0, 2).constraint_violations()
    assert not InvariantTuple(2, 4, 1, 3, 2).constraint_violations()


def test_kernel_check():
    assert kernel_check(np.random.default_rng(1))


def test_lemma_fixtures():
    rep = lemma_fixtures(np.random.default_rng(2))
    assert rep["shift_pair"]["passed"]
    assert rep["polar_reduction"]["passed"]
    assert rep["passed"]


def _antideriv_class(scale=1, value=None):
    """An AntiderivImpl whose integrand is scaled, or whose value is forced."""
    class Impl(conditions.AntiderivImpl):
        def __init__(self, integrand, binding, *c):  # c: the constant the lemma draws
            super().__init__(const(scale) * integrand, binding, *c)

        def deriv(self, didx, args):
            if didx[0] == 0 and value is not None:
                return np.full(np.shape(args[0]), complex(value)), None
            return super().deriv(didx, args)
    return Impl


def test_lemma_polar_reduction_fails_with_a_wrong_integrand(monkeypatch):
    # the negative control: lambda' scaled by 11/10 leaves a sigma part
    monkeypatch.setattr(conditions, "AntiderivImpl", _antideriv_class(scale=Fraction(11, 10)))
    for seed in range(8):
        rep = lemma_fixtures(np.random.default_rng(seed))
        assert not rep["polar_reduction"]["sigma_killed"], seed


@pytest.mark.parametrize("value", [-1000, 0, 1000])
def test_lemma_polar_reduction_holds_for_every_antiderivative(monkeypatch, value):
    # lambda enters the checks only through its t-derivatives at t, so its
    # value, the free constant of an antiderivative, is any number
    monkeypatch.setattr(conditions, "AntiderivImpl", _antideriv_class(value=value))
    assert lemma_fixtures(np.random.default_rng(5))["polar_reduction"]["passed"]


def test_prolonged_residual_map_takes_a_conj_as_its_argument_image(monkeypatch, table):
    # prolonged_residual's map sends psi_t and conj(psi_t) to conjugate values,
    # so substituting the conjugate map into a Conj's argument gives what
    # substituting the map itself does
    maps = []
    real_subst = conditions.subst
    monkeypatch.setattr(conditions, "subst", lambda e, m: maps.append(m) or real_subst(e, m))
    prolonged_residual(inverse_square(table), expand(D(var(T_VAR))))
    repl, = maps
    W = table.get("W")
    psi_t, psi0 = var(jet_var((1, 0, 0))), psi(2)
    e = (conj_expr(func_app(W, [psi_t, psi0 * conj_expr(psi_t), x(1)])) * psi0
         + func_app(W, [conj_expr(func_app(W, [psi_t, t(), x(1)])), psi0, t()]))
    done = {var(v): val for v, val in repl.items()}
    mask = 0
    for u in done:
        mask |= u.vmask
    plain = expr_module._rebuild(e, done, lambda u: u.vmask & mask)
    assert plain is not e and subst(e, repl) is plain


# -- the span test against the least-squares test it replaced -------------------

def _ref_row_in_span(rows, b, tol):
    """The span test as one least-squares solve per candidate row."""
    if rows.shape[0] == 0:
        return float(np.linalg.norm(b)) <= tol
    sol, *_ = np.linalg.lstsq(rows.T, b, rcond=None)
    resid = rows.T @ sol - b
    return float(np.linalg.norm(resid)) <= tol * (1.0 + float(np.linalg.norm(b)))


def _span_candidates(rng, rows, tol):
    """Rows inside the span, far outside it, and at 0.5x and 2x the threshold."""
    k, width = rows.shape
    null = np.linalg.svd(rows)[2][np.linalg.matrix_rank(rows):]  # orthogonal to the span
    cands = [c @ rows for c in rng.standard_normal((3, k))]
    cands += list(rng.standard_normal((2, width)))
    for scale in (0.0, 1.0, 30.0):
        inside = scale * (rng.standard_normal(k) @ rows)
        if null.shape[0] == 0:
            continue
        away = rng.standard_normal(null.shape[0]) @ null
        away /= np.linalg.norm(away)
        for c in (0.5, 2.0):
            d = 0.0
            for _ in range(4):  # d = c * tol * (1 + |inside + d * away|)
                d = c * tol * (1.0 + np.hypot(np.linalg.norm(inside), d))
            cands.append(inside + d * away)
    return np.array(cands)


@pytest.mark.parametrize("tol", [1e-7, 1e-4])
def test_span_test_matches_least_squares_reference(tol):
    rng = np.random.default_rng(61)
    shapes = {"full rank": rng.standard_normal((6, 40)),
              "rank deficient": rng.standard_normal((6, 3)) @ rng.standard_normal((3, 40)),
              "wide span": rng.standard_normal((8, 5)),
              "all zero": np.zeros((4, 40))}
    for name, rows in shapes.items():
        # the matrix stacked with a rank-one matrix of its shape, each draw
        # tested on the candidates made for both
        stack = np.stack([rows, np.outer(rng.standard_normal(len(rows)), rows[0])])
        dims, bases = _row_space(stack, 1e-8)
        assert dims.tolist() == [_rank(mat, 1e-8) for mat in stack], name
        own = [_span_candidates(rng, mat, tol) for mat in stack]
        cands = np.vstack(own)
        for mat, flags in zip(stack, _inside(bases, cands, tol)):
            want = [_ref_row_in_span(mat, b, tol) for b in cands]
            assert flags.tolist() == want, name
            first = want.index(False) if False in want else None
            assert (None if flags.all() else int(np.argmin(flags))) == first, name
        want = [_ref_row_in_span(rows, b, tol) for b in own[0]]
        if name != "wide span":
            assert want.count(True) >= 3 and want.count(False) >= 3, name


def test_stacked_span_analysis_equals_each_list_alone():
    tv = var(T_VAR)
    lists = {"closed": [M(1), Iop(1), P(1, 0), P(0, 1)],
             "not closed": [M(1), Iop(1), D(1).add(J(1, 2)), D(tv)],
             "I missing": [M(1), P(1, 0), P(0, 1), D(1)]}
    alone = []
    for gs in lists.values():
        try:
            alone.append(invariants(gs, rng=np.random.default_rng(7)))
        except SpanError as err:
            alone.append(str(err))
    stacked = span_invariants([sample_rows(gs, rng=np.random.default_rng(7))
                               for gs in lists.values()])
    got = [str(e) if isinstance(e, SpanError) else e for e in stacked]
    assert got == alone
    assert alone == [InvariantTuple(2, 2, 0, 0, 2),
                     "span is not closed under the bracket (generators 2 and 3)",
                     "I is missing from the span"]
    assert span_invariants([]) == []


def _ref_first_unclosed(gs, seed):
    """The first pair (i, j), in row-major order, whose bracket row is outside the span."""
    tvals = np.random.default_rng(seed).uniform(0.32, 1.68, size=13)
    rows, drows, slices = coefficient_rows(gs, EMPTY_BINDING, tvals)
    brows = bracket_rows(rows, drows, slices)
    pairs = [(i, j) for i in range(len(gs)) for j in range(i + 1, len(gs))]
    for pair, row in zip(pairs, brows, strict=True):
        if not _ref_row_in_span(rows, row, 1e-7):
            return pair
    return None


def test_first_unclosed_pair_matches_reference():
    tv = var(T_VAR)
    t2 = int_pow(tv, 2)
    # [P(0,1), P(0,t^2)] and [P(t,0), P(t^2,0)] leave the span, so the first
    # pair in row-major order, (0, 3), differs from the first by column, (1, 2)
    lists = [[P(0, 1), P(tv, 0), P(t2, 0), P(0, t2), M(1), Iop(1)],
             [M(1), Iop(1), D(1).add(J(1, 2)), D(tv)],
             [M(1), Iop(1), P(1, 0), P(0, 1), D(tv), D(t2)]]
    want = [(0, 3), (2, 3), (2, 5)]
    for seed, (gs, pair) in enumerate(zip(lists, want)):
        assert _ref_first_unclosed(gs, seed) == pair
        with pytest.raises(SpanError, match=rf"\(generators {pair[0]} and {pair[1]}\)$"):
            invariants(gs, rng=np.random.default_rng(seed))
