"""Randomized evaluation: exactness, the zero test, unsafe-sample handling."""
import math
from fractions import Fraction

import numpy as np
import pytest

from schsym.expr import (COS, SymbolTable, T_VAR, ZERO, const, diff, func_app, int_pow, sign_of,
                         t, var, x, x_var)
from schsym.funcbank import ExpPoly, ExpPolyImpl, FunctionImpl
from schsym.numeric import (AntiderivImpl, Binding, EMPTY_BINDING, ExprImpl, InverseImpl,
                            UnboundSymbolError, UnsafeSampleError, Workspace, draw_env,
                            eval_batch, eval_resampling, is_zero, max_normalized_residual)
from schsym.parsing import parse, var_name


def at_point(e, binding, t0, xs=()):
    """(value, unsafe) of e at the one point t = t0, x = xs."""
    env = {T_VAR: np.array([t0], dtype=complex)}
    env.update({x_var(a): np.array([v], dtype=complex) for a, v in enumerate(xs, 1)})
    vals, _, unsafe = eval_batch(e, binding, env)
    return complex(vals[0]), bool(unsafe[0])


def test_unbound_symbol_error_reads_as_its_message():
    f = SymbolTable().declare("f", 1, "real")
    with pytest.raises(UnboundSymbolError) as info:
        Binding().lookup(f)
    assert str(info.value) == "no implementation bound for symbol 'f'"


def test_eval_omega_at_origin_time():
    w1 = parse("x1*cos(t) + x2*sin(t)")
    assert at_point(w1, EMPTY_BINDING, 0.0, (3.0, 5.0)) == (pytest.approx(3.0), False)


def test_eval_bound_derivative():
    tbl = SymbolTable()
    f = tbl.declare("f", 1, "real")
    binding = Binding({f: ExpPolyImpl(ExpPoly.cos(2.0))})
    df = diff(func_app(f, [t()]), T_VAR)
    assert at_point(df, binding, 0.0) == (pytest.approx(0.0), False)
    assert at_point(df, binding, 0.25) == (pytest.approx(-2 * np.sin(0.5)), False)


def test_is_zero_trig_identity():
    assert is_zero(parse("cos(t)^2 + sin(t)^2 - 1"), rng=np.random.default_rng(0))


def test_is_zero_rejects_nonzero():
    assert not is_zero(parse("t*x1"), rng=np.random.default_rng(0))


def test_is_zero_no_t_dependence_is_structural():
    tbl = SymbolTable()
    U = tbl.declare("U", 2, "complex")
    V = func_app(U, [x(1), x(2)])
    assert x(1) * diff(V, T_VAR) is ZERO


def test_normalization_is_scale_free():
    # a large multiple of an identity is still recognized as zero
    big = parse("10000000*(cos(t)^2 + sin(t)^2 - 1)")
    assert is_zero(big, rng=np.random.default_rng(1))


def test_unsafe_samples_are_redrawn():
    # 1/x1 is singular on a measure-zero set only; sampling succeeds
    e = int_pow(x(1), -1) * x(1) - 1
    assert is_zero(e, rng=np.random.default_rng(2))


def test_unsafe_exhaustion_raises():
    # sgn of an expression that is identically zero can never be sampled safely
    e = __import__("schsym.expr", fromlist=["sign_of"]).sign_of(x(1) - x(1) + t() - t() + x(2) * 0 + parse("cos(t)^2 + sin(t)^2 - 1"))
    with pytest.raises(UnsafeSampleError):
        is_zero(e, trials=1, rng=np.random.default_rng(3))


def test_witness_records_worst_point():
    worst, witness = max_normalized_residual(parse("t*x1"), trials=1, points=50,
                                             rng=np.random.default_rng(4))
    assert worst > 1e-3
    assert "t" in witness["point"] and "x1" in witness["point"]


def test_zero_is_answered_as_sampling_it_would(monkeypatch):
    import schsym.numeric as numeric

    def run(**kw):
        rng = np.random.default_rng(6)
        got = max_normalized_residual(ZERO, rng=rng, **kw)
        return got, rng.bit_generator.state

    settings = [{}, {"trials": 2, "points": 7}, {"trials": 3, "bindings_per_trial": 2}]
    answered = [run(**kw) for kw in settings]
    # with the short-circuit disabled, ZERO is sampled
    monkeypatch.setattr(numeric, "ZERO", None)
    assert answered == [run(**kw) for kw in settings]
    assert answered[0][1] == np.random.default_rng(6).bit_generator.state


@pytest.mark.parametrize("e", [x(1), ZERO])
@pytest.mark.parametrize("kw", [{"trials": 0}, {"points": 0}, {"trials": -1},
                                {"bindings_per_trial": 0}])
def test_zero_test_that_samples_nothing_raises(e, kw):
    # no draw or no point would pass anything, x1 and ZERO alike
    with pytest.raises(ValueError, match="at least one draw and one point"):
        max_normalized_residual(e, rng=np.random.default_rng(0), **kw)
    if "bindings_per_trial" not in kw:
        with pytest.raises(ValueError, match="at least one draw and one point"):
            is_zero(e, rng=np.random.default_rng(0), **kw)


def test_draws_do_not_depend_on_how_trials_and_bindings_split():
    # each draw takes fresh surrogates and then fresh points, so only the
    # product trials * bindings_per_trial can change the result
    tbl = SymbolTable()
    tbl.declare("f", 1, "real")
    e = parse("f(t)*x1 + x2^2", tbl)
    got = [max_normalized_residual(e, trials=a, bindings_per_trial=b, points=9,
                                   rng=np.random.default_rng(4))
           for a, b in ((6, 1), (3, 2), (2, 3), (1, 6))]
    assert got[0][0] > 0 and all(g == got[0] for g in got)


# -- the tuple form: one draw and one point set for several roots ------------

def _recorded_draws(monkeypatch):
    """(variable names, count) of each draw_env call."""
    import schsym.numeric as numeric

    calls = []
    real = numeric.draw_env

    def recorded(vars_needed, count, rng):
        calls.append((sorted(var_name(v) for v in vars_needed), count))
        return real(vars_needed, count, rng)

    monkeypatch.setattr(numeric, "draw_env", recorded)
    return calls


@pytest.mark.parametrize("at", [0, 1, 2])
def test_tuple_rejects_when_any_root_fails_and_its_witness_names_it(at):
    good = [parse("cos(t)^2 + sin(t)^2 - 1"), parse("x2*(x1 + 1) - x1*x2 - x2")]
    bad = parse("t*x1")
    roots = tuple(good[:at] + [bad] + good[at:])
    got = max_normalized_residual(roots, trials=2, points=30, rng=np.random.default_rng(8))
    assert [worst >= 1e-8 for worst, _ in got] == [r is bad for r in roots]
    # each witness is over its own root's variables
    assert [sorted(w["point"]) for _, w in got] == [
        sorted(var_name(v) for v in r.free_vars) for r in roots]
    assert got[at][1]["normalized"] == got[at][0] > 1e-3
    assert not is_zero(roots, trials=2, points=30, rng=np.random.default_rng(8))
    assert is_zero(tuple(good), trials=2, points=30, rng=np.random.default_rng(8))


def test_root_unsafe_at_a_point_redraws_it_for_every_root(monkeypatch):
    calls = _recorded_draws(monkeypatch)
    ws = Workspace()

    class Masked(FunctionImpl):  # f(t) = t, unsafe at t > 1
        def deriv(self, didx, args):
            z = np.asarray(args[0], dtype=complex)
            return z, z.real > 1.0

    f = ws.declare("f", 1, "real", Masked())
    roots = (func_app(f, [t()]) * x(1) - x(1) * t(), parse("cos(x2)^2 + sin(x2)^2 - 1"))
    got = max_normalized_residual(roots, binding=ws.binding, trials=1, points=40,
                                  rng=np.random.default_rng(9))
    assert all(worst < 1e-12 for worst, _ in got) and got[0][1]["point"]["t"].real <= 1.0
    # one draw over the union of the variables, then redraws of the points
    # where the first root is unsafe, for every variable of both roots
    names = ["t", "x1", "x2"]
    assert calls[0] == (names, 40) and len(calls) > 1
    assert all(c[0] == names and 0 < c[1] < 40 for c in calls[1:])
    # a root that stays unsafe exhausts the budget of the tuple
    always = ws.declare("g", 1, "real", type("Always", (FunctionImpl,), {
        "deriv": lambda self, didx, args: (args[0], np.ones(len(args[0]), dtype=bool))})())
    with pytest.raises(UnsafeSampleError, match="of 40 sample points remained unsafe"):
        max_normalized_residual((x(2), func_app(always, [t()])), binding=ws.binding, trials=1,
                                points=40, rng=np.random.default_rng(9))


def test_tuple_of_zeros_draws_nothing_and_a_1_tuple_draws_as_its_root(monkeypatch):
    calls = _recorded_draws(monkeypatch)
    rng = np.random.default_rng(10)
    zero = max_normalized_residual(ZERO, rng=rng)
    assert max_normalized_residual((ZERO, ZERO), rng=rng) == (zero, zero)
    assert calls == [] and rng.bit_generator.state == np.random.default_rng(10).bit_generator.state
    tbl = SymbolTable()
    tbl.declare("f", 1, "real")
    e = parse("f(t)*x1 + x2^2", tbl)

    def run(arg):
        rng = np.random.default_rng(11)
        got = max_normalized_residual(arg, trials=3, points=9, rng=rng)
        return got, rng.bit_generator.state

    (one,), state = run((e,))
    assert (one, state) == run(e)
    # ZERO and a repeated root cost no draw of their own
    calls.clear()
    got, state_mixed = run((e, ZERO, e))
    assert got == (one, zero, one) and state_mixed == state and len(calls) == 3
    assert is_zero((ZERO,)) and is_zero(()) and not is_zero((ZERO, e))


# -- stacked trials: one run of the tape over every trial's points ----------

def _ref_resampling(live, blocks, points, rng, tapes):
    """eval_resampling as a loop over draw_env and eval_batch: each block
    (binding, env) run alone, and while a point is unsafe, each block's
    unsafe points redrawn in block order, for up to RETRY_BUDGET rounds.
    Returns each block's (values, scale, env)."""
    import schsym.numeric as numeric

    tape = numeric.owned_tape(tapes, live)
    envs = [dict(env) for _, env in blocks]
    for budget in range(numeric.RETRY_BUDGET, -1, -1):
        runs = [eval_batch(tape, binding, env, points) for (binding, _), env in zip(blocks, envs)]
        unsafe = [bad for _, _, bad in runs if bad.any()]
        if not unsafe:
            return [(vals, scale, env) for (vals, scale, _), env in zip(runs, envs)]
        if budget == 0:
            raise UnsafeSampleError(f"{int(unsafe[0].sum())} of {points} sample points "
                                    f"remained unsafe after {numeric.RETRY_BUDGET} redraws")
        for (_, _, bad), env in zip(runs, envs):
            if bad.any():
                fresh = numeric.draw_env(numeric._free_vars(live), int(bad.sum()), rng)
                for v in env:
                    env[v] = env[v].copy()
                    env[v][bad] = fresh[v]


def _ref_max_normalized_residual(e, *, binding=None, trials, bindings_per_trial=1, points,
                                 rng, tapes=None, stack=None):
    """max_normalized_residual as a loop over draw_env and eval_batch: the
    draws in stacks of ``stack`` (as many as one stacked run holds when
    None), a stack's draws drawn in turn, then redrawn block by block
    (``_ref_resampling``).  With ``stack=1`` this is the per-trial loop,
    which draws, redraws and tests each draw in turn."""
    import schsym.numeric as numeric

    roots = e if type(e) is tuple else (e,)
    live = numeric._live(roots)
    binding = binding or EMPTY_BINDING
    tapes = {} if tapes is None else tapes
    draws = trials * bindings_per_trial
    stack = stack or max(1, numeric._stack_room(live, points, tapes))
    worst = [0.0] * len(live)
    witness = [None] * len(live)
    for first in range(0, draws if live else 0, stack):
        blocks = []
        for _ in range(min(stack, draws - first)):
            full = numeric._fill_surrogates(live, binding, rng)
            blocks.append((full, numeric.draw_env(numeric._free_vars(live), points, rng)))
        for run in _ref_resampling(live, blocks, points, rng, tapes):
            numeric._keep_worst(live, run, range(1), points, worst, witness)
    got = numeric._answers(roots, live, worst, witness)
    return got if type(e) is tuple else got[0]


def _both_tests(e, seed, **kw):
    """max_normalized_residual, its reference and the per-trial loop from
    equal streams: each one's pairs as text, or its exception's type and
    message, and its final rng state."""
    out = []
    for test, extra in ((max_normalized_residual, {}), (_ref_max_normalized_residual, {}),
                        (_ref_max_normalized_residual, {"stack": 1})):
        rng = np.random.default_rng(seed)
        try:
            got = repr(test(e, rng=rng, **kw, **extra))
        except UnsafeSampleError as exc:  # compared with the reference's
            got = f"UnsafeSampleError: {exc}"
        out.append((got, rng.bit_generator.state))
    return out


def _stacked_runs(monkeypatch):
    """The number of blocks of each eval_resampling call."""
    import schsym.numeric as numeric

    runs = []
    real = numeric.eval_resampling

    def counted(roots, blocks, *args):
        runs.append(len(blocks))
        return real(roots, blocks, *args)

    monkeypatch.setattr(numeric, "eval_resampling", counted)
    return runs


def test_stacked_trials_of_a_composed_map_give_the_reference_pairs(monkeypatch):
    # two inverse time maps, one nested in the other, and a surrogate W
    # drawn afresh for each trial
    from schsym.conditions import Potential
    from schsym.equivalence import (AdmissibleTransformation, act_on_potential, compose,
                                    potentials_agree)
    from test_equivalence import random_transform

    rng = np.random.default_rng(5)
    ws = Workspace()
    W = ws.table.declare("W", 3, "complex")
    V = Potential(func_app(W, [t(), x(1), x(2)]), 2)
    t1 = AdmissibleTransformation.create(V, random_transform(rng, ws))
    t2 = AdmissibleTransformation.create(t1.target, random_transform(rng, ws))
    direct = act_on_potential(V, compose(t1, t2, validate=False).map)
    d = direct.expr - t2.target.expr
    binding = direct.binding.merged(t2.target.binding)
    runs = _stacked_runs(monkeypatch)
    for seed in range(3):
        new, ref, loop = _both_tests(d, seed, binding=binding, trials=2, points=60)
        assert new == ref == loop, seed
    assert runs == [2] * 3
    assert potentials_agree(direct, t2.target, rng=np.random.default_rng(0), tol=1e-7)


def test_stacked_bindings_per_trial_give_the_reference_pairs(monkeypatch):
    # every draw binds its own surrogates of f, U and c
    tbl = SymbolTable()
    tbl.declare("f", 1, "real")
    tbl.declare("U", 2, "complex")
    tbl.declare("c", 0, "complex")
    roots = (parse("f(t)*x1 + U(t, x2) + c", tbl), ZERO, parse("U(x1, x2)*conj(c) - x2", tbl))
    runs = _stacked_runs(monkeypatch)
    for seed in range(3):
        new, ref, loop = _both_tests(roots, seed, trials=2, bindings_per_trial=3, points=9)
        assert new == ref == loop, seed
    assert runs == [6] * 3


@pytest.mark.parametrize("eps", [0.05, 3.0])
def test_unsafe_stacked_trials_fall_back_as_the_reference(monkeypatch, eps):
    # a wide unsafe cut: at 0.05 some points of 1/x1 and sgn(x2 - t) are
    # unsafe, and the stack falls back on redrawing them after all three
    # trials are drawn, as the reference does;
    # at 3.0 every point is, and the stack raises as the reference does
    import schsym.numeric as numeric

    monkeypatch.setattr(numeric, "EPS_UNSAFE", eps)
    e = int_pow(x(1), -1) * t() + sign_of(x(2) - t()) * x(1)
    runs = _stacked_runs(monkeypatch)
    draws = _recorded_draws(monkeypatch)
    for seed in range(3):
        new, ref, _ = _both_tests(e, seed, trials=3, points=40)
        assert new == ref, seed
        assert new[0].startswith("UnsafeSampleError") == (eps == 3.0)
    assert runs == [3] * 3
    assert eps == 3.0 or any(count < 40 for _, count in draws)  # redraws of unsafe points


def test_log_stack_redraws_block_by_block_after_every_trial(monkeypatch):
    # the classifying residual log[1](x1) + t^2 of log(x1) + t*x2 under chi
    # = (1, t), as `schsym residual` tests it: log is unsafe at x1 <= 0,
    # about half of every trial's points, so the three trials are drawn,
    # then each round redraws the unsafe points of each trial in turn, and
    # the pairs are no longer the per-trial loop's
    from schsym.conditions import Potential, classifying_residual
    from schsym.fields import GeneratorCoeffs

    g = GeneratorCoeffs(2, ZERO, (const(0),), (const(1), t()), ZERO, ZERO)
    e = classifying_residual(Potential(parse("log(x1) + t*x2"), 2), g)
    assert str(e) == "log[1](x1) + t^2"
    calls = _recorded_draws(monkeypatch)
    new, ref, loop = _both_tests(e, 2, trials=3, points=100)
    assert new == ref and new[0] != loop[0] and new[1] != loop[1]
    calls.clear()
    max_normalized_residual(e, trials=3, points=100, rng=np.random.default_rng(2))
    names = ["t", "x1"]
    assert calls[:3] == [(names, 100)] * 3
    # the first round redraws every trial, each fewer than its 100 points
    assert all(0 < count < 100 for _, count in calls[3:6]) and len(calls) > 6


def test_a_stack_that_stays_unsafe_names_its_first_unsafe_block(monkeypatch):
    # block 0 is safe, block 1 is unsafe everywhere and block 2 where t > 1:
    # every round redraws block 1's 40 points and then block 2's, and the
    # error counts block 1's points, not the stack's
    import schsym.numeric as numeric

    class Masked(FunctionImpl):  # f(t) = t, unsafe where cut(t)
        def __init__(self, cut):
            self.cut = cut

        def deriv(self, didx, args):
            z = np.asarray(args[0], dtype=complex)
            return z, self.cut(z.real)

    f = SymbolTable().declare("f", 1, "real")
    roots = (func_app(f, [t()]) * x(1),)
    calls = _recorded_draws(monkeypatch)
    got = []
    for resample in (numeric.eval_resampling, _ref_resampling):
        calls.clear()
        rng = np.random.default_rng(13)
        blocks = [(Binding({f: Masked(cut)}), numeric.draw_env(roots[0].free_vars, 40, rng))
                  for cut in (lambda s: s > 9, lambda s: s > 0, lambda s: s > 1)]
        with pytest.raises(UnsafeSampleError) as info:
            resample(roots, blocks, 40, rng, {})
        got.append((str(info.value), rng.bit_generator.state, calls[:]))
    assert got[0] == got[1]
    assert got[0][0] == f"40 of 40 sample points remained unsafe after {numeric.RETRY_BUDGET} redraws"
    redraws = [count for _, count in got[0][2][3:]]
    assert redraws[0] == 40 and 0 < redraws[1] < 40 and redraws.count(40) == numeric.RETRY_BUDGET


def test_a_dag_over_the_stack_cap_runs_as_several_stacks(monkeypatch):
    import schsym.numeric as numeric

    deep = parse("sin(x1 + " * 300 + "t" + ")" * 300) * x(2)
    tape = numeric._Tape(deep)
    assert tape.rows * 100 * 5 > numeric.STACK_ELEMS >= tape.rows * 100
    room = numeric.STACK_ELEMS // (tape.rows * 100)
    runs = _stacked_runs(monkeypatch)
    new, ref, loop = _both_tests(deep, 7, trials=5, points=100)
    assert new == ref == loop
    assert runs == [room] * (5 // room) + [5 % room] * (5 % room > 0)
    # one draw is a stack of one
    runs.clear()
    new, ref, loop = _both_tests(x(1) * t(), 7, trials=1, points=100)
    assert new == ref == loop and runs == [1]


def test_a_dag_over_the_stack_cap_runs_trial_by_trial(monkeypatch):
    # one trial's buffer alone is over the cap: each trial is a stack of one
    import schsym.numeric as numeric

    deep = parse("sin(x1 + " * 300 + "t" + ")" * 300) * x(2)
    assert numeric._Tape(deep).rows * 300 > numeric.STACK_ELEMS
    runs = _stacked_runs(monkeypatch)
    new, ref, loop = _both_tests(deep, 7, trials=3, points=300)
    assert new == ref == loop and runs == [1] * 3


def test_roots_without_variables_are_resampled_at_every_point():
    # no variable means an empty env, so only the count gives the points
    rng = np.random.default_rng(12)
    roots = (const(3), const(Fraction(1, 2)) * func_app(COS, [const(2)]))
    vals, scale, env = eval_resampling(roots, [(EMPTY_BINDING, {})], 5, rng, {})
    assert vals.shape == scale.shape == (2, 5) and env == {}
    assert vals[0].tolist() == [3] * 5 and len(set(vals[1].tolist())) == 1
    (vals,), _, _ = eval_resampling(roots[:1], [(EMPTY_BINDING, {})] * 2, 5, rng, {})
    assert vals.tolist() == [3] * 10


def test_verify_table_verdicts_match_at_seeds_0_to_9():
    # every case passes every check at these seeds, as it did when each
    # generator's residual drew its own points
    from schsym.cases import verify_table

    for seed in range(10):
        rep = verify_table(seed=seed)
        for case in rep["cases"]:
            checks = [case[key]["passed"]
                      for key in ("residuals", "closure", "invariants", "constraints")]
            assert case["passed"] and all(checks), (seed, case["case"])
        assert rep["passed"] and len(rep["cases"]) == 20


def test_conjugated_jets_sample_consistently():
    p = parse("psi*conj(psi)")
    env = draw_env(p.free_vars, 32, np.random.default_rng(5))
    vals, _, _ = eval_batch(p, EMPTY_BINDING, env)
    assert np.all(np.abs(np.imag(vals)) < 1e-14)
    assert np.all(np.real(vals) >= 0)


def test_inverse_impl_roundtrip_and_derivatives():
    tbl = SymbolTable()
    T = parse("t + 3/10*sin(t)", tbl)
    impl = InverseImpl(T, EMPTY_BINDING)
    tinv_sym = tbl.declare("Ti", 1, "real")
    binding = Binding({tinv_sym: impl})
    app = func_app(tinv_sym, [t()])
    y0 = 1.3
    s0, unsafe = at_point(app, binding, y0)
    assert abs(s0.real + 0.3 * np.sin(s0.real) - y0) < 1e-12 and not unsafe
    d1, unsafe = at_point(diff(app, T_VAR), binding, y0)
    assert d1.real == pytest.approx(1.0 / (1.0 + 0.3 * np.cos(s0.real)), rel=1e-10)
    assert not unsafe


def test_antideriv_impl_matches_closed_form():
    impl = AntiderivImpl(parse("cos(t)"), EMPTY_BINDING, 0.75)
    z = np.array([0.4, 1.0, 1.6, 2.5], dtype=complex)
    # order 0 is the free constant at every point, with no mask
    got, unsafe = impl.deriv((0,), (z,))
    assert got.dtype == complex and got.tolist() == [0.75] * 4 and unsafe is None
    got, _ = impl.deriv((0,), (z.reshape(2, 2),))
    assert got.shape == (2, 2)
    # orders 1 and 2 are orders 0 and 1 of the integrand's ExprImpl, bit for bit
    integrand = ExprImpl(parse("cos(t)"), EMPTY_BINDING)
    for k, closed_form in ((1, np.cos), (2, lambda s: -np.sin(s))):
        got_k, unsafe_k = impl.deriv((k,), (z,))
        want_k, want_unsafe = integrand.deriv((k - 1,), (z,))
        assert got_k.view(np.uint64).tolist() == want_k.view(np.uint64).tolist()
        assert unsafe_k.tolist() == want_unsafe.tolist()
        assert np.allclose(got_k, closed_form(np.real(z)))


def test_antideriv_impl_reports_integrand_unsafe_points():
    tbl = SymbolTable()
    L = tbl.declare("L", 1, "real")
    binding = Binding({L: AntiderivImpl(parse("log(t)"), EMPTY_BINDING, -0.5)})
    dL = diff(func_app(L, [t()]), T_VAR)
    vals, _, unsafe = eval_batch(dL, binding, {T_VAR: np.array([-1.0, 2.0], dtype=complex)})
    assert unsafe.tolist() == [True, False]
    assert vals[1] == pytest.approx(np.log(2.0))


def test_expr_impl_reports_unsafe_points():
    impl = ExprImpl(parse("log(t)"), EMPTY_BINDING)
    z = np.array([-1.0, 2.0], dtype=complex)
    _, unsafe = impl.deriv((0,), (z,))
    assert unsafe.tolist() == [True, False]
    vals1, unsafe1 = impl.deriv((1,), (z,))
    assert unsafe1.tolist() == [True, False]
    assert vals1[1] == pytest.approx(0.5)


def _counting_eval_batch(monkeypatch):
    """Record the root or tape of each eval_batch call."""
    import schsym.numeric as numeric

    calls = []
    orig = numeric.eval_batch

    def counted(e, *args, **kwargs):
        calls.append(e)
        return orig(e, *args, **kwargs)

    monkeypatch.setattr(numeric, "eval_batch", counted)
    return calls


def test_inverse_impl_stiff_map_converges():
    T = parse("t^3 + t/1000")
    impl = InverseImpl(T, EMPTY_BINDING)
    y = np.concatenate([np.linspace(-2.0, 2.0, 41), [1e-9, -3e-7, 1e-4]])
    s, unsafe = impl.deriv((0,), (y,))
    s = np.real(s)
    assert np.max(np.abs(s ** 3 + s / 1000 - y)) <= 1e-12
    assert not unsafe.any()


def test_inverse_impl_higher_orders_match_closed_form():
    impl = InverseImpl(parse("t + 3/10*sin(t)"), EMPTY_BINDING)
    y = np.linspace(-1.0, 2.5, 15)
    s = np.real(impl.deriv((0,), (y,))[0])
    t1, t2, t3 = 1 + 0.3 * np.cos(s), -0.3 * np.sin(s), -0.3 * np.cos(s)
    want = {1: 1 / t1, 2: -t2 / t1 ** 3, 3: (3 * t2 ** 2 - t1 * t3) / t1 ** 5}
    for k, w in want.items():
        assert np.allclose(np.real(impl.deriv((k,), (y,))[0]), w, rtol=1e-10, atol=1e-12)


def test_inverse_impl_out_of_range_is_unsafe(monkeypatch):
    tbl = SymbolTable()
    impl = InverseImpl(parse("atan(t)", tbl), EMPTY_BINDING)
    y = np.array([0.5, 2.0, -3.0, 1.0])
    calls = _counting_eval_batch(monkeypatch)
    _, unsafe = impl.deriv((0,), (y,))
    # unbracketed points stop the bracket search once pinned at both limits
    # and do not hold the Newton loop open to its cap
    assert len(calls) <= 31
    assert unsafe.tolist() == [False, True, True, False]
    monkeypatch.undo()
    sym = tbl.declare("Ti", 1, "real")
    app = func_app(sym, [t()])
    binding = Binding({sym: impl})
    assert at_point(app, binding, 0.5) == (pytest.approx(np.tan(0.5)), False)
    # 2.0 is outside the range of atan: flagged, not solved
    assert at_point(app, binding, 2.0)[1]


def test_inverse_impl_reuses_solve_across_orders(monkeypatch):
    impl = InverseImpl(parse("t + 3/10*sin(t)"), EMPTY_BINDING)
    y = np.random.default_rng(6).uniform(-3.0, 3.0, 100)
    calls = _counting_eval_batch(monkeypatch)
    impl.deriv((0,), (y,))
    assert len(calls) <= 20
    for k in range(1, 4):
        del calls[:]
        impl.deriv((k,), (y,))  # one evaluation of H_k at the solved points
        assert calls == [impl._tapes[impl._derivative(k)]]
    del calls[:]
    assert not impl.deriv((0,), (y,))[1].any()
    assert not calls


def test_inverse_impl_solves_again_after_a_bind():
    # T = t + f(t) reads f through the binding, so rebinding f changes T^-1
    tbl = SymbolTable()
    f = tbl.declare("f", 1, "real")
    binding = Binding({f: ExpPolyImpl(ExpPoly.constant(0.0))})
    impl = InverseImpl(parse("t + f(t)", tbl), binding)
    y = np.array([0.5, 1.0])
    assert impl.deriv((0,), (y,))[0].real.tolist() == [0.5, 1.0]
    binding.bind(f, ExpPolyImpl(ExpPoly.constant(1.0)))
    s, unsafe = impl.deriv((0,), (y,))
    assert s.real.tolist() == [-0.5, 0.0] and not unsafe.any()


def test_inverse_impl_unsafe_mask_follows_its_args():
    impl = InverseImpl(parse("atan(t)"), EMPTY_BINDING)
    y1 = np.array([2.0, 0.5])
    y2 = np.array([0.5, 0.7])
    impl.deriv((0,), (y1,))
    impl.deriv((0,), (y2,))
    assert impl.deriv((0,), (y1,))[1].tolist() == [True, False]
    assert impl.deriv((0,), (y2,))[1].tolist() == [False, False]


def test_inverse_impl_flat_point_is_unsafe():
    # T'(0) = 0 for T = t^3, so no derivative of T^-1 exists at y = 0
    impl = InverseImpl(parse("t^3"), EMPTY_BINDING)
    y = np.array([0.0, 8.0])
    d1, unsafe1 = impl.deriv((1,), (y,))
    d2, unsafe2 = impl.deriv((2,), (y,))
    assert unsafe1.tolist() == unsafe2.tolist() == [True, False]
    assert d1[1] == pytest.approx(1 / 12, rel=1e-12)
    assert d2[1] == pytest.approx(-1 / 144, rel=1e-12)


# reference: the power-series inversion the chain rule replaced


def _invert_series(a: list[np.ndarray], order: int) -> list[np.ndarray]:
    """Coefficients of the compositional inverse of f(h)=a1 h + a2 h^2 + ...

    a[0] is ignored (series around the solved point).  Returns b with
    b[0]=0 and f(g(h))=h up to the given order.
    """
    one = np.ones_like(a[1])
    b = [np.zeros_like(a[1]), one / a[1]]
    for m in range(2, order + 1):
        # coefficient of h^m in sum_j a_j * (g(h))^j must vanish
        acc = np.zeros_like(a[1])
        for j in range(2, m + 1):
            if j < len(a):
                acc = acc + a[j] * _power_coeff(b, j, m)
        b.append(-acc / a[1])
    return b


def _power_coeff(b: list[np.ndarray], j: int, m: int) -> np.ndarray:
    """Coefficient of h^m in (sum_{i>=1} b_i h^i)^j, using known b_1..b_{m-1}."""
    series = {i: b[i] for i in range(1, min(len(b), m + 1))}
    acc: dict[int, np.ndarray] = {0: np.ones_like(b[1])}
    for _ in range(j):
        nxt: dict[int, np.ndarray] = {}
        for d1, c1 in acc.items():
            for d2, c2 in series.items():
                d = d1 + d2
                if d > m:
                    continue
                nxt[d] = nxt.get(d, 0) + c1 * c2
        acc = nxt
    return acc.get(m, np.zeros_like(b[1]))


@pytest.mark.parametrize("T", ["t + 3/10*sin(t)", "t^3 + t/1000",
                               "2*t + sin(t)/4 + cos(3*t)/20", "-t - sin(t)/4"])
def test_inverse_impl_chain_rule_matches_series_inversion(T):
    order = InverseImpl.MAX_ORDER
    impl = InverseImpl(parse(T), EMPTY_BINDING)
    y = np.linspace(-2.0, 2.0, 41)
    s, unsafe = impl.deriv((0,), (y,))
    assert not unsafe.any()
    # Taylor coefficients a_j = T^(j)(s)/j! of T at the preimages
    a, d = [None], parse(T)
    for j in range(1, order + 1):
        d = diff(d, T_VAR)
        a.append(np.real(eval_batch(d, EMPTY_BINDING, {T_VAR: s})[0]) / math.factorial(j))
    b = _invert_series(a, order)  # b_j: g(y+h) = s + sum b_j h^j
    for k in range(1, order + 1):
        ref = b[k] * math.factorial(k)
        got, unsafe = impl.deriv((k,), (y,))
        assert not unsafe.any()
        assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))), k
