"""Compiled evaluation tape: bitwise agreement with a recursive reference."""
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schsym import numeric
from schsym.cases import verify_case
from schsym.expr import (ATAN, AbsPow, COS, Conj, Const, EXP, Expr, FuncApp, IntPow, LOG, PI,
                         Product, SIN, Sign, Sum, SymbolTable, T_VAR, Var, ZERO, abs_pow,
                         conj_expr, const, diff, func_app, int_pow, jet_var, post_order, psi,
                         psi_var, sign_of, t, x, x_var)
from schsym.funcbank import FunctionImpl, random_surrogate
from schsym.numeric import (_FOLD_ELEMS, EMPTY_BINDING, EPS_UNSAFE, SOLVE_BRACKET, Binding,
                            ExprImpl, InverseImpl, _Tape, draw_env, eval_batch)
from schsym.parsing import parse
from test_expr import _expr_strategy
from test_numeric import _counting_eval_batch


def _reference_eval(e, binding, env, count=1):
    """The recursive evaluator the tape replaced, kept as the oracle."""
    if env:
        count = len(next(iter(env.values())))
    scale = np.zeros(count)
    unsafe = np.zeros(count, dtype=bool)
    memo = {}

    def ev(e):
        nonlocal unsafe
        got = memo.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Const):
            out = np.broadcast_to(np.asarray(e.value()), scale.shape)
        elif isinstance(e, Var):
            v = e.vid
            out = env.get(v) if v.is_jet and v.conj else env[v]
            if out is None:
                out = np.conj(env[jet_var(v.alpha, False)])
        elif isinstance(e, Sum):
            out = ev(e.terms[0]).copy()
            for tm in e.terms[1:]:
                out += ev(tm)
        elif isinstance(e, Product):
            out = ev(e.factors[0]).copy()
            for f in e.factors[1:]:
                out *= ev(f)
        elif isinstance(e, IntPow):
            b = ev(e.base)
            if e.k < 0:
                bad = np.abs(b) < EPS_UNSAFE
                unsafe |= bad
                b = np.where(bad, 1.0, b)
            out = b ** e.k
        elif isinstance(e, AbsPow):
            a = np.abs(np.real(ev(e.base)))
            if e.q < 0:
                bad = a < EPS_UNSAFE
                unsafe |= bad
                a = np.where(bad, 1.0, a)
            out = (a ** float(e.q)).astype(complex)
        elif isinstance(e, Sign):
            b = np.real(ev(e.base))
            bad = np.abs(b) < EPS_UNSAFE
            unsafe |= bad
            out = np.sign(np.where(bad, 1.0, b)).astype(complex)
        elif isinstance(e, Conj):
            out = np.conj(ev(e.arg))
        else:
            assert isinstance(e, FuncApp)
            vals, mask = binding.lookup(e.sym).deriv(e.didx, tuple(ev(a) for a in e.args))
            out = np.broadcast_to(np.asarray(vals, dtype=complex), scale.shape)
            if mask is not None:
                unsafe |= np.broadcast_to(mask, scale.shape)
        mag = np.abs(out)
        finite = np.isfinite(mag)
        unsafe |= ~finite
        np.maximum(scale, np.where(finite, mag, 0.0), out=scale)
        memo[id(e)] = out
        return out

    return np.asarray(ev(e)), scale, unsafe


def _bits(a):
    """The bytes of a float or complex array as uint64s: signed zeros and NaN
    payloads count."""
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_matches_reference(e, binding, env, count=1):
    want = _reference_eval(e, binding, env, count)
    # a root's tape, compiled for the call, and a tape run a second time
    tape = _Tape(e)
    for arg in (e, tape, tape):
        got = eval_batch(arg, binding, env, count)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(_bits(g), _bits(w))
    return got


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tape_matches_recursive_reference_bitwise(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    e = data.draw(_expr_strategy(tbl))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    binding = Binding({s: random_surrogate(rng, s.arity, s.codomain)
                       for s in e.free_symbols if s.name in ("U", "f")})
    env = draw_env(e.free_vars, 12, rng)
    if x_var(1) in env and data.draw(st.booleans()):
        env[x_var(1)][:3] = 0.0  # singular points of 1/x1
    _assert_matches_reference(e, binding, env)


def test_constant_root():
    vals, scale, unsafe = _assert_matches_reference(const(Fraction(-3, 2)), EMPTY_BINDING, {}, 3)
    assert vals.tolist() == [-1.5] * 3 and scale.tolist() == [1.5] * 3
    assert not unsafe.any()


def test_complex_constant_scale_is_the_array_magnitude():
    # the constants' share of the scale took Python's abs of each numpy
    # complex, which rounds 1 ulp away from the np.abs loop behind every
    # other magnitude for about a third of complex constants, 3/2 + i among
    # them; the recursive reference test drew this now and then
    tbl = SymbolTable()
    env = {x_var(1): np.array([-1.5, -1.5 - 1j, 0.25j])}  # |x1 + c| < |c| at each point
    _assert_matches_reference(parse("x1 + (3/2 + i)", tbl), EMPTY_BINDING, env)
    _assert_matches_reference(parse("-3/2 - 1*i", tbl), EMPTY_BINDING, {}, 3)
    rng = np.random.default_rng(0)
    for re, im in rng.integers(-99, 100, (500, 2)):
        c = const(Fraction(int(re), 7), Fraction(int(im), 3))
        _, scale, _ = eval_batch(c, EMPTY_BINDING, {}, 4)
        assert np.array_equal(_bits(scale), _bits(np.abs(np.full(4, c.value())))), c


def test_variable_root():
    env = {x_var(1): np.array([2.0, -0.5j])}
    vals, scale, _ = _assert_matches_reference(x(1), EMPTY_BINDING, env)
    assert vals is env[x_var(1)]
    assert scale.tolist() == [2.0, 0.5]


def test_conjugated_jet_without_env_entry():
    psi0 = np.array([1 + 2j, -0.5j])
    env = {psi_var(2): psi0, T_VAR: np.array([0.5, 1.5], dtype=complex)}
    for e in (psi(2, conj=True), psi(2, conj=True) * t() + psi(2)):
        vals, _, unsafe = _assert_matches_reference(e, EMPTY_BINDING, env)
        assert not unsafe.any()
    assert np.array_equal(vals, np.conj(psi0) * env[T_VAR] + psi0)


def test_reciprocal_at_zero_is_unsafe():
    env = {x_var(1): np.array([0.0, 2.0], dtype=complex)}
    vals, _, unsafe = _assert_matches_reference(int_pow(x(1), -1), EMPTY_BINDING, env)
    assert unsafe.tolist() == [True, False]
    assert vals[1] == 0.5


def test_sign_and_negative_abs_power_at_zero_are_unsafe():
    env = {x_var(1): np.array([0.0, -2.0], dtype=complex)}
    _, _, unsafe = _assert_matches_reference(sign_of(x(1)), EMPTY_BINDING, env)
    assert unsafe.tolist() == [True, False]
    e = abs_pow(x(1), Fraction(-1, 2)) + sign_of(x(1))
    _, _, unsafe = _assert_matches_reference(e, EMPTY_BINDING, env)
    assert unsafe.tolist() == [True, False]


def test_infinite_variable_is_unsafe_at_the_variable():
    # sgn(inf) is finite, so only the variable's own value flags the point
    env = {x_var(1): np.array([np.inf, 3.0], dtype=complex)}
    _, scale, unsafe = _assert_matches_reference(sign_of(x(1)), EMPTY_BINDING, env)
    assert unsafe.tolist() == [True, False]
    assert scale.tolist() == [1.0, 3.0]


def _record_compiles(monkeypatch):
    """Record (owner, root) for each tape compiled.  The owner is the dict
    that keeps the tape, a caller's dict (``owned_tape``), or None for a
    tape compiled for one call."""
    compiled = []
    init = _Tape.__init__

    def counted(self, root):
        compiled.append((sys._getframe(1).f_locals.get("tapes"), root))
        init(self, root)

    monkeypatch.setattr(_Tape, "__init__", counted)
    return compiled


def test_eval_batch_keeps_no_tape(monkeypatch):
    compiled = _record_compiles(monkeypatch)
    e = func_app(SIN, [t() * Fraction(3, 7)]) + Fraction(1, 9)
    env = {T_VAR: np.array([0.25, 0.5], dtype=complex)}
    for _ in range(3):
        eval_batch(e, EMPTY_BINDING, env)
    assert compiled == [(None, e)] * 3
    assert "_tape" not in Expr.__slots__


@pytest.mark.parametrize("cid", [3, 16])
def test_verify_case_compiles_each_root_once_per_owner(monkeypatch, cid):
    compiled = _record_compiles(monkeypatch)
    assert verify_case(cid, rng=np.random.default_rng(7))["passed"]
    # the draws bind only numbers (case 3's kappa beta, case 16's
    # coefficients), so they share one residual tuple and one coefficient
    # tuple: two tapes, both in verify_case's one dict, for all 5 draws
    assert len(compiled) == 2
    assert len({id(owner) for owner, _ in compiled}) == 1
    assert None not in [owner for owner, _ in compiled]
    assert all(type(root) is tuple for _, root in compiled)


def test_deep_expression_evaluates_without_recursion():
    e = t()
    for _ in range(2000):
        e = func_app(SIN, [e]) + Fraction(1, 3)
    vals, scale, unsafe = eval_batch(e, EMPTY_BINDING, {T_VAR: np.array([0.5, 1.5], dtype=complex)})
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(scale))
    assert not unsafe.any()


class _CountingInt(int):
    """An int that records each division of itself, so a constant with it as
    numerator counts its conversions to a float."""

    def __truediv__(self, other):
        self.divisions.append(other)
        return int.__truediv__(self, other)


def test_constant_shared_by_two_roots_is_converted_once():
    numerator = _CountingInt(987654321)
    numerator.divisions = calls = []
    # a node of its own, not interned, so no other constant shares the count
    c = Const((numerator, 1234567891, 0, 1))
    env = {T_VAR: np.array([0.25, 0.5], dtype=complex), x_var(1): np.array([1.0, -1.0], dtype=complex)}
    for root in (c * x(1) + t(), func_app(SIN, [c * t()])):
        _assert_matches_reference(root, EMPTY_BINDING, env)
    assert len(calls) == 1


def test_constant_too_large_for_a_float_names_itself():
    with pytest.raises(ValueError, match=r"^constant 1000.* too large for a float"):
        eval_batch(const(10 ** 400) * t(), EMPTY_BINDING, {T_VAR: np.array([0.5], dtype=complex)})


# -- the subterm scale: every run folds its scales and finiteness check in one
#    function, a bare root as the 1-tuple of itself ---------------------------

def _block_fold_reference(tape, binding, env, count):
    """``_Tape.run`` as it folded before: each block of rows, then the
    variables, tested for non-finite magnitudes and folded in turn."""
    buf, vals, var_vals, unsafe = tape._evaluate(binding, env, count, complex)
    scale = np.full(count, tape.cmax)
    step = max(1, _FOLD_ELEMS // max(count, 1))
    mags = [np.abs(buf[i:i + step]) for i in range(0, tape.rows, step)]
    if var_vals:
        mags.append(np.abs(var_vals))
    for mag in mags:
        bad = ~np.isfinite(mag)
        if bad.any():
            unsafe |= bad.any(axis=0)
            mag[bad] = 0.0
        np.maximum(scale, mag.max(axis=0), out=scale)
    return tape._root(buf, vals, count), scale, unsafe


@pytest.mark.parametrize("count", [13, 20_000])
def test_one_fold_matches_the_block_by_block_fold_bitwise(count):
    # exp(exp(t)) overflows at t = 7 and cos of it is NaN; x1 is 0, inf or
    # NaN at some points; 20 000 points take several blocks of rows
    tt = t()
    big = func_app(EXP, [func_app(EXP, [tt])])
    roots = [big * x(1),
             func_app(COS, [big]) * x(1) + int_pow(x(1), -1) * tt + big,
             func_app(SIN, [tt]) * Fraction(5, 2) + tt]
    rng = np.random.default_rng(count)
    env = {T_VAR: rng.uniform(0.3, 1.7, count).astype(complex),
           x_var(1): rng.uniform(-2.0, 2.0, count).astype(complex)}
    env[T_VAR][::7] = 7.0
    env[x_var(1)][1::11] = 0.0
    env[x_var(1)][2::13] = np.inf
    env[x_var(1)][3::17] = np.nan
    for root in roots:
        tape = _Tape(root)
        with np.errstate(all="ignore"):
            got = tape.run(EMPTY_BINDING, env, count)
            want = _block_fold_reference(tape, EMPTY_BINDING, env, count)
            one = _Tape((root,)).run(EMPTY_BINDING, env, count)
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(_bits(g), _bits(w))
        # the root as a 1-tuple: one row of the same bits, the same mask
        for g, w in zip(one[:2], want[:2]):
            assert g.shape == (1, count) and np.array_equal(_bits(g[0]), _bits(w))
        assert np.array_equal(got[2], want[2]) and np.array_equal(one[2], want[2])
        assert got[2].any() != (root is roots[2])
    assert _Tape(roots[1]).rows * 20_000 > 2 * _FOLD_ELEMS
    # a tuple folds each root's scale over the same blocks
    with np.errstate(all="ignore"):
        _assert_tuple_matches_each_root(tuple(roots), EMPTY_BINDING, env)
        assert np.array_equal(eval_batch(_Tape(tuple(roots)), EMPTY_BINDING, env, scale=False)[2],
                              eval_batch(_Tape(tuple(roots)), EMPTY_BINDING, env)[2])


# -- a tuple of roots: each root's values and scale, bit for bit -------------

def _assert_tuple_matches_each_root(roots, binding, env):
    """eval_batch of the tuple's tape gives every root's values and scale as
    the root's own eval_batch does at the same env, and the union of their
    masks."""
    vals, scales, unsafe = eval_batch(_Tape(roots), binding, env)
    assert vals.shape == scales.shape == (len(roots), len(unsafe))
    masks = []
    for r, v, sc in zip(roots, vals, scales):
        want = eval_batch(r, binding, env)
        assert np.array_equal(_bits(v), _bits(want[0]))
        assert np.array_equal(_bits(sc), _bits(want[1]))
        masks.append(want[2])
    assert np.array_equal(unsafe, np.logical_or.reduce(masks))


def test_tuple_matches_each_root_on_table_residuals():
    from schsym.cases import instantiate, table
    from schsym.conditions import classifying_residual

    rng = np.random.default_rng(61)
    sizes = []
    for case in table().values():
        inst = instantiate(case, rng)
        roots = tuple(dict.fromkeys(classifying_residual(inst.V, g) for g in inst.generators))
        roots = tuple(r for r in roots if r is not ZERO)
        if not roots:
            continue
        binding = numeric._fill_surrogates(roots, inst.workspace.binding, rng)
        env = draw_env(numeric._free_vars(roots), 16, rng)
        _assert_tuple_matches_each_root(roots, binding, env)
        sizes.append(len(roots))
    assert max(sizes) >= 4


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tuple_matches_each_root_on_shared_subterms(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    a, b, c = (data.draw(_expr_strategy(tbl)) for _ in range(3))
    # roots that share a, b and c as subterms, and the subterms themselves
    roots = (a + b, a * c, int_pow(b, 2) - c, c, conj_expr(a) * Fraction(3, 7), a + b)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    binding = Binding({s: random_surrogate(rng, s.arity, s.codomain)
                       for s in numeric._free_symbols(roots)})
    env = draw_env(numeric._free_vars(roots), 12, rng)
    if x_var(1) in env and data.draw(st.booleans()):
        env[x_var(1)][:3] = 0.0  # singular points of 1/x1
    _assert_tuple_matches_each_root(roots, binding, env)


def test_tuple_without_scale_gives_the_same_values_and_mask():
    tt = t()
    big = func_app(EXP, [func_app(EXP, [tt])])
    roots = (big * x(1), int_pow(x(1), -1) * tt, func_app(SIN, [tt]))
    env = {T_VAR: np.array([0.5, 7.0, 1.0, 1.5], dtype=complex),
           x_var(1): np.array([1.0, 1.0, 0.0, np.inf], dtype=complex)}
    with np.errstate(all="ignore"):
        got = eval_batch(_Tape(roots), EMPTY_BINDING, env, scale=False)
        want = eval_batch(_Tape(roots), EMPTY_BINDING, env)
    assert got[1] is None
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert got[2].tolist() == want[2].tolist() == [False, True, True, True]


# -- ExprImpl, against the recursive reference ---------------------------------

# t <= 0 for log, zero bases of 1/t, |t - 1|^(-1/2) and sgn(t - 1), a square
# that overflows, and a non-finite point
SHARED_POINTS = np.array([-1.0, 0.0, 1.0, 0.5, 1.3, 2.0, 1e200, np.inf], dtype=complex)


def _t_dag_strategy(f):
    """Random expressions in t alone over the leaves that make points unsafe."""
    tt = t()
    leaves = st.sampled_from([
        tt, const(Fraction(1, 2)), const(0, 1), tt * tt * Fraction(1, 2), int_pow(tt, 3),
        func_app(LOG, [tt]), func_app(SIN, [tt * 2]), func_app(f, [tt]), int_pow(tt, -1),
        abs_pow(tt - 1, Fraction(-1, 2)), sign_of(tt - 1)])

    def combine(children):
        a, b = children
        out = [a + b, a * b, a - b, int_pow(a, 2), conj_expr(a)]
        if a is not ZERO:
            out.append(int_pow(a, -1))
        return st.sampled_from(out)

    return st.recursive(leaves, lambda s: st.tuples(s, s).flatmap(combine), max_leaves=6)


def _assert_bitwise(got, want):
    assert got[0].shape == want[0].shape
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(got[1], want[1])


def _diff_t(e, k):
    for _ in range(k):
        e = diff(e, T_VAR)
    return e


def _reference_at_t(e, binding, z):
    vals, _, unsafe = _reference_eval(e, binding, {T_VAR: z})
    return vals, unsafe


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expr_impl_matches_recursive_reference_bitwise(data):
    tbl = SymbolTable()
    f = tbl.declare("f", 1, "real")
    e = data.draw(_t_dag_strategy(f))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    binding = Binding({f: random_surrogate(rng, 1, "real")})
    z = data.draw(st.sampled_from([SHARED_POINTS, SHARED_POINTS[3:6]]))
    # orders 0..3 of e reach a constant or bare t for polynomial leaves; the
    # sub-nodes of e are roots that later roots share
    roots = [(e, k) for k in range(4)] + [(n, 0) for n in post_order(e)]
    roots += [(t() * t() * Fraction(1, 2), k) for k in range(4)]
    impls = {}
    with np.errstate(all="ignore"):
        for root, k in data.draw(st.permutations(roots)):
            impl = impls.setdefault(root, ExprImpl(root, binding))
            want = _reference_at_t(_diff_t(root, k), binding, z)
            _assert_bitwise(impl.deriv((k,), (z,)), want)


class _ReferenceExprImpl(FunctionImpl):
    """ExprImpl evaluated by the recursive reference."""

    def __init__(self, expr_t, binding):
        self._expr, self._binding = expr_t, binding

    def deriv(self, didx, args):
        return _reference_at_t(_diff_t(self._expr, didx[0]), self._binding, args[0])


def _sibling_pair(impl_class, g_expr, g_arg):
    """A binding with g bound to g_expr, and an impl applying g at g_arg."""
    tbl = SymbolTable()
    g = tbl.declare("g", 1, "real")
    binding = Binding()
    binding.bind(g, impl_class(g_expr, binding))
    e = func_app(g, [g_arg]) * t() + func_app(SIN, [t()])
    return impl_class(e, binding), binding, g


def test_sibling_applied_at_other_points_matches_the_reference():
    # g(2t) evaluates at other points while the evaluation at t is under
    # way, and g shares sin(t) with the caller's expression
    g_expr = func_app(SIN, [t()]) * t() + func_app(LOG, [t()]) + int_pow(t(), -1)
    shared = _sibling_pair(ExprImpl, g_expr, t() * 2)[0]
    reference = _sibling_pair(_ReferenceExprImpl, g_expr, t() * 2)[0]
    with np.errstate(all="ignore"):
        for k in (0, 1, 0, 2, 1):
            _assert_bitwise(shared.deriv((k,), (SHARED_POINTS,)),
                            reference.deriv((k,), (SHARED_POINTS,)))
            _assert_bitwise(shared.deriv((k,), (2 * SHARED_POINTS,)),
                            reference.deriv((k,), (2 * SHARED_POINTS,)))


def test_bind_after_an_evaluation_is_seen():
    shared, binding, g = _sibling_pair(ExprImpl, func_app(SIN, [t()]), t())
    z = SHARED_POINTS[3:6]
    before = shared.deriv((1,), (z,))
    new_g = t() * t()
    binding.bind(g, ExprImpl(new_g, binding))
    reference, ref_binding, ref_g = _sibling_pair(_ReferenceExprImpl, func_app(SIN, [t()]), t())
    ref_binding.bind(ref_g, _ReferenceExprImpl(new_g, ref_binding))
    after = shared.deriv((1,), (z,))
    _assert_bitwise(after, reference.deriv((1,), (z,)))
    assert not np.array_equal(before[0], after[0])


def test_writes_by_a_caller_leave_later_values_intact():
    binding = Binding()
    impl = ExprImpl(func_app(LOG, [t()]) + t() * t(), binding)
    z = SHARED_POINTS[:6].copy()
    want = _reference_at_t(impl._expr, binding, z.copy())
    with np.errstate(all="ignore"):
        vals, mask = impl.deriv((0,), (z,))
        assert mask.any()  # log at t <= 0
        for arr, value in ((vals, 99.0), (mask, False)):
            try:
                arr[...] = value
            except ValueError:
                pass  # a read-only array keeps its values
        z[:] = 7.0  # the caller reuses its points array
        _assert_bitwise(impl.deriv((0,), (SHARED_POINTS[:6],)), want)


# -- the float64 program that InverseImpl runs for T and T' -------------------

REAL_POINTS = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


def _real_t_strategy():
    """Random real expressions in t: the builtin functions at derivative
    orders 0-3, integer powers -4..5, absolute powers, signs and constants."""
    leaves = st.sampled_from([t(), t(), t() - 1, const(Fraction(-3, 2)), const(Fraction(1, 3)),
                              func_app(PI, [])])

    def unary(a):
        ops = [st.tuples(st.sampled_from([COS, SIN, EXP, LOG, ATAN]), st.integers(0, 3))
               .map(lambda fk: func_app(fk[0], [a], [fk[1]]))]
        if a is ZERO:  # no negative power or sign of an exact zero
            return st.one_of(ops)
        return st.one_of(ops + [
            st.integers(-4, 5).map(lambda k: int_pow(a, k)),
            st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 3)])
            .map(lambda q: abs_pow(a, q)),
            st.just(sign_of(a))])

    def binary(ab):
        a, b = ab
        return st.sampled_from([a + b, a * b, a - b])

    return st.recursive(
        leaves, lambda s: st.one_of(s.flatmap(unary), st.tuples(s, s).flatmap(binary)),
        max_leaves=6)


def _real_part_of_complex_run(e, binding, z):
    vals, _, unsafe = eval_batch(e, binding, {T_VAR: z.astype(complex)})
    return np.real(vals), unsafe


@settings(max_examples=100, deadline=None)
@given(e=_real_t_strategy(), extra=st.lists(st.floats(-3.0, 3.0), max_size=4))
# nested integer powers fold to t^100, which numpy's complex power does not
# take by multiplication
@example(e=int_pow(int_pow(int_pow(t(), 5), 5), 4), extra=[])
def test_real_program_matches_the_complex_real_part_bitwise(e, extra):
    z = np.concatenate([REAL_POINTS, extra])
    tape = _Tape(e)
    real = all(abs(n.k) < 100 for n in post_order(e) if isinstance(n, IntPow))
    assert (tape.builtins is not None) == real
    with np.errstate(all="ignore"):
        # the batch, and each point alone, so one zero does not hide the rest
        for pts in [z] + [z[i:i + 1] for i in range(len(z))]:
            want, unsafe = _real_part_of_complex_run(e, EMPTY_BINDING, pts)
            got = tape.run_real(EMPTY_BINDING, {T_VAR: pts}, len(pts))
            if got is None:
                # with every power below 100, the real program declines only
                # a zero root or a non-finite row
                assert not real or (want == 0).any() or unsafe.any()
            else:
                assert real and np.array_equal(_bits(got), _bits(want))
            # eval_batch answers every point, by the tape's route, from the
            # complex program where the real one declines
            got = np.real(eval_batch(tape, EMPTY_BINDING, {T_VAR: pts})[0])
            assert np.array_equal(_bits(got), _bits(want))


def test_zero_root_and_non_finite_row_decline_the_real_program():
    # a zero's sign: cos(2) < 0, so t*cos(t + 2) at t = 0 is -0.0 in float,
    # while the complex product's zero imaginary parts give +0.0
    assert np.signbit(np.cos(2.0) * 0.0)
    assert not np.signbit((np.cos(2 + 0j) * 0j).real)
    zero_root = t() * func_app(COS, [t() + 2])
    # exp(exp(7)) overflows: 1/inf is 0 in float, while inf * 2 in complex
    # has a NaN imaginary part, so the complex value at t = 7 is NaN
    overflow = int_pow(func_app(EXP, [func_app(EXP, [t()])]) * 2, -1) + t()
    for e, z in ((zero_root, np.array([0.0, 1.0])), (overflow, np.array([7.0, 1.0]))):
        with np.errstate(all="ignore"):
            assert _Tape(e).run_real(EMPTY_BINDING, {T_VAR: z}, 2) is None
            want, _ = _real_part_of_complex_run(e, EMPTY_BINDING, z)
            got = np.real(eval_batch(_Tape(e), EMPTY_BINDING, {T_VAR: z})[0])
        assert np.array_equal(_bits(got), _bits(want))
        assert want[0] == 0 and not np.signbit(want[0]) if e is zero_root else np.isnan(want[0])


def _reference_solve(T, binding, y, bracket=SOLVE_BRACKET):
    """InverseImpl's root solve, every evaluation through eval_batch: each
    bracketed point steps until its own step is done, and is then frozen."""
    def T_at(e, s):
        return np.real(eval_batch(e, binding, {T_VAR: s.astype(complex)})[0])

    blo, bhi = bracket
    lo, hi = np.clip(y - 0.5, blo, bhi), np.clip(y + 0.5, blo, bhi)
    flo, fhi = T_at(T, lo) - y, T_at(T, hi) - y
    step = 1.0
    for _ in range(80):
        bad = (flo * fhi > 0) & ((lo > blo) | (hi < bhi))
        if not bad.any():
            break
        lo = np.where(bad, np.maximum(lo - step, blo), lo)
        hi = np.where(bad, np.minimum(hi + step, bhi), hi)
        flo, fhi = T_at(T, lo) - y, T_at(T, hi) - y
        step *= 1.6
        if step > 4.0 * (bhi - blo):
            break
    live = flo * fhi <= 0
    swap = flo > 0
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    s = 0.5 * (lo + hi)
    for _ in range(InverseImpl.MAX_ITER):
        if not live.any():
            break
        f = T_at(T, s) - y
        fp = T_at(diff(T, T_VAR), s)
        below = f <= 0
        lo, hi = np.where(below, s, lo), np.where(below, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - f / fp
        inside = (newton >= np.minimum(lo, hi)) & (newton <= np.maximum(lo, hi))
        nxt = np.where(inside, newton, 0.5 * (lo + hi))
        done = np.abs(nxt - s) < InverseImpl.STEP_TOL
        s = np.where(live, nxt, s)
        live = live & ~done
    return s, np.abs(T_at(T, s) - y)


def _assert_solve_matches_reference(impl, y):
    got = impl._solve((y,))
    want = _reference_solve(impl.T_expr, impl._binding, y)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("T", [
    "t", "2*t", "t + 3/10*sin(t)", "-t - sin(t)/4", "atan(t)", "t^3", "t^3 + t/1000",
    "t + exp(t)/10 + 1/(t^2 + 4)", "t + t^(3/2)/4 + log(t^2 + 1)/9"])
def test_solve_matches_a_reference_solve_on_eval_batch(T):
    # zeros, values outside the range of atan, and the flat point of t^3
    y = np.concatenate([[0.0, 0.5, -0.5, 2.0, -3.0, 1e-9],
                        np.random.default_rng(4).uniform(-3.0, 3.0, 40)])
    impl = InverseImpl(parse(T), Binding())
    assert _Tape(impl.T_expr).run_real(impl._binding, {T_VAR: np.array([0.7])}, 1) is not None
    with np.errstate(all="ignore"):
        _assert_solve_matches_reference(impl, y)


@pytest.mark.parametrize("T", ["t^3", "atan(t)", "t + 3/10*sin(t)", "-t - sin(t)/4",
                               "t + exp(t)/10 + 1/(t^2 + 4)"])
def test_a_point_solves_to_the_same_bits_alone_and_in_a_batch(T):
    # the flat point of t^3, y outside the range of atan, and points whose
    # Newton steps end at different iterations: each point's preimage and
    # residual are those of its own solve, whatever shares the batch
    y = np.concatenate([[0.0, 2.0, -3.0, 1e-9],
                        np.random.default_rng(14).uniform(-3.0, 3.0, 24)])
    with np.errstate(all="ignore"):
        together = InverseImpl(parse(T), Binding())._solve((y,))
        for i in range(len(y)):
            alone = InverseImpl(parse(T), Binding())._solve((y[i:i + 1],))
            for a, b in zip(alone, together):
                assert _bits(a).tolist() == _bits(b[i:i + 1]).tolist(), (T, y[i])


def test_ineligible_time_maps_run_the_complex_program(monkeypatch):
    real_runs = []
    run_real = _Tape.run_real

    def spy(self, *args):
        got = run_real(self, *args)
        if got is not None:
            real_runs.append(self)
        return got

    monkeypatch.setattr(_Tape, "run_real", spy)
    y = np.linspace(0.5, 1.5, 7)
    pts = {T_VAR: y}
    # an integer power of 100, which numpy raises by exp and log: T runs
    # complex, and so does each Newton step's (T, T') tape, which decides as
    # a whole, though T' = 1 + 25*((t - 2)/4)^99 alone could run real
    impl = InverseImpl(parse("t + ((t - 2)/4)^100"), Binding())
    assert _Tape(impl.T_expr).run_real(impl._binding, pts, len(y)) is None
    _assert_solve_matches_reference(impl, y)
    both = impl._tapes[(impl.T_expr, diff(impl.T_expr, T_VAR))]
    assert both.run_real(impl._binding, pts, len(y)) is None and not real_runs
    del real_runs[:]
    # a symbol bound to a random surrogate
    tbl = SymbolTable()
    f = tbl.declare("f", 1, "real")
    binding = Binding({f: random_surrogate(np.random.default_rng(3), 1, "real")})
    impl = InverseImpl(parse("t + f(t)/10", tbl), binding)
    assert _Tape(impl.T_expr).run_real(binding, pts, len(y)) is None
    _assert_solve_matches_reference(impl, y)
    assert not real_runs
    # a builtin rebound after a solve: the tape reads the binding at each
    # run, so the next solve sees the new one
    binding = Binding()
    impl = InverseImpl(parse("t + sin(t)/4"), binding)
    _assert_solve_matches_reference(impl, y)
    assert real_runs
    binding.bind(SIN, random_surrogate(np.random.default_rng(5), 1, "real"))
    del real_runs[:]
    assert impl._tapes[impl.T_expr].run_real(binding, pts, len(y)) is None
    _assert_solve_matches_reference(impl, y + 0.25)  # other points: no memo hit
    assert not real_runs


def test_a_solve_runs_t_and_its_derivative_as_one_program(monkeypatch):
    # one run for both bracket ends, one (T, T') run per Newton step and
    # one run of T for the residuals: 1 + 5 + 1, against 13 in two programs
    impl = InverseImpl(parse("t + 3/10*sin(t)"), Binding())
    y = np.random.default_rng(6).uniform(-3.0, 3.0, 100)
    calls = _counting_eval_batch(monkeypatch)
    _assert_solve_matches_reference(impl, y)
    both = impl._tapes[(impl.T_expr, diff(impl.T_expr, T_VAR))]
    assert len(calls) == 7 and calls[1:-1] == [both] * 5


def test_a_solve_keeps_the_last_point_set(monkeypatch):
    impl = InverseImpl(parse("t + 3/10*sin(t)"), Binding())
    a, b = np.linspace(-1.0, 1.0, 100), np.linspace(-2.0, 2.0, 2400)
    calls = _counting_eval_batch(monkeypatch)
    first = impl._solve((a,))
    del calls[:]
    again = impl._solve((a,))
    assert not calls and all(g is w for g, w in zip(again, first))
    impl._solve((b,))  # a solve at other points drops the one before
    del calls[:]
    impl._solve((a,))
    assert calls


@pytest.mark.parametrize("T, sign", [("t/3 + sin(t)/10", 1), ("-t - sin(t)/4", -1)])
def test_a_solve_whose_bracket_expands_matches_the_reference(T, sign, monkeypatch):
    # preimages far from y: the bracket search widens every end several times
    y = sign * np.linspace(2.0, 15.0, 40)
    impl = InverseImpl(parse(T), Binding())
    calls = _counting_eval_batch(monkeypatch)
    _assert_solve_matches_reference(impl, y)
    assert calls[:3] == [impl._tapes[impl.T_expr]] * 3


def test_the_inverse_of_t_is_each_point_itself():
    # why an identity map may take t for its inverse time map: the solve of
    # T = t returns y bit for bit, apart from the sign of a zero
    rng = np.random.default_rng(11)
    y = np.concatenate([np.linspace(-60.0, 60.0, 12001), rng.uniform(-60.0, 60.0, 4000),
                        [-0.0, 1e-300, -5e-324, 59.99999999999999]])
    s, residual = InverseImpl(t(), Binding())._solve((y,))
    nonzero = y != 0
    assert np.array_equal(_bits(s[nonzero]), _bits(y[nonzero]))
    assert (s[~nonzero] == 0).all() and not residual.any()


def test_integer_powers_from_100_on_keep_the_complex_program():
    # the bound in _Tape.run_real: numpy multiplies up to |k| = 99, so a
    # negative base keeps a zero imaginary part, and from 100 on it takes
    # exp and log, which leave a small nonzero one
    b = np.array([-1.2 + 0j])
    assert (b ** 99).imag == 0 and (b ** -99).imag == 0
    assert (b ** 100).imag != 0 and (b ** -100).imag != 0
    # a later cos turns it into a change of the real part, which a float64
    # buffer, holding only real parts, misses
    e = parse("cos((t - 3)^100)")
    z = np.array([1.8, 2.5])
    tape = _Tape(e)
    assert tape.run_real(EMPTY_BINDING, {T_VAR: z}, 2) is None
    assert _Tape(parse("cos((t - 3)^99)")).run_real(EMPTY_BINDING, {T_VAR: z}, 2) is not None
    want, _ = _real_part_of_complex_run(e, EMPTY_BINDING, z)
    buf, vals, _, _ = tape._evaluate(EMPTY_BINDING, {T_VAR: z}, 2, float)
    assert tape._root(buf, vals, 2)[0] != want[0]


def test_an_owned_tape_at_float_points_gives_the_complex_real_parts():
    # eval_batch of an owned tape at float64 points is the real part of
    # the complex program bit for bit, whoever calls it
    e = parse("cos((t - 3)^100)")
    z = np.array([1.8, 2.5])
    want, _ = _real_part_of_complex_run(e, EMPTY_BINDING, z)
    got = eval_batch(_Tape(e), EMPTY_BINDING, {T_VAR: z})[0]
    assert np.array_equal(_bits(np.real(got)), _bits(want))
