"""Expression engine: construction, differentiation, conjugation, round trips."""
import math
import subprocess
import sys

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import schsym.expr as expr_module
from schsym.expr import (COS, ONE, SIN, T_VAR, ZERO, AbsPow, Conj, Const, FuncApp,
                         FunctionSymbol, IntPow, Product, Sign, Sum, SymbolTable, Var, _const,
                         _nary, _node, abs_pow,
                         conj_expr, conj_var, const, depends_only_on_t, diff, func_app,
                         has_complex_symbols, im_part, int_pow, jet_var, post_order, prod,
                         psi, psi_var, sign_of, subst, sum_, t, total_derivative, var, x,
                         x_var)
from schsym.funcbank import random_surrogate
from schsym.numeric import (EMPTY_BINDING, Binding, draw_env, eval_batch, is_zero,
                            max_normalized_residual)
from schsym.parsing import (_PREC_ATOM as ATOM, _PREC_POW as POW, _PREC_SUM as SUM,
                            _PREC_TERM as TERM, _const_text, _frac, _wrap, parse, to_text,
                            var_name)
from schsym.rational import cadd, cmul, cpow


def safe_value(e, binding, t0, xs=()):
    """The value of e at the one point t = t0, x = xs, which must be safe."""
    env = {T_VAR: np.array([t0], dtype=complex)}
    env.update({x_var(a): np.array([v], dtype=complex) for a, v in enumerate(xs, 1)})
    vals, _, unsafe = eval_batch(e, binding, env)
    assert not unsafe[0]
    return complex(vals[0])


@pytest.fixture
def table():
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("W", 2, "complex")
    tbl.declare("f", 1, "real")
    tbl.declare("b", 0, "real")
    return tbl


def test_interning_gives_structural_identity(table):
    assert parse("x1 + x2", table) is parse("x1 + x2", table)
    assert parse("x1*x2 + x1*x2", table) is parse("2*x1*x2", table)
    assert (x(1) - x(1)) is ZERO
    assert int_pow(x(1), 0) is ONE
    # a Sum and a Product over equal children are two nodes, in either build
    # order: the first is keyed by the children tuple, the second by its class
    # and that tuple.  The symbols are fresh, so no other test built these
    for first, second in ((sum_, prod), (prod, sum_)):
        f, g = (FunctionSymbol(f"{name}_{first.__name__}", 1, "real") for name in ("fk", "gk"))
        kids = (func_app(f, [t()]), func_app(g, [t()]))
        n = len(expr_module._INTERN)
        a, b = first(kids), second(kids)
        assert len(expr_module._INTERN) == n + 2 and a is not b
        assert a.children() == b.children() == kids
        assert expr_module._INTERN[kids] is a and expr_module._INTERN[(type(b), kids)] is b
        assert first(kids) is a and second(kids) is b and len(expr_module._INTERN) == n + 2


def test_sum_collects_like_terms(table):
    e = parse("t*x1 - t*x1 + x2", table)
    assert e is x(2)


def test_parse_examples_from_contract(table):
    e = parse("x1^2 + x2^2", table)
    assert to_text(e) == "x1^2 + x2^2"
    e2 = parse("U(x2) + i*b*x1", table)
    assert parse(to_text(e2), table) is e2
    e3 = parse("conj(psi)", table)
    assert e3 is var(jet_var((0, 0, 0), conj=True))


def test_diff_power():
    assert diff(parse("x1^2"), x_var(1)) is parse("2*x1")


def test_a_node_keeps_one_derivative_as_a_pair_and_more_in_a_dict(monkeypatch):
    # a fresh symbol, so no other test differentiated e
    h = FunctionSymbol("h_kept", 2, "real")
    e = func_app(h, [t() * x(1), x(1) + t()])
    calls = []
    real_diff = expr_module._diff
    monkeypatch.setattr(expr_module, "_diff",
                        lambda u, v: calls.append((u, v)) or real_diff(u, v))
    bits = expr_module.VARIABLES.bits
    dt = diff(e, T_VAR)
    assert e._diffs == (bits[T_VAR], dt)
    dx = diff(e, x_var(1))
    assert e._diffs == {bits[T_VAR]: dt, bits[x_var(1)]: dx}
    assert diff(e, T_VAR) is dt and diff(e, x_var(1)) is dx
    # _diff ran once per (node, variable): on e, once by each variable
    assert len(calls) == len(set(calls)) and [v for u, v in calls if u is e] == [T_VAR, x_var(1)]
    assert dt is _ref_diff(e, T_VAR, {}) and dx is _ref_diff(e, x_var(1), {})


def test_diff_rotating_arguments(table):
    # d/dt U(w1, w2) with w1 = x1 cos t + x2 sin t, w2 = -x1 sin t + x2 cos t
    w1 = parse("x1*cos(t) + x2*sin(t)", table)
    w2 = parse("x2*cos(t) - x1*sin(t)", table)
    Ww = func_app(table.get("W"), [w1, w2])
    d = diff(Ww, T_VAR)
    want = (func_app(table.get("W"), [w1, w2], (1, 0)) * w2
            + func_app(table.get("W"), [w1, w2], (0, 1)) * (-w1))
    assert is_zero(d - want, rng=np.random.default_rng(0))


def test_abs_pow_derivative_matches_finite_differences(table):
    Tsym = table.declare("T", 1, "real")
    Tt = diff(func_app(Tsym, [t()]), T_VAR)
    h = abs_pow(Tt, Fraction(1, 2))
    dh = diff(h, T_VAR)
    rng = np.random.default_rng(3)
    impl = random_surrogate(rng, 1, "real")
    binding = Binding({Tsym: impl})
    t0, step = 0.8, 1e-5
    f1 = safe_value(h, binding, t0 + step)
    f2 = safe_value(h, binding, t0 - step)
    d0 = safe_value(dh, binding, t0)
    assert abs((f1 - f2) / (2 * step) - d0) < 1e-6 * (1 + abs(d0))


def test_abs_pow_requires_real_base():
    with pytest.raises(ValueError):
        abs_pow(parse("i*x1"), Fraction(1, 2))
    with pytest.raises(ValueError):
        sign_of(psi(2))


def test_total_derivative_raises_jets():
    n = 2
    p = psi(n)
    assert total_derivative(p, 1) is var(jet_var((0, 1, 0)))
    e = x(1) * p
    dt = total_derivative(e, 0)
    assert dt is x(1) * var(jet_var((1, 0, 0)))
    # D_a of t-only expressions vanishes
    assert total_derivative(parse("t^2"), 1) is ZERO


def test_conjugated_function_of_a_jet_is_differentiated_by_the_conjugate_jet(table):
    # conj(U(psi)) is Ubar(conj(psi)): it holds both jets, and its derivative
    # by conj(psi) is conj(U[1](psi)), by psi zero
    U = table.get("U")
    e = conj_expr(func_app(U, [psi(2)]))
    assert type(e) is Conj and e.free_vars == {psi_var(2), psi_var(2, conj=True)}
    dU = conj_expr(func_app(U, [psi(2)], [1]))
    assert diff(e, psi_var(2)) is ZERO
    assert diff(e, psi_var(2, conj=True)) is dU
    assert total_derivative(e, 0) is dU * var(jet_var((1, 0, 0), conj=True))


def test_subst_takes_a_conjugated_function_of_a_jet_by_the_conjugate_jet(table):
    # as diff does: conj(U(psi)) is Ubar(conj(psi)), so a map of conj(psi)
    # reaches its argument and a map of psi does not
    U = table.get("U")
    e = conj_expr(func_app(U, [psi(2)]))
    assert subst(e, {psi_var(2, conj=True): x(1)}) is conj_expr(func_app(U, [x(1)]))
    assert subst(e, {psi_var(2): x(1)}) is e
    # a value for t or x goes in conjugated: conj(U(t))[t -> i*x1] is Ubar(i*x1)
    ix1 = const(0, 1) * x(1)
    assert subst(conj_expr(func_app(U, [t()])), {T_VAR: ix1}) is conj_expr(
        func_app(U, [conj_expr(ix1)]))
    # conj(U(conj(U(psi)))) is Ubar(U(psi)), a function of psi: each nested
    # Conj swaps the map back
    nested = conj_expr(func_app(U, [e]))
    assert subst(nested, {psi_var(2): x(1)}) is conj_expr(
        func_app(U, [conj_expr(func_app(U, [x(1)]))]))
    assert subst(nested, {psi_var(2, conj=True): x(1)}) is nested


def test_subst_of_nested_conjugates_does_not_recurse(table):
    # each level's Conj is rebuilt from its argument under the other map, on
    # an explicit stack; diff walks each Conj's argument in its own stack.
    # The derivative d and its conjugate dc are built level by level:
    # (U(conj(e) + x1))' = U'(conj(e) + x1) (conj(e') + 1)
    U = table.get("U")
    e, in_t, d, dc = x(1), t(), ONE, ONE
    for _ in range(2000):
        arg = conj_expr(e) + x(1)
        du = func_app(U, [arg], [1])
        d, dc = du * (dc + 1), conj_expr(du) * (d + 1)
        e = func_app(U, [arg])
        in_t = func_app(U, [conj_expr(in_t) + t()])
    assert subst(e, {x_var(1): t()}) is in_t
    assert diff(e, x_var(1)) is d


def test_conjugation_distributes(table):
    e = parse("i*x1 + U(x2)", table)
    c = conj_expr(e)
    assert conj_expr(c) is e
    assert conj_expr(parse("x1 + t")) is parse("x1 + t")
    # conj flips jet flags
    assert conj_expr(psi(2)) is psi(2, conj=True)


def test_subst_replaces_vars(table):
    e = parse("t^2 + x1", table)
    out = subst(e, {T_VAR: parse("t + 1", table)})
    assert out is parse("(t+1)^2 + x1", table)


def test_subst_drops_each_entry_that_maps_a_variable_to_itself(table, monkeypatch):
    e = parse("t^2 + x1", table)
    assert subst(e, {T_VAR: t(), x_var(1): x(2)}) is parse("t^2 + x2", table)
    monkeypatch.setattr(expr_module, "_rebuild", None)  # with none left, nothing is rebuilt
    assert subst(e, {T_VAR: t()}) is e


# -- property tests ---------------------------------------------------------

def _expr_strategy(table, smooth=False, normal_forms=False):
    """Random expressions; `normal_forms` adds leaves and combinations that
    reach every branch of `sum_` and `prod`: complex constants, |.|^q, sgn,
    negative powers and constant multiples of sums."""
    leaves = st.sampled_from([
        t(), x(1), x(2), const(Fraction(1, 2)), const(2), const(0, 1),
        func_app(table.get("f"), [t()]),
        func_app(table.get("U"), [x(2)]),
        parse("cos(t)", table), parse("sin(2*t)", table),
    ])
    if not smooth:
        leaves = st.one_of(leaves, st.sampled_from([psi(2), int_pow(x(1), -1)]))
    if normal_forms:
        leaves = st.one_of(leaves, st.sampled_from([
            const(Fraction(1, 2), -3), abs_pow(x(1), Fraction(1, 3)),
            abs_pow(t(), Fraction(-1, 2)), sign_of(x(1))]))

    def combine(children):
        a, b = children
        out = [a + b, a * b, a - b, int_pow(a, 2), conj_expr(a)]
        if normal_forms:
            out += [const(Fraction(-1, 3)) * (a + b), const(Fraction(1, 2), -3) * (a - b)]
            if a is not ZERO:
                out.append(int_pow(a, -2))
        return st.sampled_from(out)

    return st.recursive(leaves, lambda s: st.tuples(s, s).flatmap(combine), max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mixed_partials_commute(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    e = data.draw(_expr_strategy(tbl))
    pairs = [(T_VAR, x_var(1)), (x_var(1), x_var(2)), (T_VAR, psi_var(2))]
    u, v = data.draw(st.sampled_from(pairs))
    lhs = diff(diff(e, u), v)
    rhs = diff(diff(e, v), u)
    assert is_zero(lhs - rhs, trials=2, points=40, rng=np.random.default_rng(7))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_eval_diff_consistency(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    e = data.draw(_expr_strategy(tbl, smooth=True))
    de = diff(e, T_VAR)
    rng = np.random.default_rng(11)
    binding = Binding({s: random_surrogate(rng, s.arity, s.codomain)
                       for s in e.free_symbols if s.name in ("U", "f")})
    h = 1e-5
    t0, xs = 0.9, (0.7, -0.4)
    f1 = safe_value(e, binding, t0 + h, xs)
    f2 = safe_value(e, binding, t0 - h, xs)
    d0 = safe_value(de, binding, t0, xs)
    assert abs((f1 - f2) / (2 * h) - d0) <= 1e-6 * (1 + abs(d0))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugation_matches_pointwise_conjugate(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    e = data.draw(_expr_strategy(tbl))
    c = conj_expr(e)
    rng = np.random.default_rng(13)
    binding = Binding({s: random_surrogate(rng, s.arity, s.codomain)
                       for s in e.free_symbols})
    env = draw_env(e.free_vars | c.free_vars, 16, rng)
    v1, _, u1 = eval_batch(c, binding, env)
    v2, _, u2 = eval_batch(e, binding, env)
    good = ~(u1 | u2)
    assert np.allclose(np.asarray(v1)[good], np.conj(np.asarray(v2)[good]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_print_parse_round_trip(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    e = data.draw(_expr_strategy(tbl))
    assert parse(to_text(e), tbl) is e


# -- normalizing constructors against their plain definitions ---------------

# The coefficient helpers on Fraction pairs (re, im) that the integer pairs
# replaced, kept as the reference they are checked against.

_F0 = Fraction(0)
_F1 = Fraction(1)


def _ref_cadd(a, b):
    if a[1] or b[1]:
        return (a[0] + b[0], a[1] + b[1])
    return (a[0] + b[0], _F0)


def _ref_cmul(a, b):
    if a[1] or b[1]:
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return (a[0] * b[0], _F0)


def _ref_cpow(a, k: int):
    if k < 0:
        d = a[0] * a[0] + a[1] * a[1]
        if d == 0:
            raise ZeroDivisionError("inverse of exact zero constant")
        a = (a[0] / d, -a[1] / d)
        k = -k
    if not a[1]:
        return (a[0] ** k, _F0)
    # exponentiation by squaring: O(log k) products instead of k
    out = (_F1, _F0)
    while k:
        if k & 1:
            out = _ref_cmul(out, a)
        k >>= 1
        if k:
            a = _ref_cmul(a, a)
    return out


def _ref_split_coeff(term):
    """Split a term into (complex rational coefficient, monomial part)."""
    if isinstance(term, Const):
        return (term.re, term.im), ONE
    if isinstance(term, Product) and isinstance(term.factors[0], Const):
        c = term.factors[0]
        rest = term.factors[1:]
        mono = rest[0] if len(rest) == 1 else _nary(Product, rest)
        return (c.re, c.im), mono
    return (_F1, _F0), term


def _ints(a):
    """The reduced ints (re_num, re_den, im_num, im_den) of a Fraction pair."""
    return (a[0].numerator, a[0].denominator, a[1].numerator, a[1].denominator)


def _ref_sum(terms):
    """`sum_` without its shortcuts: every term is re-normalized by `_ref_prod`."""
    acc = {}
    cacc = None
    stack = list(terms)
    stack.reverse()
    while stack:
        tm = stack.pop()
        if isinstance(tm, Sum):
            stack.extend(reversed(tm.terms))
            continue
        if (isinstance(tm, Product) and len(tm.factors) == 2
                and isinstance(tm.factors[0], Const) and isinstance(tm.factors[1], Sum)):
            stack.extend(_ref_prod((tm.factors[0], u)) for u in reversed(tm.factors[1].terms))
            continue
        coeff, mono = _ref_split_coeff(tm)
        if mono is ONE:
            cacc = coeff if cacc is None else _ref_cadd(cacc, coeff)
        else:
            prev = acc.get(mono)
            acc[mono] = _ref_cadd(prev, coeff) if prev is not None else coeff
    out = []
    if cacc is not None and (cacc[0] or cacc[1]):
        out.append(const(*cacc))
    for mono, coeff in acc.items():
        if not coeff[0] and not coeff[1]:
            continue
        if coeff[0] == 1 and not coeff[1]:
            out.append(mono)
        else:
            out.append(_ref_prod((const(*coeff), mono)))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return _nary(Sum, tuple(out))


def _ref_prod(factors):
    """`prod` with one dict per kind of power and every power rebuilt."""
    cacc = (Fraction(1), Fraction(0))
    ipow, apow, spar = {}, {}, {}
    order = []

    def add_ipow(b, k):
        if b not in ipow:
            order.append(("i", b))
            ipow[b] = 0
        ipow[b] += k

    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if isinstance(f, Product):
            stack.extend(reversed(f.factors))
            continue
        if isinstance(f, Const):
            if f is ZERO:
                return ZERO
            cacc = _ref_cmul(cacc, (f.re, f.im))
        elif isinstance(f, IntPow):
            add_ipow(f.base, f.k)
        elif isinstance(f, AbsPow):
            if f.base not in apow:
                order.append(("a", f.base))
                apow[f.base] = Fraction(0)
            apow[f.base] += f.q
        elif isinstance(f, Sign):
            if f.base not in spar:
                order.append(("g", f.base))
                spar[f.base] = 0
            spar[f.base] += 1
        else:
            add_ipow(f, 1)
    out = []
    for tag, b in order:
        if tag == "i":
            piece = int_pow(b, ipow[b])
        elif tag == "a":
            piece = abs_pow(b, apow[b])
        else:
            piece = sign_of(b) if spar[b] % 2 else ONE
        if isinstance(piece, Const):
            cacc = _ref_cmul(cacc, (piece.re, piece.im))
            if not cacc[0] and not cacc[1]:
                return ZERO
        elif piece is not ONE:
            out.append(piece)
    if not out:
        return const(*cacc)
    if cacc[0] != 1 or cacc[1]:
        out.insert(0, const(*cacc))
    if len(out) == 1:
        return out[0]
    return _nary(Product, tuple(out))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_normalizing_shortcuts_match_reference(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    exprs = _expr_strategy(tbl, normal_forms=True)
    terms = data.draw(st.lists(exprs, max_size=5))
    factors = data.draw(st.lists(exprs, max_size=4))
    assert sum_(terms) is _ref_sum(terms)
    assert prod(factors) is _ref_prod(factors)


def _slow_cpow(a, k):
    if k < 0:
        d = a[0] * a[0] + a[1] * a[1]
        a, k = (a[0] / d, -a[1] / d), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_cmul(out, a)
    return out


@pytest.mark.parametrize("base", [(Fraction(3, 2), Fraction(0)), (Fraction(-2, 7), Fraction(0)),
                                  (Fraction(1), Fraction(1)), (Fraction(-1, 3), Fraction(5, 2)),
                                  (Fraction(0), Fraction(-2))])
def test_cpow_matches_repeated_products(base):
    for k in range(-6, 7):
        want = _slow_cpow(base, k)
        assert _ref_cpow(base, k) == want
        got = cpow(_ints(base), k)
        assert got == _ints(want) and _const(got) is const(*want)


def test_cpow_exact_values_and_zero():
    assert _ref_cpow((Fraction(1), Fraction(1)), 8) == (16, 0)
    assert cpow((1, 1, 1, 1), 8) == (16, 1, 0, 1)
    assert _ref_cpow((Fraction(0), Fraction(1)), -3) == (0, 1)
    assert cpow((0, 1, 1, 1), -3) == (0, 1, 1, 1)
    with pytest.raises(ZeroDivisionError):
        _ref_cpow((Fraction(0), Fraction(0)), -1)
    with pytest.raises(ZeroDivisionError):
        cpow((0, 1, 0, 1), -1)
    assert _ref_cpow((Fraction(0), Fraction(0)), 3) == (0, 0)
    assert cpow((0, 1, 0, 1), 3) == (0, 1, 0, 1)


# rationals with 0, +-1, negative and above-2^64 parts, and complex pairs of them
_BIG = 2 ** 64
_numerators = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-1000, 1000),
                        st.integers(_BIG, 8 * _BIG), st.integers(-8 * _BIG, -_BIG))
_denominators = st.one_of(st.just(1), st.integers(1, 1000), st.integers(_BIG, 8 * _BIG))
_rationals = st.builds(Fraction, _numerators, _denominators)
_complex_rationals = st.tuples(_rationals, st.one_of(st.just(Fraction(0)), _rationals))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_complex_rationals, _complex_rationals, st.integers(-4, 4))
def test_integer_pair_arithmetic_matches_fraction(a, b, k):
    ai, bi = _ints(a), _ints(b)
    assert cadd(ai, bi) == _ints(_ref_cadd(a, b))
    assert cmul(ai, bi) == _ints(_ref_cmul(a, b))
    if not a[0] and not a[1] and k < 0:
        with pytest.raises(ZeroDivisionError):
            cpow(ai, k)
    else:
        assert cpow(ai, k) == _ints(_ref_cpow(a, k))
    # every way of building a constant gives the one node, and its views
    node = _const(ai)
    assert const(*a) is node and node.re == a[0] and node.im == a[1]
    assert type(node.re) is Fraction and type(node.im) is Fraction
    if a[0].denominator == 1 and a[1].denominator == 1:
        assert const(a[0].numerator, a[1].numerator) is node
        if not a[1]:
            assert const(a[0].numerator) is node


def test_subtraction_builds_no_fraction(monkeypatch):
    # negating b's coefficients is a sign flip on integer pairs
    b = parse("3/4 + 1/3*x2 + 2/5*t - 7/9*x1*t + (1/2 - 5/6*i)*x1^2")
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    d = x(1) - b
    monkeypatch.undo()
    assert built == []
    assert d is parse("-3/4 + x1 - 1/3*x2 - 2/5*t + 7/9*x1*t + (-1/2 + 5/6*i)*x1^2")


def test_large_integer_power_of_a_constant_parses_exactly():
    assert parse("(3/2)^100000") is const(Fraction(3, 2) ** 100000)


# -- the product rule against its plain definition ---------------------------

def _ref_product_rule(e, v):
    """`diff` of a Product with every term built by `prod`."""
    fs = e.factors
    terms = []
    for i, f in enumerate(fs):
        d = diff(f, v)
        if d is ZERO:
            continue
        terms.append(prod(fs[:i] + (d,) + fs[i + 1:]))
    return sum_(terms)


# S = 1 + t^2 and G with G' = S, so S^2*G and S*G differentiate into a
# product whose new factor S is already a base of another factor
_S = t() * t() + 1
_G = const(Fraction(1, 3)) * int_pow(t(), 3) + t()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_product_rule_matches_reference(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    colliding = st.sampled_from([_S, _G, func_app(COS, [t()]), func_app(COS, [t()], [1]),
                                 func_app(tbl.get("f"), [t()], [1])])
    e = data.draw(st.one_of(_expr_strategy(tbl, normal_forms=True),
                            st.tuples(colliding, colliding, colliding).map(
                                lambda fs: int_pow(fs[0], 2) * fs[1] * fs[2])))
    v = data.draw(st.sampled_from([T_VAR, x_var(1), x_var(2)]))
    for p in post_order(e):
        if isinstance(p, Product):
            assert diff(p, v) is _ref_product_rule(p, v)


def test_product_rule_collisions_and_direct_terms():
    cos_t, sin_t = func_app(COS, [t()]), func_app(SIN, [t()])
    dcos = func_app(COS, [t()], [1])
    for e in (int_pow(_S, 2) * _G, _S * _G, cos_t * sin_t, cos_t * dcos):
        assert isinstance(e, Product)
        assert diff(e, T_VAR) is _ref_product_rule(e, T_VAR)
    assert diff(_G, T_VAR) is _S and isinstance(_S, Sum)
    # the colliding term folds into S^3, and cos'*cos' into a square
    assert int_pow(_S, 3) in diff(int_pow(_S, 2) * _G, T_VAR).terms
    assert int_pow(dcos, 2) in diff(cos_t * dcos, T_VAR).terms
    assert isinstance(diff(cos_t, T_VAR), FuncApp)


def test_one_term_rules_return_what_sum_would():
    """diff's product and chain rules skip sum_ for one term; the term must
    be the node sum_([term]) builds, and a Sum or a constant times a Sum,
    which sum_ takes apart, must still go through it."""
    tv, x1 = t(), x(1)
    cos_t = func_app(COS, [tv])
    s = tv * tv + 1
    terms = [ZERO, ONE, const(3), tv, cos_t, s, const(2) * s, tv * s, const(2) * tv * x1,
             const(2) * x1 * s, int_pow(s, 2), prod((const(-1), cos_t)), s * cos_t]
    assert isinstance(const(2) * s, Product) and len((const(2) * s).factors) == 2
    for tm in terms:
        assert expr_module._sum_of([tm]) is sum_([tm]), tm
    # the chain rule of cos(t*x1) by t yields one term
    e = func_app(COS, [tv * x1])
    assert diff(e, T_VAR) is sum_([prod((func_app(COS, [tv * x1], [1]), x1))])


# -- the walks against recursive definitions ----------------------------------

def _ref_post_order(e, seen=None, out=None):
    """Distinct nodes, children before parents and left to right, by recursion."""
    seen, out = (set(), []) if seen is None else (seen, out)
    if e not in seen:
        seen.add(e)
        for c in e.children():
            _ref_post_order(c, seen, out)
        out.append(e)
    return out


def _ref_diff(e, v, memo):
    """`diff` by recursion, memoized in `memo`, not on the nodes."""
    got = memo.get((e, v))
    if got is not None:
        return got
    if v not in e.free_vars or isinstance(e, Sign):
        out = ZERO
    elif isinstance(e, Var):
        out = ONE
    elif isinstance(e, Sum):
        out = sum_(_ref_diff(tm, v, memo) for tm in e.terms)
    elif isinstance(e, Product):
        fs = e.factors
        out = sum_(prod(fs[:i] + (_ref_diff(f, v, memo),) + fs[i + 1:])
                   for i, f in enumerate(fs) if _ref_diff(f, v, memo) is not ZERO)
    elif isinstance(e, IntPow):
        out = prod((const(e.k), int_pow(e.base, e.k - 1), _ref_diff(e.base, v, memo)))
    elif isinstance(e, AbsPow):
        out = prod((const(e.q), abs_pow(e.base, e.q - 1), sign_of(e.base),
                    _ref_diff(e.base, v, memo)))
    elif isinstance(e, Conj):
        w = jet_var(v.alpha, not v.conj) if v.is_jet else v
        out = conj_expr(_ref_diff(e.arg, w, memo))
    else:
        terms = []
        for s, a in enumerate(e.args):
            d = _ref_diff(a, v, memo)
            if d is not ZERO:
                didx = list(e.didx)
                didx[s] += 1
                terms.append(prod((func_app(e.sym, e.args, didx), d)))
        out = sum_(terms)
    memo[(e, v)] = out
    return out


def _ref_conj(e):
    """conj_expr by recursion, without a memo."""
    if e.is_real:
        return e
    if isinstance(e, Const):
        return const(e.re, -e.im)
    if isinstance(e, Var):
        return var(jet_var(e.vid.alpha, not e.vid.conj))
    if isinstance(e, Sum):
        return sum_(_ref_conj(tm) for tm in e.terms)
    if isinstance(e, Product):
        return prod(_ref_conj(f) for f in e.factors)
    if isinstance(e, IntPow):
        return int_pow(_ref_conj(e.base), e.k)
    if isinstance(e, Conj):
        return e.arg
    return _node(Conj, e)


def _ref_subst(e, mapping, memo):
    """`subst` by recursion."""
    got = memo.get(e)
    if got is not None:
        return got
    if isinstance(e, Var):
        out = mapping.get(e.vid, e)
    elif not (e.free_vars & mapping.keys()):
        out = e
    elif isinstance(e, Sum):
        out = sum_(_ref_subst(tm, mapping, memo) for tm in e.terms)
    elif isinstance(e, Product):
        out = prod(_ref_subst(f, mapping, memo) for f in e.factors)
    elif isinstance(e, IntPow):
        out = int_pow(_ref_subst(e.base, mapping, memo), e.k)
    elif isinstance(e, AbsPow):
        out = abs_pow(_ref_subst(e.base, mapping, memo), e.q)
    elif isinstance(e, Sign):
        out = sign_of(_ref_subst(e.base, mapping, memo))
    elif isinstance(e, Conj):
        # conj(f) is a function of the conjugate variables: substitute the
        # conjugate of each value for the conjugate of each key
        conj_map = {conj_var(v): conj_expr(x) for v, x in mapping.items()}
        out = conj_expr(_ref_subst(e.arg, conj_map, {}))
    else:
        out = func_app(e.sym, [_ref_subst(a, mapping, memo) for a in e.args], e.didx)
    memo[e] = out
    return out


def _ref_text(e):
    """(text, precedence) of `to_text` by recursion."""
    if isinstance(e, Const):
        return _const_text(e)
    if isinstance(e, Var):
        return var_name(e.vid), ATOM
    if isinstance(e, Sum):
        parts = []
        for i, tm in enumerate(e.terms):
            s, p = _ref_text(tm)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s if p > SUM else '(' + s + ')'}")
        return "".join(parts), SUM
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Const) and head.im == 0 and head.re < 0:
            pos = const(-head.re)
            rest = e.factors[1:] if pos.re == 1 else (pos,) + e.factors[1:]
            return "-" + "*".join(_wrap(*_ref_text(f), TERM) for f in rest), SUM
        return "*".join(_wrap(*_ref_text(f), TERM) for f in e.factors), TERM
    if isinstance(e, IntPow):
        exp = str(e.k) if e.k >= 0 else f"(-{-e.k})"
        return f"{_wrap(*_ref_text(e.base), ATOM)}^{exp}", POW
    if isinstance(e, AbsPow):
        b = _ref_text(e.base)[0]
        if e.q == 1:
            return f"|{b}|", ATOM
        exp = str(e.q.numerator) if e.q.denominator == 1 and e.q >= 0 else f"({_frac(e.q)})"
        return f"|{b}|^{exp}", POW
    if isinstance(e, Sign):
        return f"sgn({_ref_text(e.base)[0]})", ATOM
    if isinstance(e, Conj):
        return f"conj({_ref_text(e.arg)[0]})", ATOM
    name = e.sym.name + ("[" + ",".join(map(str, e.didx)) + "]" if any(e.didx) else "")
    if e.sym.arity == 0:
        return name, ATOM
    return f"{name}({', '.join(_ref_text(a)[0] for a in e.args)})", ATOM


def _outcome(f, *args):
    try:
        return f(*args)
    except (ZeroDivisionError, ValueError) as err:
        return type(err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_walks_match_recursive_reference(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    tbl.declare("c", 0, "real")
    e = data.draw(_expr_strategy(tbl, normal_forms=True))
    # a Conj whose argument holds both jet flags, in the argument of another,
    # and an arity-0 symbol
    U = tbl.get("U")
    w = conj_expr(func_app(U, [psi(2) * psi(2, conj=True) + x(1)]))
    w = conj_expr(func_app(U, [w * psi(2) + x(2)]))
    mappings = ({T_VAR: t() + 1}, {x_var(1): x(2) * t(), T_VAR: const(2)},
                {psi_var(2): x(1)}, {x_var(2): func_app(SIN, [t()]), x_var(1): x(1)})
    for u in (e, e * w + func_app(tbl.get("c"), [])):
        nodes = post_order(u)
        assert nodes == _ref_post_order(u) and len(set(nodes)) == len(nodes)
        for v in (T_VAR, x_var(1), x_var(2), psi_var(2), psi_var(2, conj=True)):
            assert diff(u, v) is _ref_diff(u, v, {})
        for m in mappings:
            # a mapped constant can make a base an exact zero: both must raise
            assert _outcome(subst, u, m) is _outcome(_ref_subst, u, m, {})
        assert to_text(u) == _ref_text(u)[0]
        assert conj_expr(u) is _ref_conj(u)


def test_conj_expr_rebuilds_each_shared_sum_once(monkeypatch):
    # each level holds the one below twice, in e*psi and in e^2*psi_1, so a
    # walk without a memo made 2^12 - 1 sum_ calls
    e = psi(2)
    for _ in range(12):
        e = e * psi(2) + e * e * var(jet_var((0, 1, 0))) + const(0, 1)
    sums = sum(type(u) is Sum for u in post_order(e))
    calls = []
    real_sum = expr_module.sum_
    monkeypatch.setattr(expr_module, "sum_", lambda terms: calls.append(1) or real_sum(terms))
    c = conj_expr(e)
    assert sums == 12 and len(calls) <= sums
    monkeypatch.undo()
    assert conj_expr(c) is e and c is _ref_conj(e)


def test_post_order_enter_prunes_subtrees():
    a, b = x(1) + t(), func_app(COS, [t()])
    ab = a * b
    e = ab + int_pow(b, 2)
    # b is reachable outside a*b too, so it is still visited
    got = post_order(e, lambda u: u is not ab)
    assert got == [t(), b, int_pow(b, 2), e] and a not in got and x(1) not in got
    assert post_order(e, lambda u: False) == [] and post_order(x(1)) == [x(1)]


# -- node facts against their recursive definition ---------------------------

def _ref_facts(e):
    """(free_vars, free_symbols) by recursion over the children."""
    vs, syms = set(), set()
    if isinstance(e, Var):
        vs.add(e.vid)
    if isinstance(e, FuncApp):
        syms.add(e.sym)
    for c in e.children():
        cv, cs = _ref_facts(c)
        vs |= cv
        syms |= cs
    return vs, syms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_node_facts_match_recursive_definition(data):
    tbl = SymbolTable()
    tbl.declare("U", 1, "complex")
    tbl.declare("f", 1, "real")
    e = data.draw(_expr_strategy(tbl, normal_forms=True))
    vs, syms = _ref_facts(e)
    assert e.free_vars == vs and e.free_symbols == syms
    assert e.jet_vars == {v for v in vs if v.is_jet}
    assert depends_only_on_t(e) == all(v == T_VAR for v in vs)
    assert has_complex_symbols(e) == any(s.codomain == "complex" for s in syms)
    # each node's masks are the OR of its children's plus its own variable's
    # or symbol's bit, one bit per registered variable or symbol
    for u in post_order(e):
        vmask = smask = 0
        for c in u.children():
            vmask |= c.vmask
            smask |= c.smask
        if isinstance(u, Var):
            bit = expr_module.VARIABLES.bits[u.vid]
            assert bit.bit_count() == 1 and expr_module.VARIABLES.members[bit.bit_length() - 1] == u.vid
            vmask |= bit
        if isinstance(u, FuncApp):
            bit = expr_module.SYMBOLS.bits[u.sym]
            assert bit.bit_count() == 1 and expr_module.SYMBOLS.members[bit.bit_length() - 1] == u.sym
            smask |= bit
        assert (u.vmask, u.smask) == (vmask, smask)


# registers, before any node is built, the bits of t, x1, x2, the psi jets up
# to order 2 and their conjugates, the builtins and the table's symbols in
# the reverse of their order here
_REGISTER_REVERSED = """
import itertools
from schsym import expr
from schsym.cases import table
vids = [expr.T_VAR, expr.x_var(1), expr.x_var(2)] + [
    expr.jet_var(a, c) for a in itertools.product(range(3), repeat=3) if sum(a) <= 2
    for c in (False, True)]
syms = list(expr.BUILTIN_SYMBOLS) + [
    expr.FunctionSymbol(d["name"], int(d["arity"]), d["codomain"])
    for case in table().values() for d in case.declarations]
for v in reversed(vids):
    expr.VARIABLES.bit(v)
for s in reversed(syms):
    expr.SYMBOLS.bit(s)
assert expr.VARIABLES.members[-1] == expr.T_VAR and expr.SYMBOLS.members[-1] == expr.COS
"""
# the CI workflow's verify-table --seed 0, bracket G1 G2 --check and
# transform with TR, and the keys of a witness point over five variables
_BIT_ORDER_RUN = """
from schsym import cli, expr
from schsym.numeric import max_normalized_residual
G1 = '{"tau":"t^2 + 1","kappa":"1","chi":["sin(t)","t*cos(t)"],"sigma":"exp(t)","rho":"t^(1/3)"}'
G2 = '{"tau":"exp(2*t)","kappa":"-2","chi":["cos(t)","t^(3/2)"],"sigma":"sin(t)*t","rho":"cos(t)"}'
TR = ('{"T":"t + 3/10*sin(t)","X":["t","0"],"O":[["3/5","-4/5"],["4/5","3/5"]],'
      '"Sigma":"t^2","Upsilon":"cos(t)"}')
cli.main(["verify-table", "--seed", "0", "--format", "json"])
cli.main(["bracket", G1, G2, "--check", "--format", "json"])
cli.main(["transform", "x1^2 + t*x2", TR, "--format", "json"])
e = (expr.x(2) * expr.var(expr.jet_var((0, 1, 0), True)) + expr.t() * expr.x(1)
     + expr.psi(2))
print(list(max_normalized_residual(e, trials=1, bindings_per_trial=1)[1]["point"]))
"""


def test_bit_order_does_not_reach_output():
    # the plain process and one whose bits run in reverse order, side by side
    procs = [subprocess.Popen([sys.executable, "-c", pre + _BIT_ORDER_RUN],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for pre in ("", _REGISTER_REVERSED)]
    (plain, err), (reordered, err2) = (p.communicate() for p in procs)
    assert [p.returncode for p in procs] == [0, 0], err + err2
    assert reordered == plain
    assert plain.endswith("['psi', 'conj(psi_1)', 't', 'x1', 'x2']\n")


def test_facts_and_evaluation_do_not_recurse_at_depth_2000():
    e = x(1)
    in_t = t()
    for _ in range(2000):
        e = func_app(SIN, [e]) / 2 + x(1)
        in_t = func_app(SIN, [in_t]) / 2 + t()
    assert e.free_vars == {x_var(1)} and e.free_symbols == {SIN} and not e.jet_vars
    want = 0.3
    for _ in range(2000):
        want = math.sin(want) / 2 + 0.3
    got = safe_value(e, EMPTY_BINDING, 0.5, (0.3, 0.0))
    assert got == pytest.approx(want, rel=1e-12)
    rng = np.random.default_rng(0)
    assert not is_zero(e, rng=rng)
    assert is_zero(e - e, rng=rng)
    assert is_zero(int_pow(func_app(SIN, [e]), 2) + int_pow(func_app(COS, [e]), 2) - 1, rng=rng)
    worst, witness = max_normalized_residual(e, rng=rng)
    assert worst > 0.1 and set(witness["point"]) == {"x1"}
    # diff, total_derivative, subst and printing walk with an explicit stack
    d = diff(e, x_var(1))
    assert total_derivative(e, 1) is d and diff(e, T_VAR) is ZERO and diff(d, T_VAR) is ZERO
    dwant, y = 1.0, 0.3
    for _ in range(2000):
        dwant, y = math.cos(y) * dwant / 2 + 1, math.sin(y) / 2 + 0.3
    got = safe_value(d, EMPTY_BINDING, 0.5, (0.3, 0.0))
    assert got == pytest.approx(dwant, rel=1e-12)
    assert subst(e, {x_var(1): t()}) is in_t and subst(in_t, {T_VAR: x(1)}) is e
    text = "x1"
    for _ in range(2000):
        text = f"1/2*sin({text}) + x1"
    assert to_text(e) == text and str(e) == text and parse(text) is e
    # conjugation walks with an explicit stack too
    c = x(1)
    for _ in range(2000):
        c = int_pow(c + const(0, 1), 2) * x(1) / 4
    got = safe_value(c, EMPTY_BINDING, 0.5, (0.3, 0.0))
    assert conj_expr(conj_expr(c)) is c
    assert safe_value(conj_expr(c), EMPTY_BINDING, 0.5, (0.3, 0.0)) == pytest.approx(
        got.conjugate(), rel=1e-12)
    assert safe_value(im_part(c), EMPTY_BINDING, 0.5, (0.3, 0.0)) == pytest.approx(
        got.imag, rel=1e-12)
