"""Randomized evaluation: exactness, the zero test, unsafe-sample handling."""
import numpy as np
import pytest

from schsym.expr import SymbolTable, T_VAR, ZERO, diff, func_app, int_pow, t, var, x
from schsym.funcbank import ExpPoly, ExpPolyImpl
from schsym.numeric import (AntiderivImpl, Binding, EMPTY_BINDING, ExprImpl, InverseImpl,
                            SamplePoint, UnsafeSampleError, draw_env, eval_batch,
                            eval_expr, is_zero, max_normalized_residual)
from schsym.parsing import parse


def test_eval_omega_at_origin_time():
    w1 = parse("x1*cos(t) + x2*sin(t)")
    assert eval_expr(w1, EMPTY_BINDING, SamplePoint(0.0, (3.0, 5.0))) == pytest.approx(3.0)


def test_eval_bound_derivative():
    tbl = SymbolTable()
    f = tbl.declare("f", 1, "real")
    binding = Binding({f: ExpPolyImpl(ExpPoly.cos(2.0))})
    df = diff(func_app(f, [t()]), T_VAR)
    assert eval_expr(df, binding, SamplePoint(0.0, ())) == pytest.approx(0.0)
    assert eval_expr(df, binding, SamplePoint(0.25, ())) == pytest.approx(-2 * np.sin(0.5))


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
    s0 = eval_expr(app, binding, SamplePoint(y0, ())).real
    assert abs(s0 + 0.3 * np.sin(s0) - y0) < 1e-12
    d1 = eval_expr(diff(app, T_VAR), binding, SamplePoint(y0, ())).real
    assert d1 == pytest.approx(1.0 / (1.0 + 0.3 * np.cos(s0)), rel=1e-10)


def test_antideriv_impl_matches_closed_form():
    impl = AntiderivImpl(parse("cos(t)"), EMPTY_BINDING, base_point=1.0)
    z = np.array([0.4, 1.0, 1.6, 2.5], dtype=complex)
    got, _ = impl.deriv((0,), (z,))
    want = np.sin(np.real(z)) - np.sin(1.0)
    assert np.max(np.abs(got - want)) < 1e-12
    # first derivative falls back to the integrand
    got1, _ = impl.deriv((1,), (z,))
    assert np.allclose(got1, np.cos(np.real(z)))


def test_antideriv_impl_value_reports_unsafe_panels():
    # log(t) is unsafe for t <= 0, which lies between the base point 1 and -1
    impl = AntiderivImpl(parse("log(t)"), EMPTY_BINDING)
    _, unsafe = impl.deriv((0,), (np.array([-1.0, 2.0]),))
    assert unsafe.tolist() == [True, False]
    _, unsafe = impl.deriv((0,), (np.array([[0.5, 2.0], [1.0, 3.0]]),))
    assert unsafe.tolist() == [[False, False], [False, False]]


def test_antideriv_impl_reports_integrand_unsafe_points():
    tbl = SymbolTable()
    L = tbl.declare("L", 1, "real")
    binding = Binding({L: AntiderivImpl(parse("log(t)"), EMPTY_BINDING)})
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
    import schsym.numeric as numeric

    calls = []
    orig = numeric.eval_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

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
    assert eval_expr(app, binding, SamplePoint(0.5, ())).real == pytest.approx(np.tan(0.5))
    with pytest.raises(UnsafeSampleError):
        eval_expr(app, binding, SamplePoint(2.0, ()))


def test_inverse_impl_reuses_solve_across_orders(monkeypatch):
    impl = InverseImpl(parse("t + 3/10*sin(t)"), EMPTY_BINDING)
    y = np.random.default_rng(6).uniform(-3.0, 3.0, 100)
    calls = _counting_eval_batch(monkeypatch)
    impl.deriv((0,), (y,))
    assert len(calls) <= 20
    for k in range(1, 4):
        del calls[:]
        impl.deriv((k,), (y,))
        assert len(calls) <= k + 1
    del calls[:]
    assert not impl.deriv((0,), (y,))[1].any()
    assert not calls


def test_inverse_impl_unsafe_mask_follows_its_args():
    impl = InverseImpl(parse("atan(t)"), EMPTY_BINDING)
    y1 = np.array([2.0, 0.5])
    y2 = np.array([0.5, 0.7])
    impl.deriv((0,), (y1,))
    impl.deriv((0,), (y2,))
    assert impl.deriv((0,), (y1,))[1].tolist() == [True, False]
    assert impl.deriv((0,), (y2,))[1].tolist() == [False, False]
