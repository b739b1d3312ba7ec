"""Case table integrity and per-case verification."""
import json

import numpy as np
import pytest

from schsym import cases, expr, numeric
from schsym.cases import (UnknownCaseError, instantiate, parse_template, table, verify_case,
                          verify_table)
from schsym.conditions import (Potential, SpanError, classifying_residual, sample_rows,
                               span_invariants)
from schsym.expr import T_VAR, ZERO, FunctionSymbol, diff, func_app, inline, var
from schsym.funcbank import ExpPoly, ExpPolyImpl, StackedImpl, random_trig_poly
from schsym.numeric import is_zero, max_normalized_residual
from schsym.parsing import parse


def test_table_loads_all_twenty():
    tab = table()
    assert sorted(tab) == list(range(20))
    for case in tab.values():
        assert len(case.generators) == case.expected.dim
        assert case.expected.constraint_violations(case.n) == []


def test_expected_tuples_cover_all_observed_patterns():
    tab = table()
    dims = {cid: tab[cid].expected.dim for cid in tab}
    assert dims[19] == 10
    assert dims[0] == 2
    assert max(tab[cid].expected.k0 + tab[cid].expected.k1 for cid in tab) == 6


@pytest.mark.parametrize("cid", [0, 3, 7, 9, 13, 16, 18])
def test_single_cases_verify(cid):
    rep = verify_case(cid, draws=2, rng=np.random.default_rng([9, cid]), points=60)
    assert rep["passed"], rep


def test_unknown_case():
    with pytest.raises(UnknownCaseError):
        verify_case(99)


def test_reverse_instantiation_satisfies_ode_relations():
    # case 16: each chi tuple solves chi'' = h chi and rho' = -h0 . chi, in
    # the definitions the template inlines, under one draw's binding of
    # their numbers
    case = table()[16]
    rng = np.random.default_rng(55)
    inst = instantiate(case, rng)
    ws = inst.workspace
    defs = cases.case16_definitions(ws.table)
    # every number is the draw's own: no symbol is left to a surrogate
    assert all(s in ws.binding for e in defs.values() for s in e.free_symbols)

    def f(name):
        return defs[ws.table.get(name)]

    h = {name: f(name) for name in ("h11", "h12", "h22", "h01", "h02")}
    for p in range(1, 5):
        c1, c2, r = f(f"c{p}1"), f(f"c{p}2"), f(f"r{p}")
        ode1 = diff(diff(c1, T_VAR), T_VAR) - h["h11"] * c1 - h["h12"] * c2
        ode2 = diff(diff(c2, T_VAR), T_VAR) - h["h12"] * c1 - h["h22"] * c2
        rho_rel = diff(r, T_VAR) + h["h01"] * c1 + h["h02"] * c2
        for e in (ode1, ode2, rho_rel):
            assert is_zero(e, trials=2, points=40, binding=ws.binding,
                           rng=np.random.default_rng(66))


def test_case16_passes_where_the_rotation_is_the_identity():
    # the substream's first draw has m = 0: the rotation's off-diagonal
    # number is bound to 0.0, where exact zeros once folded those terms away
    inst = instantiate(table()[16], np.random.default_rng([38, 1016]))
    assert inst.workspace.binding.lookup(inst.workspace.table.get("qs")).value == 0
    rep = verify_case(16, rng=np.random.default_rng([38, 1016]))
    assert rep["passed"], rep


def test_case16_wrong_definition_fails_the_residuals(monkeypatch):
    # r1 with its sign flipped: the inlined residuals must catch it, in the
    # one generator whose rho it is
    define = cases.case16_definitions

    def flipped(tab):
        defs = define(tab)
        r1 = tab.get("r1")
        defs[r1] = -defs[r1]
        return defs

    monkeypatch.setattr(cases, "case16_definitions", flipped)
    rep = verify_case(16, draws=2, rng=np.random.default_rng(16))
    assert not rep["residuals"]["passed"]
    assert {f["generator"] for f in rep["residuals"]["failures"]} == {2}


def test_case10_generator_sign_is_forced():
    # rho1 = +2 beta t |t|^(-3/2) is forced; the flipped sign must be rejected
    case = table()[10]
    rng = np.random.default_rng(77)
    inst = instantiate(case, rng)
    good = inst.generators[2]
    res = classifying_residual(inst.V, good)
    assert is_zero(res, binding=inst.workspace.binding, rng=np.random.default_rng(1))
    flipped = good.scale(1)
    flipped = type(good)(good.n, good.tau, good.kappa, good.chi,
                         good.sigma, -1 * good.rho, None)
    res_bad = classifying_residual(inst.V, flipped)
    assert not is_zero(res_bad, binding=inst.workspace.binding,
                       rng=np.random.default_rng(1))


def test_verify_table_smoke():
    rep = verify_table(draws=1, seed=4, points=50, case_ids=[0, 5, 12, 19])
    assert rep["passed"]
    assert [r["case"] for r in rep["cases"]] == [0, 5, 12, 19]


def test_verify_table_rejects_empty_case_list():
    # an empty list used to verify nothing and pass
    with pytest.raises(ValueError, match="case_ids is empty"):
        verify_table(case_ids=[])


def test_verify_table_deterministic():
    r1 = verify_table(draws=1, seed=6, points=40, case_ids=[2, 14])
    r2 = verify_table(draws=1, seed=6, points=40, case_ids=[2, 14])
    assert r1 == r2


def test_strict_tolerance_reports_witness():
    rep = verify_case(2, draws=1, rng=np.random.default_rng(3), points=40, tol=1e-30)
    assert not rep["passed"]
    assert rep["residuals"]["failures"]
    wit = rep["residuals"]["failures"][0]["witness"]
    assert "point" in wit and wit["point"]


@pytest.mark.parametrize("seed", [11, 12])
def test_template_nodes_are_a_fresh_parse_in_each_draw(seed):
    # the assumption behind parsing once per case: a parse in a draw's own
    # workspace gives the very nodes of the template; case 16's parse has
    # its builder's definitions inlined, built in that workspace
    for cid, case in table().items():
        template = parse_template(case)
        inst = instantiate(case, np.random.default_rng([seed, cid]), template)
        tab = inst.workspace.table
        defs = cases.case16_definitions(tab) if cid == 16 else {}

        def fresh(text):
            return inline(parse(text, tab, case.n), defs)

        assert inst.V.expr is template.potential is fresh(case.potential)
        for g, gt, spec in zip(inst.generators, template.generators, case.generators):
            assert g.tau is fresh(spec.get("tau", "0"))
            assert g.sigma is fresh(spec.get("sigma", "0"))
            assert g.rho is fresh(spec.get("rho", "0"))
            chi = spec.get("chi", ["0"] * case.n)
            assert len(g.chi) == len(chi)
            assert all(c is fresh(text) for c, text in zip(g.chi, chi))
            assert g is gt
            assert len(g.kappa) == 1 and g.kappa[0] is fresh(spec.get("kappa", "0"))


def test_case8_builder_binds_h_as_an_antiderivative_of_t_times_g_prime():
    # H' = t G' in closed form, for the exponential polynomial G of the draw;
    # H's derivative is t G' to rounding, as integration divides
    inst = instantiate(table()[8], np.random.default_rng(8))
    binding, tab = inst.workspace.binding, inst.workspace.table
    g = binding.lookup(tab.get("G")).func
    h = binding.lookup(tab.get("H")).func
    integrand = ExpPoly.identity() * g.derivative()
    assert h.terms == integrand.antiderivative().terms
    dh = h.derivative().terms
    assert list(dh) == list(integrand.terms)
    for lam, coeffs in integrand.terms.items():
        assert dh[lam] == pytest.approx(coeffs, rel=1e-15, abs=1e-15)


def _counting(monkeypatch, name):
    seen = []
    real = getattr(cases, name)

    def wrapper(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cases, name, wrapper)
    return seen


@pytest.mark.parametrize("cid", [3, 8])
def test_parse_calls_do_not_depend_on_draws(monkeypatch, cid):
    calls = _counting(monkeypatch, "parse")
    counts = []
    for draws in (1, 3):
        calls.clear()
        verify_case(cid, draws=draws, rng=np.random.default_rng(cid), points=30)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_residual_built_once_per_generator(monkeypatch):
    # case 3's fourth generator has kappa = beta, a symbol that every draw
    # binds afresh: its residual is built once, over beta, like the others
    built = _counting(monkeypatch, "classifying_residual")
    for cid in (2, 3):
        for draws in (1, 3):
            built.clear()
            rep = verify_case(cid, draws=draws, rng=np.random.default_rng(cid), points=30)
            assert rep["passed"]
            assert len(built) == len(table()[cid].generators)
    beta = func_app(FunctionSymbol("beta", 0, "real"), [])
    assert [g.kappa for _, g in built] == [(ZERO,)] * 3 + [(beta,)]


def test_verify_table_case3_interns_no_node_after_the_first_run():
    # the residuals and coefficient tuples are built over beta, so later
    # draws and seeds only bind numbers
    verify_table(case_ids=[3], seed=0)
    n = len(expr._INTERN)
    for seed in range(1, 6):
        assert verify_table(case_ids=[3], seed=seed)["passed"]
    assert len(expr._INTERN) == n


def test_side_conditions_checked_when_closure_fails(monkeypatch):
    def no_span(samples, tol):
        return [SpanError("span is not closed")] * len(samples)

    monkeypatch.setattr(cases, "span_invariants", no_span)
    rep = verify_case(3, draws=1, rng=np.random.default_rng(3), points=30)
    assert not rep["closure"]["passed"]
    checked = [c for c in rep["side_conditions"] if c["kind"] == "nonzero_slot_deriv"]
    assert checked == [{"kind": "nonzero_slot_deriv", "symbol": "U",
                        "checked": True, "passed": True}]


def _ref_verify_case(case_id, draws, rng, points, zero_trials, tol):
    """verify_case as each draw was zero-tested and sampled in turn, with
    no stacked run: the reference for the stacked draws."""
    case = table()[case_id]
    report = {
        "case": case.id, "label": case.label, "potential": case.potential,
        "expected_invariants": list(case.expected), "draws": draws,
        "residuals": {"passed": True, "failures": []},
        "closure": {"passed": True, "failures": []},
        "invariants": {"passed": True, "failures": []},
        "constraints": {"passed": True, "violations": []},
        "side_conditions": [],
    }
    template = parse_template(case)
    V = Potential(template.potential, case.n)
    residuals = tuple(classifying_residual(V, g) for g in template.generators)
    tapes = {}
    sampled = []
    for draw in range(draws):
        inst = instantiate(case, rng, template)
        tested = max_normalized_residual(
            residuals, binding=inst.workspace.binding, trials=zero_trials,
            points=points, rng=rng, tapes=tapes)
        for gi, (worst, witness) in enumerate(tested):
            if worst >= tol:
                report["residuals"]["passed"] = False
                report["residuals"]["failures"].append(
                    {"draw": draw, "generator": gi, "max_residual": worst,
                     "witness": cases.json_witness(witness)})
        if draw == 0:
            report["side_conditions"] = cases._check_side_conditions(case, inst)
        sampled.append(sample_rows(inst.generators, inst.workspace.binding, rng, tapes))
    for draw, tup in enumerate(span_invariants(sampled, tol)):
        if isinstance(tup, SpanError):
            report["closure"]["passed"] = False
            report["closure"]["failures"].append({"draw": draw, "error": str(tup)})
            continue
        if tuple(tup) != tuple(case.expected):
            report["invariants"]["passed"] = False
            report["invariants"]["failures"].append(
                {"draw": draw, "got": list(tup), "expected": list(case.expected)})
        bad = tup.constraint_violations(case.n)
        if bad:
            report["constraints"]["passed"] = False
            report["constraints"]["violations"].append({"draw": draw, "violations": bad})
    side_ok = all(c.get("passed", True) for c in report["side_conditions"])
    report["passed"] = (report["residuals"]["passed"] and report["closure"]["passed"]
                        and report["invariants"]["passed"]
                        and report["constraints"]["passed"] and side_ok)
    return report


def _both(cid, seed, **kw):
    """verify_case and its reference from equal streams: each one's JSON
    report, or its exception's type and message, and its final rng state."""
    out = []
    for verify in (verify_case, _ref_verify_case):
        rng = np.random.default_rng([seed, cid])
        try:
            got = json.dumps(verify(cid, rng=rng, **kw))
        except Exception as exc:  # compared with the reference's
            got = f"{type(exc).__name__}: {exc}"
        out.append((got, rng.bit_generator.state))
    return out


def test_stacked_draws_give_the_reference_report_bytes(monkeypatch):
    # every residual float and witness point is in a report at tol 1e-30;
    # at 400 points and 2 trials a draw, the buffer cap cuts the groups
    groups = _counting(monkeypatch, "_draw_group")
    redrawn = _counting(monkeypatch, "_draw")
    for cid in sorted(table()):
        new, ref = _both(cid, 5, draws=7, points=400, zero_trials=2, tol=1e-30)
        assert new == ref, cid
    sizes = [count for _, count in groups]
    assert max(sizes) > 1 and sum(sizes) == 7 * len(table()) < len(sizes) * 7
    assert not redrawn


@pytest.mark.parametrize("eps", [0.05, 1.0, 3.0])
def test_unsafe_points_redraw_the_group_as_the_reference(monkeypatch, eps):
    # a wide unsafe cut makes draws redraw points (0.05), a coefficient
    # sample raise (1.0, case 10) or the zero test give up (3.0): the group
    # is then drawn again, one draw at a time, from its first state
    monkeypatch.setattr(numeric, "EPS_UNSAFE", eps)
    redrawn = _counting(monkeypatch, "_draw")
    raised = 0
    for cid in sorted(table()):
        new, ref = _both(cid, 1, draws=5, points=100, zero_trials=1, tol=1e-30)
        assert new == ref, cid
        raised += "UnsafeSampleError" in new[0]
    assert redrawn
    assert (raised > 0) == (eps > 0.05)


def _exppoly_impls(rng, count):
    return [ExpPolyImpl(random_trig_poly(rng, "complex")) for _ in range(count)]


@pytest.mark.parametrize("order", range(4))
def test_stacked_exppoly_values_are_each_impls_bits(monkeypatch, order):
    # equal term shapes make one evaluation with per-point coefficients;
    # unequal ones call each block's impl on its own points
    rng = np.random.default_rng(order)
    size = 7
    z = rng.uniform(-2, 2, size=4 * size) + 1j * rng.uniform(-1, 1, size=4 * size)
    same = _exppoly_impls(rng, 4)
    mixed = same[:2] + [ExpPolyImpl(ExpPoly.exp(0.5)),
                        ExpPolyImpl(ExpPoly.identity() * random_trig_poly(rng))]
    calls = _counting_method(monkeypatch, ExpPolyImpl, "deriv")
    for impls, per_block in ((same, 0), (mixed, 4)):
        calls.clear()
        got, mask = StackedImpl(impls, size).deriv((order,), (z,))
        assert len(calls) == per_block
        ref = np.concatenate([f.derivative(order)(z[b * size:(b + 1) * size])
                              for b, f in enumerate(impls)])
        assert mask is None
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _counting_method(monkeypatch, cls, name):
    seen = []
    real = getattr(cls, name)

    def wrapper(self, *args):
        seen.append(args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return seen
