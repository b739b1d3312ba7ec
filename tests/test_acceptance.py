"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every tolerance is pinned here, from the contract:
  1. classification table: 20 cases x >=5 draws x >=100 points, 1e-8, < 60 s
  2. bracket oracle: >=50 pairs + Jacobi on >=20 triples, 1e-8, < 10 s
  3. prolongation oracle: >=50 pairs incl. >=10 non-symmetries
  4. groupoid laws on >=20 transformation pairs at 1e-8; equivariance on >=20
  5. all five equivalence-algebra families, FD relative tolerance 1e-4
  6. dimension facts: case-19 dim 10; tuple constraints; (P,M,I)-block <= 6
  7. real subclass: >=10 fixtures keep Im V = 0 under real-admissible maps
  8. groupoid fixtures reproduce the documented truth table, < 5 s
"""
import time
from fractions import Fraction

import numpy as np

from schsym.cases import instantiate, table, verify_table
from schsym.closedform import exppoly_to_expr
from schsym.conditions import Potential, classifying_residual, invariants, prolonged_residual
from schsym.equivalence import (AdmissibleTransformation, EquivTransformation,
                                act_on_potential, compose, equiv_generator_check,
                                invert, potentials_agree, pushforward,
                                rational_rotation)
from schsym.expr import LOG, SymbolTable, T_VAR, ZERO, const, diff, func_app, im_part, t, var, x
from schsym.fields import (D, GeneratorCoeffs, Iop, J, M, P, bracket_generic,
                           bracket_structural, expand)
from schsym.funcbank import random_surrogate, random_trig_poly
from schsym.groupoid import FIXTURE_TRUTH_TABLE, load_fixture, run_all_checks
from schsym.numeric import Workspace, is_zero
from schsym.parsing import parse
from test_equivalence import standard_equiv_generators

TOL = 1e-8


def report(num, name, passed, extra=""):
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] criterion {num}: {name}{' - ' + extra if extra else ''}")
    assert passed, f"criterion {num} ({name}) failed: {extra}"


def _random_generator(rng, with_kappa=True):
    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real"))

    kap = Fraction(int(rng.integers(-2, 3)), 3) if with_kappa else Fraction(0)
    return GeneratorCoeffs(2, fn(), (kap,), (fn(), fn()), fn(), fn(), None)


def test_criterion_1_classification_table():
    start = time.time()
    rep = verify_table(draws=5, seed=0, points=100, zero_trials=1, tol=TOL)
    elapsed = time.time() - start
    all_pass = rep["passed"] and len(rep["cases"]) == 20
    report(1, "classification table, 20 cases x 5 draws x 100 points",
           all_pass and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_2_bracket_oracle():
    start = time.time()
    rng = np.random.default_rng(100)
    check_rng = np.random.default_rng(101)
    pairs_ok = 0
    for _ in range(50):
        g1 = _random_generator(rng)
        g2 = _random_generator(rng)
        dvf = expand(bracket_structural(g1, g2)).sub(
            bracket_generic(expand(g1), expand(g2)))
        if all(is_zero(c, trials=1, points=40, tol=TOL, rng=check_rng)
               for c in dvf.components()):
            pairs_ok += 1
    jacobi_ok = 0
    for _ in range(20):
        g1, g2, g3 = (_random_generator(rng) for _ in range(3))
        total = bracket_structural(g1, bracket_structural(g2, g3)) \
            .add(bracket_structural(g2, bracket_structural(g3, g1))) \
            .add(bracket_structural(g3, bracket_structural(g1, g2)))
        f = expand(total)
        if all(is_zero(c, trials=1, points=40, tol=TOL, rng=check_rng)
               for c in f.components()):
            jacobi_ok += 1
    elapsed = time.time() - start
    report(2, "structural vs generic bracket + Jacobi",
           pairs_ok == 50 and jacobi_ok == 20 and elapsed < 10.0,
           f"{pairs_ok}/50 pairs, {jacobi_ok}/20 triples, {elapsed:.1f}s")


def test_criterion_3_prolongation_oracle():
    rng = np.random.default_rng(200)
    agree = 0
    total = 0
    nonsym_rejected = 0
    nonsym_total = 0
    # symmetric pairs from the classification table
    for cid in range(20):
        inst = instantiate(table()[cid], rng)
        for g in inst.generators[:2]:
            seed = int(rng.integers(0, 2 ** 31))
            c_zero = is_zero(classifying_residual(inst.V, g), trials=1, points=50,
                             tol=TOL, binding=inst.workspace.binding,
                             rng=np.random.default_rng(seed))
            p_zero = is_zero(prolonged_residual(inst.V, expand(g)), trials=1,
                             points=50, tol=TOL, binding=inst.workspace.binding,
                             rng=np.random.default_rng(seed))
            total += 1
            agree += (c_zero == p_zero == True)
    # deliberate non-symmetries: random fields against a generic potential
    tbl = SymbolTable()
    W = tbl.declare("Wgen", 3, "complex")
    V = Potential(func_app(W, [t(), x(1), x(2)]), 2)
    for k in range(12):
        g = _random_generator(np.random.default_rng(300 + k))
        seed = 400 + k
        c_zero = is_zero(classifying_residual(V, g), trials=1, points=50, tol=TOL,
                         rng=np.random.default_rng(seed))
        p_zero = is_zero(prolonged_residual(V, expand(g)), trials=1, points=50,
                         tol=TOL, rng=np.random.default_rng(seed))
        nonsym_total += 1
        nonsym_rejected += (c_zero == p_zero == False)
    report(3, "prolongation oracle agrees with the classifying condition",
           total + nonsym_total >= 50 and agree == total
           and nonsym_total >= 10 and nonsym_rejected == nonsym_total,
           f"{agree}/{total} symmetric pairs, {nonsym_rejected}/{nonsym_total} rejections")


def _random_transform(rng, ws):
    # slope of the trig perturbation is at most 6x its amplitude, so 0.08
    # keeps T_t >= 0.52 on the whole line
    T = var(T_VAR) + exppoly_to_expr(random_trig_poly(rng, "real").scale(0.08))
    O = rational_rotation(Fraction(int(rng.integers(-3, 4)), 7))

    def fn(amp=0.3):
        return exppoly_to_expr(random_trig_poly(rng, "real").scale(amp))

    return EquivTransformation(2, T, O, (fn(), fn()), fn(), fn(), binding=ws.binding)


def test_criterion_4_groupoid_laws_and_equivariance():
    rng = np.random.default_rng(500)
    ws = Workspace()
    tbl = SymbolTable()
    W = tbl.declare("Wq", 3, "complex")
    laws_ok = 0
    for k in range(20):
        ws_k = Workspace()
        sym = ws_k.declare(f"Wq{k}", 3, "complex",
                           random_surrogate(rng, 3, "complex"))
        V = Potential(func_app(sym, [t(), x(1), x(2)]), 2, ws_k.binding)
        tr1 = _random_transform(rng, ws_k)
        tr2 = _random_transform(rng, ws_k)
        try:
            a1 = AdmissibleTransformation.create(V, tr1)
            a2 = AdmissibleTransformation.create(a1.target, tr2)
            comp = compose(a1, a2, validate=True, rng=rng, tol=TOL)
            lhs = act_on_potential(V, comp.map)
            if not potentials_agree(lhs, a2.target, rng=rng, tol=1e-7):
                continue
            inv1 = invert(a1, validate=True, rng=rng, tol=TOL)
            back = act_on_potential(a1.target, inv1.map)
            if not potentials_agree(back, V, rng=rng, tol=1e-7):
                continue
            ident = act_on_potential(V, EquivTransformation.identity(2))
            if not potentials_agree(ident, V, rng=rng, tol=TOL):
                continue
            laws_ok += 1
        except ValueError:
            continue
    # pushforward equivariance on >= 20 fixtures
    tbl2 = SymbolTable()
    Uc = tbl2.declare("Ui", 0, "complex")
    V7 = Potential(func_app(Uc, []) * parse("(x1^2+x2^2)^(-1)", tbl2), 2)
    tv = var(T_VAR)
    gens = [D(1), D(tv), D(tv * tv).add(Iop(-tv, 2)), J(1, 2)]
    small = lambda: exppoly_to_expr(random_trig_poly(rng, "real").scale(0.2))
    trs = [EquivTransformation.elementary_D(parse("4*t"), 2),
           EquivTransformation.elementary_D(var(T_VAR) + exppoly_to_expr(random_trig_poly(rng, "real").scale(0.08)), 2),
           EquivTransformation.elementary_J(rational_rotation(Fraction(2, 5)), 2),
           EquivTransformation.elementary_P((small(), small()), 2),
           EquivTransformation.elementary_M(small(), 2),
           EquivTransformation.elementary_I(small(), 2)]
    equi_ok = 0
    equi_total = 0
    for g in gens:
        for tr in trs:
            Vt = act_on_potential(V7, tr)
            gt = pushforward(g, tr)
            equi_total += 1
            if is_zero(classifying_residual(Vt, gt), trials=1, points=50,
                       tol=TOL, binding=Vt.binding, rng=rng):
                equi_ok += 1
    report(4, "groupoid laws and pushforward equivariance",
           laws_ok == 20 and equi_total >= 20 and equi_ok == equi_total,
           f"{laws_ok}/20 transformation pairs, {equi_ok}/{equi_total} equivariance fixtures")


def test_criterion_5_equivalence_algebra():
    rng = np.random.default_rng(600)
    ok = []
    for seed in (1, 2):
        ws = Workspace()
        sym = ws.declare(f"Ue{seed}", 3, "complex",
                         random_surrogate(np.random.default_rng(seed), 3, "complex"))
        V = Potential(func_app(sym, [t(), x(1), x(2)]), 2, ws.binding)
        for family, g in standard_equiv_generators(rng):
            ok.append((family, equiv_generator_check(g, V, rng=rng, tol=1e-4)))
    passed = all(flag for _, flag in ok)
    report(5, "equivalence-algebra generators vs finite differences", passed,
           ", ".join(f"{k}:{'ok' if f else 'BAD'}" for k, f in ok))


def test_criterion_6_dimension_facts():
    tab = table()
    tv = var(T_VAR)
    gens19 = [M(1), Iop(1), P(1, 0), P(tv, 0), P(0, 1), P(0, tv), J(1, 2),
              D(1), D(tv), D(tv * tv).add(Iop(-tv, 2))]
    tup19 = invariants(gens19, rng=np.random.default_rng(0))
    dim_ok = tup19.dim == 10 == 2 * (2 + 3) // 2 + 5
    constraints_ok = all(not tab[cid].expected.constraint_violations(2) for cid in tab)
    block_ok = all(tab[cid].expected.k0 + tab[cid].expected.k1 <= 6 for cid in tab)
    report(6, "dimension facts (top dim 10, tuple constraints, shift block <= 6)",
           dim_ok and constraints_ok and block_ok,
           f"case-19 tuple {tuple(tup19)}")


def test_criterion_7_real_subclass():
    rng = np.random.default_rng(700)
    ok = 0
    for k in range(10):
        ws = Workspace()
        sym = ws.declare(f"R{k}", 3, "real", random_surrogate(rng, 3, "real"))
        V = Potential(func_app(sym, [t(), x(1), x(2)]), 2, ws.binding)
        T = var(T_VAR) + exppoly_to_expr(random_trig_poly(rng, "real").scale(0.08))
        Tt = diff(T, T_VAR)
        # Upsilon with Upsilon_t = -(n/4) T_tt / T_t, n = 2: -(1/2) log T_t
        ups = const(Fraction(-1, 2)) * func_app(LOG, [Tt])
        tr = EquivTransformation(2, T, ((Fraction(1), Fraction(0)),
                                        (Fraction(0), Fraction(1))),
                                 (ZERO, ZERO), ZERO, ups, binding=ws.binding)
        from schsym.equivalence import is_real_admissible

        if not is_real_admissible(tr, 2, rng=rng, tol=TOL):
            continue
        Vt = act_on_potential(V, tr)
        if is_zero(im_part(Vt.expr), trials=2, points=60, tol=TOL,
                   binding=Vt.binding, rng=rng):
            ok += 1
    report(7, "real potentials stay real under real-admissible maps",
           ok == 10, f"{ok}/10 fixtures")


def test_criterion_8_groupoid_fixtures():
    start = time.time()
    results = {}
    for name in FIXTURE_TRUTH_TABLE:
        results[name] = run_all_checks(load_fixture(name))
    elapsed = time.time() - start
    report(8, "finite groupoid fixtures reproduce the documented truth table",
           results == FIXTURE_TRUTH_TABLE and elapsed < 5.0,
           f"{elapsed:.2f}s")
