"""The benchmark's workloads: one pass of each, built from a seed.

A pass is a list of checks.  A check is a zero-argument callable that runs
one unit of work through schsym's public API and returns
``(verdict, output)``; the verdict is compared with the check's expected
value and the outputs of a pass are hashed, so every repeat of a pass must
give a byte-identical hash.  Checks of one pass draw from shared random
streams and must run in order.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
import traceback
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from schsym import expr
from schsym.cases import table, verify_table
from schsym.closedform import exppoly_to_expr
from schsym.conditions import Potential, classifying_residual, lemma_fixtures
from schsym.equivalence import (AdmissibleTransformation, EquivTransformation,
                                act_on_potential, compose, invert,
                                potentials_agree, pushforward, rational_rotation)
from schsym.expr import SymbolTable, T_VAR, func_app, t, var, x
from schsym.fields import (D, GeneratorCoeffs, Iop, J, bracket_generic,
                           bracket_structural, expand)
from schsym.funcbank import random_surrogate, random_trig_poly
from schsym.numeric import Workspace, is_zero
from schsym.parsing import parse
from hostspeed import reference_loop
from tracer import EXPR_CONSTRUCTORS, Tracer

TOL = 1e-8


class Check(NamedTuple):
    kind: str
    expected: bool
    run: Callable[[], tuple[bool, object]]


# -- table: the command users run ------------------------------------------

def table_pass(seed: int) -> list[Check]:
    """``verify_table`` over all 20 cases at its defaults, one check per case.

    Cases use independent seed substreams, so verifying them one at a time
    gives the same per-case reports as one whole-table call.
    """
    def case(cid):
        def run():
            rep = verify_table(seed=seed, case_ids=[cid])
            return rep["passed"], rep
        return run

    return [Check("case", True, case(cid)) for cid in sorted(table())]


# -- brackets: build each DAG once, evaluate it once -----------------------

BRACKET_PAIRS = 10
BRACKET_SWAPPED = 2
JACOBI_TRIPLES = 6
BRACKET_POINTS = 40


def _random_generator(rng) -> GeneratorCoeffs:
    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real"))

    kap = Fraction(int(rng.integers(-2, 3)), 3)
    return GeneratorCoeffs(2, fn(), (kap,), (fn(), fn()), fn(), fn(), None)


def brackets_pass(seed: int) -> list[Check]:
    """Criterion-2 oracle at one fifth of its size.

    Structural against generic brackets of random generators, Jacobi sums of
    random triples, and swapped-order pairs as negative controls (their
    difference is twice the bracket, which is not zero).
    """
    rng = np.random.default_rng([seed, 1])
    check_rng = np.random.default_rng([seed, 2])

    def zero(f) -> bool:
        return all(is_zero(c, trials=1, points=BRACKET_POINTS, tol=TOL, rng=check_rng)
                   for c in f.components())

    def pair(swapped):
        def run():
            g1, g2 = _random_generator(rng), _random_generator(rng)
            a, b = (g2, g1) if swapped else (g1, g2)
            ok = zero(expand(bracket_structural(g1, g2)).sub(
                bracket_generic(expand(a), expand(b))))
            return ok, ok
        return run

    def jacobi():
        g1, g2, g3 = (_random_generator(rng) for _ in range(3))
        total = bracket_structural(g1, bracket_structural(g2, g3)) \
            .add(bracket_structural(g2, bracket_structural(g3, g1))) \
            .add(bracket_structural(g3, bracket_structural(g1, g2)))
        ok = zero(expand(total))
        return ok, ok

    checks = [Check("pair", True, pair(False)) for _ in range(BRACKET_PAIRS)]
    checks += [Check("swapped_pair", False, pair(True)) for _ in range(BRACKET_SWAPPED)]
    checks += [Check("jacobi", True, jacobi) for _ in range(JACOBI_TRIPLES)]
    return checks


# -- transforms: build each DAG once, evaluate it many times ---------------

TRANSFORM_PAIRS = 2


def _random_transform(rng, ws: Workspace) -> EquivTransformation:
    # the trig perturbation's slope is at most 6x its amplitude, so 0.08
    # keeps T_t >= 0.52 on the whole line
    T = var(T_VAR) + exppoly_to_expr(random_trig_poly(rng, "real").scale(0.08))
    O = rational_rotation(Fraction(int(rng.integers(-3, 4)), 7))

    def fn():
        return exppoly_to_expr(random_trig_poly(rng, "real").scale(0.3))

    return EquivTransformation(2, T, O, (fn(), fn()), fn(), fn(), binding=ws.binding)


def _pair_laws(rng, k: int) -> list[Check]:
    """Composition, inversion and identity laws on one random pair.

    The checks share the pair, which the composition check draws.
    """
    st: dict = {}

    def composition():
        ws = Workspace()
        sym = ws.declare(f"Wq{k}", 3, "complex", random_surrogate(rng, 3, "complex"))
        V = Potential(func_app(sym, [t(), x(1), x(2)]), 2, ws.binding)
        a1 = AdmissibleTransformation.create(V, _random_transform(rng, ws))
        a2 = AdmissibleTransformation.create(a1.target, _random_transform(rng, ws))
        comp = compose(a1, a2, validate=True, rng=rng, tol=TOL)
        lhs = act_on_potential(V, comp.map)
        st.update(V=V, a1=a1, lhs=lhs)
        ok = potentials_agree(lhs, a2.target, rng=rng, tol=1e-7)
        return ok, ok

    def inversion():
        a1 = st["a1"]
        inv1 = invert(a1, validate=True, rng=rng, tol=TOL)
        back = act_on_potential(a1.target, inv1.map)
        ok = potentials_agree(back, st["V"], rng=rng, tol=1e-7)
        return ok, ok

    def identity():
        V = st["V"]
        ok = potentials_agree(act_on_potential(V, EquivTransformation.identity(2)), V,
                              rng=rng, tol=TOL)
        return ok, ok

    def wrong_target():
        ok = potentials_agree(st["lhs"], st["V"], rng=rng, tol=1e-7)
        return ok, ok

    checks = [Check("compose_law", True, composition),
              Check("invert_law", True, inversion),
              Check("identity_law", True, identity)]
    if k == 0:
        checks.append(Check("wrong_target", False, wrong_target))
    return checks


def _equivariance(rng) -> list[Check]:
    """Pushforward equivariance fixtures of criterion 4: 4 generators x 6 maps."""
    tbl = SymbolTable()
    Uc = tbl.declare("Ui", 0, "complex")
    V7 = Potential(func_app(Uc, []) * parse("(x1^2+x2^2)^(-1)", tbl), 2)
    tv = var(T_VAR)
    gens = [D(1), D(tv), D(tv * tv).add(Iop(-tv, 2)), J(1, 2)]

    def small():
        return exppoly_to_expr(random_trig_poly(rng, "real").scale(0.2))

    trs = [EquivTransformation.elementary_D(parse("4*t"), 2),
           EquivTransformation.elementary_D(
               tv + exppoly_to_expr(random_trig_poly(rng, "real").scale(0.08)), 2),
           EquivTransformation.elementary_J(rational_rotation(Fraction(2, 5)), 2),
           EquivTransformation.elementary_P((small(), small()), 2),
           EquivTransformation.elementary_M(small(), 2),
           EquivTransformation.elementary_I(small(), 2)]

    def fixture(g, tr):
        def run():
            Vt = act_on_potential(V7, tr)
            ok = is_zero(classifying_residual(Vt, pushforward(g, tr)), trials=1,
                         points=50, tol=TOL, binding=Vt.binding, rng=rng)
            return ok, ok
        return run

    return [Check("equivariance", True, fixture(g, tr)) for g in gens for tr in trs]


def transforms_pass(seed: int) -> list[Check]:
    """Criterion-4 laws on two random pairs, its equivariance fixtures, and
    one run of ``lemma_fixtures`` (the only caller of antiderivative
    quadrature)."""
    rng = np.random.default_rng([seed, 3])
    checks = []
    for k in range(TRANSFORM_PAIRS):
        checks += _pair_laws(rng, k)
    checks += _equivariance(np.random.default_rng([seed, 4]))

    def lemmas():
        rep = lemma_fixtures(np.random.default_rng([seed, 5]), tol=TOL)
        return rep["passed"], rep
    checks.append(Check("lemma_fixtures", True, lemmas))
    return checks


PASSES: dict[str, Callable[[int], list[Check]]] = {
    "table": table_pass,
    "brackets": brackets_pass,
    "transforms": transforms_pass,
}


def pass_seed(seed: int, workload: str, index: int) -> int:
    """Seed of pass ``index``: a function of the workload seed only."""
    key = sorted(PASSES).index(workload)
    return int(np.random.SeedSequence([seed, key, index]).generate_state(1)[0])


def run_pass(workload: str, seed: int, index: int, trace: bool = False) -> dict:
    """Run pass ``index``, timing each check and hashing what the checks return.

    ``checks`` holds ``[seconds, verdict as expected]`` per check and
    ``refs`` the reference loop's time before each check and after the
    last; ``wall_s`` is the checks' summed time.  With ``trace`` the pass
    runs under a ``Tracer``, without reference loops, and the result
    carries its per-layer metrics.
    """
    clock = time.perf_counter
    tracer = Tracer(modules=[sys.modules[__name__]]) if trace else None
    nodes_before = len(expr._INTERN)
    results, outputs, refs = [], [], []
    with tracer or contextlib.nullcontext():
        for chk in PASSES[workload](pass_seed(seed, workload, index)):
            if not trace:
                refs.append(reference_loop())
            t0 = clock()
            try:
                verdict, output = chk.run()
            except Exception:  # a check that raises is a failed check
                traceback.print_exc(file=sys.stderr)
                verdict, output = None, "raised"
            results.append([clock() - t0, verdict is chk.expected])
            outputs.append([chk.kind, verdict, output])
        if not trace:
            refs.append(reference_loop())
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    out = {"wall_s": sum(d for d, _ in results), "checks": results, "refs": refs,
           "hash": digest}
    if tracer is not None:
        layers = tracer.layer_metrics()
        new_nodes = len(expr._INTERN) - nodes_before
        built = sum(layers[f"{c}.calls"] for c in EXPR_CONSTRUCTORS)
        layers["expr.interned_nodes"] = new_nodes
        layers["expr.new_node_ratio"] = new_nodes / built if built else 0.0
        out["layers"] = layers
    return out
