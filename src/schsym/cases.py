"""The n=2 classification table and its randomized verifier.

Each case ships as template strings plus declarations that say how the
parameters are drawn.  Verification instantiates the case several times
with fresh random parameters/surrogates and checks (i) zero classifying
residual for every listed generator, (ii) bracket closure of the span,
(iii) the expected invariant tuple, (iv) the structural constraints every
tuple must satisfy.  The draws are drawn one by one, in groups whose zero
tests run as one tape run and whose coefficient samples as another; the
report is byte for byte the one that testing each draw alone gives.

The template strings are parsed once per verification, not once per draw:
symbols compare by value and nodes are hash-consed, so every draw's parse
would give the same DAGs.  A draw only declares and binds the symbols and
runs the case's builder; each generator's classifying residual is built
once per verification, over the symbols (case 3's kappa is beta).

Case 8's H, defined by H' = t G', is bound by its builder in closed form:
the antiderivative of t G' for the draw's exponential-polynomial G.

The quadratic cases are instantiated in reverse: fundamental solutions of
the shift equation are drawn in closed form and the potential coefficients
are defined from them, which exercises exactly the listed algebra-potential
relations without numerical ODE solving.  Case 16's definitions are
expressions over arity-0 symbols, inlined into its template; its builder
binds only those numbers in each draw, as case 17's binds al, be, n1, n2.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, NamedTuple, Optional

import numpy as np

from .conditions import (InvariantTuple, Potential, SpanError, classifying_residual, sample_rows,
                         sample_times, span_invariants)
from .equivalence import rational_rotation
from .expr import (COS, HALF, SIN, T_VAR, ZERO, Expr, FunctionSymbol, SymbolTable, abs_pow,
                   const, diff, func_app, inline, int_pow, sum_, t)
from .fields import GeneratorCoeffs, coefficient_rows
from .funcbank import (TRIG_DEGREE, ConstImpl, ExpPoly, ExpPolyImpl,
                       random_positive_trig_coeffs, random_positive_trig_poly, random_surrogate)
from .numeric import (DEFAULT_BINDINGS, DEFAULT_POINTS, DEFAULT_TOL, DEFAULT_TRIALS,
                      UnsafeSampleError, Workspace, draw_trial, max_normalized_residual,
                      stacked_draws, stacked_residuals)
from .numeric import eval_batch  # noqa: F401  re-exported; perfbench's tracer checks its rebinding
from .parsing import parse


@dataclass
class CaseEntry:
    """One row of the classification table."""

    id: int
    label: str
    potential: str
    generators: list[dict]
    declarations: list[dict]
    expected: InvariantTuple
    side_conditions: list[dict] = field(default_factory=list)
    builder: Optional[str] = None
    n: int = 2

    def __post_init__(self):
        if len(self.generators) != self.expected.dim:
            raise ValueError(f"case {self.id}: generator count != expected dimension")


def load_table() -> dict[int, CaseEntry]:
    raw = json.loads(resources.files("schsym.data").joinpath("cases_n2.json").read_text())
    out = {}
    for c in raw["cases"]:
        entry = CaseEntry(
            id=c["id"], label=c["label"], potential=c["potential"],
            generators=c["generators"], declarations=c.get("declarations", []),
            expected=InvariantTuple(*c["expected_invariants"]),
            side_conditions=c.get("side_conditions", []),
            builder=c.get("builder"), n=raw.get("n", 2))
        out[entry.id] = entry
    return out


_TABLE: Optional[dict[int, CaseEntry]] = None


def table() -> dict[int, CaseEntry]:
    global _TABLE
    if _TABLE is None:
        _TABLE = load_table()
    return _TABLE


class UnknownCaseError(KeyError):
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

@dataclass
class CaseInstance:
    V: Potential
    generators: list[GeneratorCoeffs]
    workspace: Workspace


def _draw_value(kind: str, rng) -> complex:
    if kind == "real":
        return float(rng.uniform(-1, 1))
    if kind == "positive":
        return float(rng.uniform(0.3, 1.3))
    if kind == "real_nonzero":
        return float(rng.uniform(0.3, 1.3)) * (1 if rng.random() < 0.5 else -1)
    if kind == "complex_nonzero":
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.3, 1.3)
        return complex(rad * np.cos(ang), rad * np.sin(ang))
    raise ValueError(f"unknown draw kind {kind!r}")


class CaseTemplate(NamedTuple):
    """A case's strings parsed once, with the coefficient functions that its
    builder defines inlined; the draws bind their symbols."""

    potential: Expr
    generators: tuple[GeneratorCoeffs, ...]


def parse_template(case: CaseEntry) -> CaseTemplate:
    """Parse the potential and generator strings of a case.

    The parse declares the case's symbols in a table of its own; a draw's
    workspace declares equal symbols, so the nodes are the ones a parse in
    that workspace would give.  Case 16's coefficient functions are
    inlined in each parse (``case16_definitions``), so its draws share the
    template's nodes and bind only numbers.
    """
    tab = SymbolTable()
    for d in case.declarations:
        tab.declare(d["name"], int(d["arity"]), d["codomain"])
    defs = case16_definitions(tab) if case.builder == "case16" else {}

    def p(text: Optional[str]) -> Expr:
        if text is None:  # a coefficient the spec omits: ZERO, as "0" parses
            return ZERO
        e = parse(text, tab, case.n)
        return inline(e, defs) if defs else e

    gens = tuple(GeneratorCoeffs(
        case.n, p(spec.get("tau")), (p(spec.get("kappa")),),
        tuple(p(c) for c in spec.get("chi", [None] * case.n)),
        p(spec.get("sigma")), p(spec.get("rho"))) for spec in case.generators)
    return CaseTemplate(p(case.potential), gens)


def instantiate(case: CaseEntry, rng: np.random.Generator,
                template: Optional[CaseTemplate] = None) -> CaseInstance:
    """Bind all declared symbols for one random draw of the case.

    `template` is parse_template(case); it is parsed here when not given.
    """
    if template is None:
        template = parse_template(case)
    ws = Workspace()
    for d in case.declarations:
        sym = ws.table.declare(d["name"], int(d["arity"]), d["codomain"])
        kind = d.get("draw", "surrogate")
        if kind == "surrogate":
            ws.binding.bind(sym, random_surrogate(rng, sym.arity, sym.codomain))
        elif kind == "positive_fn":
            ws.binding.bind(sym, ExpPolyImpl(random_positive_trig_poly(rng)))
        elif kind in ("real", "positive", "real_nonzero", "complex_nonzero"):
            ws.binding.bind(sym, ConstImpl(_draw_value(kind, rng)))
        elif kind == "builder":
            pass
        else:
            raise ValueError(f"unknown draw kind {kind!r}")
    if case.builder:
        _BUILDERS[case.builder](ws, rng)

    V = Potential(template.potential, case.n, ws.binding)
    return CaseInstance(V, list(template.generators), ws)


# -- builders ------------------------------------------------------------------

def build_case8(ws: Workspace, rng) -> None:
    """Bind H, with H' = t G', to the antiderivative of t G' of the draw's G."""
    g = ws.binding.lookup(ws.table.get("G")).func
    ws.binding.bind(ws.table.get("H"),
                    ExpPolyImpl((ExpPoly.identity() * g.derivative()).antiderivative()))


def _liouville_pair(num: Callable[[str], Expr], p: int):
    """A scalar pair u1, u2 with u'' = d u, constant unit Wronskian.

    u1 = G^(-1/2) cos F, u2 = G^(-1/2) sin F with F' = G > 0, and
    d = 3/4 (G'/G)^2 - 1/2 G''/G - G^2, all in closed form.  G is the trig
    polynomial gp0 + sum_k gp(2k-1) cos(k t) + gp(2k) sin(k t) over the
    numbers num(name) drawn by ``build_case16``: the derivative of F, its
    antiderivative with no constant term.
    """
    tv = t()
    g = [num(f"g{p}{j}") for j in range(2 * TRIG_DEGREE + 1)]
    F = sum_([g[0] * tv] + [
        const(Fraction(1, k)) * (g[2 * k - 1] * func_app(SIN, [k * tv])
                                 - g[2 * k] * func_app(COS, [k * tv]))
        for k in range(1, TRIG_DEGREE + 1)])
    G = diff(F, T_VAR)
    amp = abs_pow(G, Fraction(-1, 2))
    Gp = diff(G, T_VAR)
    Gpp = diff(Gp, T_VAR)
    d = const(Fraction(3, 4)) * Gp * Gp * int_pow(G, -2) \
        - HALF * Gpp * int_pow(G, -1) - G * G
    return amp * func_app(COS, [F]), amp * func_app(SIN, [F]), d, G, F


def case16_definitions(tab: SymbolTable) -> dict[FunctionSymbol, Expr]:
    """Case 16's 17 coefficient functions as expressions in t, defined in
    reverse from a fundamental system of the shift equation.

    The system is the rotation Q = (qc, -qs; qs, qc) of two Liouville pairs
    (u1, u2 with d1, v1, v2 with d2): h = Q diag(d1, d2) Q^T, the chi tuples
    u Q[:, 0] and v Q[:, 1], h0 = Q (c1 G1^(3/2), c2 G2^(3/2)) and the r's
    from c1 and c2.  The numbers are arity-0 real symbols, declared in tab,
    that ``build_case16`` binds in each draw.
    """
    def num(name: str) -> Expr:
        return func_app(tab.declare(name, 0, "real"), [])

    qc, qs, c1, c2 = num("qc"), num("qs"), num("c1"), num("c2")
    u1, u2, d1, G1, F1 = _liouville_pair(num, 1)
    v1, v2, d2, G2, F2 = _liouville_pair(num, 2)
    g1_32 = abs_pow(G1, Fraction(3, 2))
    g2_32 = abs_pow(G2, Fraction(3, 2))
    defs = {
        "c11": qc * u1, "c12": qs * u1, "c21": qc * u2, "c22": qs * u2,
        "c31": -qs * v1, "c32": qc * v1, "c41": -qs * v2, "c42": qc * v2,
        "h11": qc * qc * d1 + qs * qs * d2, "h12": qc * qs * (d1 - d2),
        "h22": qs * qs * d1 + qc * qc * d2,
        "h01": c1 * qc * g1_32 - c2 * qs * g2_32, "h02": c1 * qs * g1_32 + c2 * qc * g2_32,
        "r1": -c1 * func_app(SIN, [F1]), "r2": c1 * func_app(COS, [F1]),
        "r3": -c2 * func_app(SIN, [F2]), "r4": c2 * func_app(COS, [F2]),
    }
    return {tab.get(name): e for name, e in defs.items()}


def build_case16(ws: Workspace, rng) -> None:
    """Bind the numbers of ``case16_definitions`` for one draw: Q's entries
    from a rational circle point, G1's and G2's coefficients, c1 and c2."""
    (qc, _), (qs, _) = rational_rotation(Fraction(int(rng.integers(-6, 7)), 13))
    values = [("qc", qc), ("qs", qs)]
    values += [(f"g{p}{j}", v) for p in (1, 2)
               for j, v in enumerate(random_positive_trig_coeffs(rng, 0.9, 1.6, 0.25))]
    values += [(c, rng.uniform(0.3, 1.0) * (1 if rng.random() < 0.5 else -1)) for c in ("c1", "c2")]
    for name, v in values:
        ws.declare(name, 0, "real", ConstImpl(float(v)))


def build_case17(ws: Workspace, rng) -> None:
    while True:
        al = float(rng.uniform(-2.0, 2.0))
        be = float(rng.uniform(-2.0, 2.0))
        if min(abs(al), abs(be), abs(al - be)) > 0.15:
            break
    n1 = float(rng.uniform(-1, 1))
    n2 = float(rng.uniform(-1, 1))
    ws.binding.bind(ws.table.get("al"), ConstImpl(al))
    ws.binding.bind(ws.table.get("be"), ConstImpl(be))
    ws.binding.bind(ws.table.get("n1"), ConstImpl(n1))
    ws.binding.bind(ws.table.get("n2"), ConstImpl(n2))

    def scalar_pair(lam: float) -> tuple[ExpPoly, ExpPoly]:
        if lam < 0:
            w = float(np.sqrt(-lam))
            return ExpPoly.cos(w), ExpPoly.sin(w)
        w = float(np.sqrt(lam))
        return ExpPoly.exp(w), ExpPoly.exp(-w)

    u1, u2 = scalar_pair(al)
    v1, v2 = scalar_pair(be)
    names = [("c11", u1, n1), ("c21", u2, n1), ("c32", v1, n2), ("c42", v2, n2)]
    for i, (name, u, nu) in enumerate(names, start=1):
        ws.binding.bind(ws.table.get(name), ExpPolyImpl(u))
        rho = u.scale(-nu).antiderivative()
        ws.binding.bind(ws.table.get(f"r{i}"), ExpPolyImpl(rho))


def build_case18(ws: Workspace, rng) -> None:
    while True:
        al = float(rng.uniform(-2.0, 2.0))
        be = float(rng.uniform(-2.0, 2.0))
        if min(abs(al - be), abs(1 + al), abs(1 + be)) < 0.15:
            continue
        s = al + be
        roots = np.roots([1.0, 0.0, 2.0 - s, 0.0, (1 + al) * (1 + be)])
        sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
        if sep > 0.1 and np.min(np.abs(roots)) > 0.1:
            break
    n1 = float(rng.uniform(-1, 1))
    n2 = float(rng.uniform(-1, 1))
    for name, v in (("al", al), ("be", be), ("n1", n1), ("n2", n2)):
        ws.binding.bind(ws.table.get(name), ConstImpl(v))

    # rotating-frame solutions theta with theta1'' - 2 theta2' = (1+al) theta1,
    # theta2'' + 2 theta1' = (1+be) theta2; eigen-solutions w e^(lam t)
    thetas: list[tuple[ExpPoly, ExpPoly]] = []
    used = set()
    for lam in roots:
        lam = complex(lam)
        key = (round(lam.real, 9), round(abs(lam.imag), 9))
        w = (2.0 * lam, lam * lam - 1.0 - al)
        if abs(lam.imag) < 1e-10:
            th1 = ExpPoly({complex(lam.real): (w[0].real,)})
            th2 = ExpPoly({complex(lam.real): (w[1].real,)})
            thetas.append((th1, th2))
        else:
            if key in used:
                continue
            used.add(key)
            # real and imaginary parts of w e^(lam t)
            for part in (0, 1):
                comps = []
                for wc in w:
                    c = wc / 2 if part == 0 else wc / 2j
                    comps.append(ExpPoly({lam: (c,), lam.conjugate(): (c.conjugate(),)}))
                thetas.append(tuple(comps))
    thetas = thetas[:4]
    cos1 = ExpPoly.cos(1.0)
    sin1 = ExpPoly.sin(1.0)
    for p, (th1, th2) in enumerate(thetas, start=1):
        chi1 = th1 * cos1 - th2 * sin1
        chi2 = th1 * sin1 + th2 * cos1
        ws.binding.bind(ws.table.get(f"c{p}1"), ExpPolyImpl(chi1))
        ws.binding.bind(ws.table.get(f"c{p}2"), ExpPolyImpl(chi2))
        rho = (th1.scale(-n1) + th2.scale(-n2)).antiderivative()
        ws.binding.bind(ws.table.get(f"r{p}"), ExpPolyImpl(rho))


_BUILDERS: dict[str, Callable] = {
    "case8": build_case8,
    "case16": build_case16,
    "case17": build_case17,
    "case18": build_case18,
}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _check_side_conditions(case: CaseEntry, inst: CaseInstance) -> list[dict]:
    out = []
    for cond in case.side_conditions:
        if cond["kind"] == "prose":
            out.append({"kind": "prose", "text": cond["text"], "checked": False})
            continue
        if cond["kind"] == "nonzero_slot_deriv":
            sym = inst.workspace.table.get(cond["symbol"])
            impl = inst.workspace.binding.lookup(sym)
            didx = tuple(1 if i == cond["slot"] else 0 for i in range(sym.arity))
            args = tuple(np.linspace(-1.2, 1.2, 9).astype(complex)
                         for _ in range(sym.arity))
            vals, _ = impl.deriv(didx, args)
            ok = bool(np.max(np.abs(vals)) > 1e-6)
            out.append({"kind": cond["kind"], "symbol": cond["symbol"],
                        "checked": True, "passed": ok})
            continue
        out.append({"kind": cond["kind"], "checked": False})
    return out


def verify_case(case_id: int, draws: int = DEFAULT_TRIALS,
                rng: Optional[np.random.Generator] = None, points: int = DEFAULT_POINTS,
                zero_trials: int = DEFAULT_BINDINGS, tol: float = DEFAULT_TOL) -> dict:
    """Verify one classification case over several random instantiations.

    Per draw: every listed generator must have numerically zero classifying
    residual, the span must be bracket-closed, the invariant tuple must match
    the expected one, and the tuple must satisfy the structural constraints.
    The residuals are built once, before the draws.  The draws are taken in
    groups (``_draw_group``), each group's zero tests and coefficient
    samples in one run each, and the span analysis of all the draws then
    runs as one stack (``span_invariants``).  The report is the one that
    testing and sampling each draw in turn would give (``_draw``).
    """
    tab = table()
    if case_id not in tab:
        raise UnknownCaseError(f"unknown case id {case_id}")
    case = tab[case_id]
    if rng is None:
        rng = np.random.default_rng(0)

    report = {
        "case": case.id,
        "label": case.label,
        "potential": case.potential,
        "expected_invariants": list(case.expected),
        "draws": draws,
        "residuals": {"passed": True, "failures": []},
        "closure": {"passed": True, "failures": []},
        "invariants": {"passed": True, "failures": []},
        "constraints": {"passed": True, "violations": []},
        "side_conditions": [],
    }
    template = parse_template(case)
    V = Potential(template.potential, case.n)
    residuals = tuple(classifying_residual(V, g) for g in template.generators)
    tapes: dict = {}  # residual and coefficient tuples -> tapes, for every draw
    run = (case, template, residuals, rng, points, zero_trials, tapes)
    # no trial, no point or no generator: _draw raises, after drawing one draw
    size = (stacked_draws(residuals, points, zero_trials, tapes)
            if zero_trials >= 1 and points >= 1 and template.generators else 0)
    drawn = []  # each draw's instance, residual pairs and sample_rows
    while len(drawn) < draws:
        drawn += _draw_group(run, min(size, draws - len(drawn))) if size else [_draw(*run)]
    for draw, (_, tested, _) in enumerate(drawn):
        for gi, (worst, witness) in enumerate(tested):
            if worst >= tol:
                report["residuals"]["passed"] = False
                report["residuals"]["failures"].append(
                    {"draw": draw, "generator": gi, "max_residual": worst,
                     "witness": json_witness(witness)})
    if drawn:
        report["side_conditions"] = _check_side_conditions(case, drawn[0][0])
    for draw, tup in enumerate(span_invariants([d[2] for d in drawn], tol)):
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


def _draw(case, template, residuals, rng, points, zero_trials, tapes) -> tuple:
    """One draw, zero-tested and sampled in turn: its instance, its
    residuals' (worst, witness) pairs and its ``sample_rows``."""
    inst = instantiate(case, rng, template)
    binding = inst.workspace.binding
    tested = max_normalized_residual(residuals, binding=binding, trials=zero_trials,
                                     points=points, rng=rng, tapes=tapes)
    return inst, tested, sample_rows(inst.generators, binding, rng, tapes)


def _draw_group(run: tuple, count: int) -> list:
    """``count`` draws as ``_draw`` gives them, each drawn as ``_draw`` draws
    it when no point is unsafe: its instance, its zero-test trials
    (``draw_trial``) and its sample times.  Then the residuals' tape runs
    once over every trial's points (``stacked_residuals``) and the
    coefficients' once over every draw's times (``coefficient_rows``).
    Where a point of either run is unsafe, rng is set back to the group's
    start and the draws are taken by ``_draw``, which redraws or raises as
    a draw alone does."""
    case, template, residuals, rng, points, zero_trials, tapes = run
    state = rng.bit_generator.state
    insts, trials, times = [], [], []
    for _ in range(count):
        insts.append(instantiate(case, rng, template))
        binding = insts[-1].workspace.binding
        trials += [draw_trial(residuals, binding, points, rng) for _ in range(zero_trials)]
        times.append(sample_times(rng))
    try:
        tested = stacked_residuals(residuals, trials, points, zero_trials, tapes)
        rows, drows, slices = coefficient_rows(
            template.generators, [i.workspace.binding for i in insts], np.array(times), tapes)
    except UnsafeSampleError:
        rng.bit_generator.state = state
        return [_draw(*run) for _ in range(count)]
    return [(i, t, (r, d, slices)) for i, t, r, d in zip(insts, tested, rows, drows)]


def json_witness(witness) -> dict:
    if witness is None:
        return {}
    out = {"normalized": witness["normalized"],
           "value": [witness["value"].real, witness["value"].imag],
           "point": {}}
    for k, v in witness["point"].items():
        v = complex(v)
        out["point"][k] = v.real if v.imag == 0 else [v.real, v.imag]
    return out


def verify_table(draws: int = DEFAULT_TRIALS, seed: int = 0, points: int = DEFAULT_POINTS,
                 zero_trials: int = DEFAULT_BINDINGS, tol: float = DEFAULT_TOL,
                 case_ids: Optional[list[int]] = None) -> dict:
    """Run verify_case over the table, or over case_ids (not empty), with
    per-case seed substreams."""
    if case_ids is not None and not case_ids:
        raise ValueError("case_ids is empty: no case to verify")
    ids = sorted(table()) if case_ids is None else sorted(set(case_ids))
    reports = []
    for cid in ids:
        rng = np.random.default_rng([seed, 1000 + cid])
        reports.append(verify_case(cid, draws=draws, rng=rng, points=points,
                                   zero_trials=zero_trials, tol=tol))
    return {
        "seed": seed,
        "draws": draws,
        "points": points,
        "tol": tol,
        "cases": reports,
        "passed": all(r["passed"] for r in reports),
    }
