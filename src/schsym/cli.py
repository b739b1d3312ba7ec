"""Batch verification entry point.

Subcommands: verify-table, verify-case, residual, bracket, transform,
invariants, groupoid.  Each offers only the flags that can change its
output (_OPTIONS), plus --format and --config; any other flag, or config
key, exits 2.  All outputs are valid JSON under --format json and
byte-identical under a fixed seed; the exit code is 0 iff every check
passed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import cases as case_mod
from . import groupoid as gp
from . import schema
from .conditions import Potential, SpanError, classifying_residual, invariants
from .equivalence import EquivTransformation, act_on_potential, restart_inverse_names
from .expr import ZERO, SymbolTable
from .fields import GeneratorCoeffs, bracket_generic, bracket_structural, expand
from .numeric import (DEFAULT_BINDINGS, DEFAULT_POINTS, DEFAULT_TOL, DEFAULT_TRIALS,
                      UnsafeSampleError, Workspace, draw_env, eval_resampling, is_zero,
                      max_normalized_residual)
from .parsing import ParseError, load_declarations, parse, to_text, var_name


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Run parameters of all subcommands; a field that a command does not
    offer keeps its default.

    A fixed seed makes every report byte-identical: randomness flows only
    through seeded generators, and table runs give each case its own seed
    substream so results do not depend on scheduling.
    """

    n: int = 2
    trials: int = DEFAULT_TRIALS
    bindings: int = DEFAULT_BINDINGS
    points: int = DEFAULT_POINTS
    tol: float = DEFAULT_TOL
    seed: int = 0
    format: str = "text"

    def __post_init__(self):
        # var_name writes one digit per jet direction, so n <= 9 reparses
        if not 1 <= self.n <= 9:
            raise ValueError("n must be between 1 and 9")
        if self.trials < 1 or self.bindings < 1 or self.points < 1:
            raise ValueError("trials, bindings and points must be >= 1")
        if self.points > 100_000:
            raise ValueError("points must be <= 100000")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be a finite number > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.format not in ("text", "json"):
            raise ValueError("format must be 'text' or 'json'")


# every command flag: one per RunConfig field, --declare and --config
_FLAGS = {
    "n": dict(type=int, help="space dimension"),
    "trials": dict(type=int, help="random instantiations per case / zero-test trials"),
    "bindings": dict(type=int, help="fresh surrogate bindings per zero test"),
    "points": dict(type=int, help="sample points per zero-test batch"),
    "tol": dict(type=float, help="normalized tolerance"),
    "seed": dict(type=int, help="RNG seed"),
    "declare": dict(help="JSON declarations file: [{name, arity, codomain}, ...]"),
    "format": dict(choices=("text", "json")),
    "config": dict(help="JSON file whose keys override the flags above"),
}

# the flags each command offers besides --format and --config, which all
# commands offer: only the ones that can change its output
_OPTIONS = {
    "verify-table": ("trials", "bindings", "points", "tol", "seed"),
    "verify-case": ("trials", "bindings", "points", "tol", "seed"),
    "residual": ("n", "trials", "points", "tol", "seed", "declare"),
    "bracket": ("n", "trials", "points", "tol", "seed", "declare"),
    "transform": ("n", "seed", "declare"),
    "invariants": ("n", "tol", "seed", "declare"),
    "groupoid": (),
}


def _add_common(p: argparse.ArgumentParser, names: tuple[str, ...]):
    d = RunConfig()
    for name in names + ("format", "config"):
        p.add_argument(f"--{name}", default=getattr(d, name, None), **_FLAGS[name])


# the schema entry of a --config key, by the type of its RunConfig field
_CONFIG_TYPES = {"int": (schema.integer, "an integer"),
                 "float": (schema.finite, "a finite number"),
                 "str": (schema.string, "a string")}


def _load_json_file(path: str):
    """The JSON value in the file at path; a file that is not JSON raises a
    ValueError that names it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def _run_config(args) -> RunConfig:
    """The flags' values, overridden by the --config file: a JSON object whose
    keys are the command's RunConfig fields, each with a value of that
    field's type.  A field the command does not offer keeps its default."""
    offered = _OPTIONS[args.command] + ("format",)
    fields = [f for f in dataclasses.fields(RunConfig) if f.name in offered]
    values = {f.name: getattr(args, f.name) for f in fields}
    if args.config:
        config = {f.name: _CONFIG_TYPES[f.type] for f in fields}
        values.update(schema.check(_load_json_file(args.config), config, name="config"))
    return RunConfig(**values)


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _workspace(args) -> Workspace:
    ws = Workspace()
    if args.declare:
        load_declarations(_load_json_file(args.declare), ws.table)
    return ws


_EXPR = (lambda v: schema.string(v) or schema.finite(v),
         "an expression string or a number")


def _spec_schemas(n: int) -> tuple[dict, dict]:
    """The schemas of a field spec and of a transformation spec in dimension n."""
    exprs = (schema.list_of(_EXPR[0], n), f"a list of n = {n} expression strings or numbers")
    matrix = schema.list_of(schema.list_of(schema.rational, n), n)
    field = {"tau": _EXPR,
             "kappa": (lambda v: schema.rational(v) or matrix(v), "a scalar or an n x n matrix"),
             "chi": exprs, "sigma": _EXPR, "rho": _EXPR,
             "eta0": (lambda v: v is None or _EXPR[0](v), "null or " + _EXPR[1])}
    transform = {"T": _EXPR, "O": (matrix, "n lists of n finite rationals"), "X": exprs,
                 "Sigma": _EXPR, "Upsilon": _EXPR}
    return field, transform


def _load_generator(spec, table: SymbolTable, n: int) -> GeneratorCoeffs:
    """Field-spec object: {tau, kappa, chi, sigma, rho, eta0}."""
    spec = schema.check(spec, _spec_schemas(n)[0])
    tau = parse(str(spec.get("tau", "0")), table, n)
    sigma = parse(str(spec.get("sigma", "0")), table, n)
    rho = parse(str(spec.get("rho", "0")), table, n)
    chi = tuple(parse(str(s), table, n) for s in spec.get("chi", ["0"] * n))
    kap = spec.get("kappa", 0)
    if type(kap) is list:  # above-diagonal entries, row by row
        kappa = tuple(Fraction(kap[a][b]) for a in range(n) for b in range(a + 1, n))
    elif n == 1:  # no rotation pairs
        if Fraction(kap) != 0:
            raise ValueError("kappa must be 0 at n = 1, which has no rotations")
        kappa = ()
    else:  # the rotation in the (x1, x2) plane
        kappa = (Fraction(kap),) + (Fraction(0),) * (n * (n - 1) // 2 - 1)
    eta0 = spec.get("eta0")
    eta = ZERO if eta0 in (None, "null") else parse(str(eta0), table, n)
    return GeneratorCoeffs(n, tau, kappa, chi, sigma, rho, eta)


def _read_spec(source: str):
    """A JSON literal or a path to a JSON file."""
    text = source.strip()
    if text.startswith("{") or text.startswith("["):
        return json.loads(text)
    return _load_json_file(source)


def cmd_verify_table(args) -> int:
    cfg = args.cfg
    report = case_mod.verify_table(draws=cfg.trials, seed=cfg.seed,
                                   points=cfg.points, zero_trials=cfg.bindings,
                                   tol=cfg.tol,
                                   case_ids=getattr(args, "cases", None))
    lines = []
    for rep in report["cases"]:
        mark = "pass" if rep["passed"] else "FAIL"
        lines.append(f"case {rep['case']:2d} [{mark}] {rep['label']}"
                     f" invariants={tuple(rep['expected_invariants'])}")
        if not rep["passed"]:
            for f in rep["residuals"]["failures"]:
                lines.append(f"    residual failure: draw {f['draw']}, generator "
                             f"{f['generator']}, |res| = {f['max_residual']:.3e}, "
                             f"witness {f['witness'].get('point', {})}")
            for f in rep["closure"]["failures"]:
                lines.append(f"    closure failure: draw {f['draw']}: {f['error']}")
            for f in rep["invariants"]["failures"]:
                lines.append(f"    invariants: draw {f['draw']} got {f['got']} "
                             f"expected {f['expected']}")
            for f in rep["constraints"]["violations"]:
                lines.append(f"    constraints: draw {f['draw']}: {f['violations']}")
    lines.append("table: " + ("all cases pass" if report["passed"] else "FAILURES"))
    _emit(cfg, report, lines)
    return 0 if report["passed"] else 1


def cmd_verify_case(args) -> int:
    cfg = args.cfg
    rng = np.random.default_rng([cfg.seed, 1000 + args.case])
    rep = case_mod.verify_case(args.case, draws=cfg.trials, rng=rng,
                               points=cfg.points, zero_trials=cfg.bindings,
                               tol=cfg.tol)
    mark = "pass" if rep["passed"] else "FAIL"
    lines = [f"case {rep['case']} [{mark}] {rep['label']}",
             f"  potential: {rep['potential']}",
             f"  invariants: {tuple(rep['expected_invariants'])}"]
    for key in ("residuals", "closure", "invariants", "constraints"):
        lines.append(f"  {key}: {'pass' if rep[key]['passed'] else 'FAIL'}")
    _emit(cfg, rep, lines)
    return 0 if rep["passed"] else 1


def cmd_residual(args) -> int:
    cfg = args.cfg
    ws = _workspace(args)
    rng = np.random.default_rng(cfg.seed)
    V = Potential(parse(args.potential, ws.table, cfg.n), cfg.n, ws.binding)
    g = _load_generator(_read_spec(args.field), ws.table, cfg.n)
    res = classifying_residual(V, g)
    worst, witness = max_normalized_residual(
        res, binding=ws.binding, trials=cfg.trials, points=cfg.points, rng=rng)
    zero = worst < cfg.tol
    payload = {
        "potential": args.potential,
        "residual": to_text(res),
        "max_normalized_residual": worst,
        "is_zero": zero,
        "witness": case_mod.json_witness(witness),
    }
    lines = [f"residual: {payload['residual']}",
             f"max |residual| (normalized): {worst:.3e}",
             f"symmetry: {'yes' if zero else 'no'}"]
    if not zero:
        lines.append(f"witness point: {payload['witness'].get('point', {})}")
    _emit(cfg, payload, lines)
    return 0


def cmd_bracket(args) -> int:
    cfg = args.cfg
    ws = _workspace(args)
    rng = np.random.default_rng(cfg.seed)
    g1 = _load_generator(_read_spec(args.g1), ws.table, cfg.n)
    g2 = _load_generator(_read_spec(args.g2), ws.table, cfg.n)
    br = bracket_structural(g1, g2)
    payload = {
        "tau": to_text(br.tau),
        "kappa": [to_text(k) for k in br.kappa],
        "chi": [to_text(c) for c in br.chi],
        "sigma": to_text(br.sigma),
        "rho": to_text(br.rho),
        "eta0": None if br.eta0 is ZERO else to_text(br.eta0),
    }
    if args.check:
        gen = bracket_generic(expand(g1), expand(g2))
        dvf = expand(br).sub(gen)
        payload["generic_cross_check"] = is_zero(dvf.components(), trials=cfg.trials,
                                                 tol=cfg.tol, points=cfg.points,
                                                 binding=ws.binding, rng=rng)
    lines = [f"[g1, g2] = tau: {payload['tau']}; kappa: {payload['kappa']}; "
             f"chi: {payload['chi']}; sigma: {payload['sigma']}; rho: {payload['rho']}"]
    if args.check:
        lines.append(f"generic commutator cross-check: "
                     f"{'agrees' if payload['generic_cross_check'] else 'DISAGREES'}")
    _emit(cfg, payload, lines)
    if args.check and not payload["generic_cross_check"]:
        return 1
    return 0


def cmd_transform(args) -> int:
    cfg = args.cfg
    ws = _workspace(args)
    rng = np.random.default_rng(cfg.seed)
    V = Potential(parse(args.potential, ws.table, cfg.n), cfg.n, ws.binding)
    spec = schema.check(_read_spec(args.spec), _spec_schemas(cfg.n)[1])
    T = parse(str(spec.get("T", "t")), ws.table, cfg.n)
    identity = [[int(i == j) for j in range(cfg.n)] for i in range(cfg.n)]
    O = tuple(tuple(map(Fraction, row)) for row in spec.get("O", identity))
    X = tuple(parse(str(s), ws.table, cfg.n) for s in spec.get("X", ["0"] * cfg.n))
    Sigma = parse(str(spec.get("Sigma", "0")), ws.table, cfg.n)
    Upsilon = parse(str(spec.get("Upsilon", "0")), ws.table, cfg.n)
    tr = EquivTransformation(cfg.n, T, O, X, Sigma, Upsilon, binding=ws.binding)
    Vt = act_on_potential(V, tr)
    env = draw_env(Vt.expr.free_vars, 5, rng)
    (vals,), _, env = eval_resampling((Vt.expr,), [(Vt.binding, env)], 5, rng, {})
    spots = []
    for i in range(len(vals)):
        pt = {var_name(v): complex(env[v][i]) for v in env}
        spots.append({"point": {k: [float(c.real), float(c.imag)] for k, c in pt.items()},
                      "value": [float(vals[i].real), float(vals[i].imag)]})
    payload = {"transformed": to_text(Vt.expr), "spot_checks": spots}
    lines = [f"transformed potential: {payload['transformed']}", "spot checks:"]
    for s in spots:
        lines.append(f"  {s['point']} -> {s['value']}")
    _emit(cfg, payload, lines)
    return 0


def cmd_invariants(args) -> int:
    cfg = args.cfg
    ws = _workspace(args)
    rng = np.random.default_rng(cfg.seed)
    specs = _read_spec(args.fields)
    if type(specs) is not list:
        specs = [specs]
    gens = [_load_generator(s, ws.table, cfg.n) for s in specs]
    try:
        tup = invariants(gens, ws.binding, rng, cfg.tol)
    except SpanError as err:
        payload = {"error": str(err)}
        _emit(cfg, payload, [f"error: {err}"])
        return 1
    payload = {"k0": tup.k0, "k1": tup.k1, "k2": tup.k2, "k3": tup.k3,
               "r0": tup.r0, "dim": tup.dim,
               "constraint_violations": tup.constraint_violations(cfg.n)}
    lines = [f"(k0, k1, k2, k3, r0) = {tuple(tup)}   dim = {tup.dim}"]
    if payload["constraint_violations"]:
        lines.append(f"constraint violations: {payload['constraint_violations']}")
    _emit(cfg, payload, lines)
    return 0 if not payload["constraint_violations"] else 1


def cmd_groupoid(args) -> int:
    cfg = args.cfg
    if args.model in gp.FIXTURE_TRUTH_TABLE:
        model = gp.load_fixture(args.model)
    else:
        model = gp.model_from_json(_load_json_file(args.model))
    if args.check == "all":
        payload = gp.run_all_checks(model)
        ok = all(payload.values())
    elif args.check == "factorization":
        payload = gp.verify_factorization(model)
        ok = payload["passed"]
    else:
        fn = {"uniform": gp.is_uniform,
              "semi-normalized": gp.is_semi_normalized,
              "disjoint": gp.is_disjointedly,
              "extension": gp.verify_extension}[args.check]
        try:
            payload = {args.check: fn(model)}
        except gp.GroupoidError as err:
            payload = {args.check: False, "error": str(err)}
        ok = payload[args.check]
    lines = [f"{k}: {v}" for k, v in payload.items() if k != "objects"]
    _emit(cfg, payload, lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schsym",
        description="verification toolkit for symmetry structure of "
                    "planar linear wave potentials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-table", help="verify all classification cases")
    p.add_argument("--cases", type=int, nargs="+", default=None)
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("verify-case", help="verify one classification case")
    p.add_argument("case", type=int)
    p.set_defaults(func=cmd_verify_case)

    p = sub.add_parser("residual", help="classifying residual of (potential, field)")
    p.add_argument("potential", help="potential expression")
    p.add_argument("field", help="field-spec JSON (inline or a file path)")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("bracket", help="structural bracket of two fields")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--check", action="store_true",
                   help="cross-check against the generic commutator")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("transform", help="act a transformation on a potential")
    p.add_argument("potential")
    p.add_argument("spec", help="transformation-spec JSON (inline or file)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("invariants", help="invariant integers of a generator list")
    p.add_argument("fields", help="JSON list of field specs (inline or file)")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("groupoid", help="finite-groupoid checks")
    p.add_argument("model", help="fixture name or model JSON file")
    p.add_argument("check", choices=("all", "uniform", "semi-normalized",
                                     "disjoint", "factorization", "extension"))
    p.set_defaults(func=cmd_groupoid)
    for name, p in sub.choices.items():
        _add_common(p, _OPTIONS[name])
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    restart_inverse_names()
    try:
        args.cfg = _run_config(args)
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, UnsafeSampleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
