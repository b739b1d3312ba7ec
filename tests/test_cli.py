"""CLI surface: subcommands, JSON output, determinism, exit codes."""
import contextlib
import dataclasses
import inspect
import io
import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schsym import cases as case_mod
from schsym import cli
from schsym.cli import main
from schsym.groupoid import _MODEL, load_fixture, model_to_json
from schsym.numeric import is_zero, max_normalized_residual
from schsym.parsing import _DECLARATION

CASE7_FIELD = '{"tau": "t^2", "rho": "-t"}'
CASE7_POTENTIAL = "(1 + 2*i)*(x1^2 + x2^2)^(-1)"
FREE_FIELDS = ('[{"sigma":"1"},{"rho":"1"},{"chi":["1","0"]},{"chi":["t","0"]},'
               '{"chi":["0","1"]},{"chi":["0","t"]},{"kappa":"1"},{"tau":"1"},'
               '{"tau":"t"},{"tau":"t^2","rho":"-t"}]')


R0_TWO_SPAN = ('[{"sigma":"1"},{"rho":"1"},{"chi":["1","0"]},{"chi":["0","1"]},'
               '{"chi":["t","0"]},{"chi":["0","t"]}]')
NONCLOSED_KAPPA = '[{{"sigma":"1"}},{{"rho":"1"}},{{"tau":"1","kappa":{}}},{{"tau":"t"}}]'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_residual_zero(capsys):
    code, out = run_cli(capsys, "residual", "0", '{"tau": "1"}')
    assert code == 0
    assert "symmetry: yes" in out


def test_residual_case7(capsys):
    code, out = run_cli(capsys, "residual", CASE7_POTENTIAL, CASE7_FIELD)
    assert code == 0
    assert "symmetry: yes" in out


def test_residual_nonzero_names_witness(capsys):
    code, out = run_cli(capsys, "residual", "t*x1", '{"tau": "1"}')
    assert code == 0
    assert "symmetry: no" in out and "witness" in out


def test_residual_parse_error_exit_2(capsys):
    assert main(["residual", "t*x1 +", '{"tau": "1"}']) == 2


def test_bracket_with_cross_check(capsys):
    code, out = run_cli(capsys, "bracket", '{"tau":"1"}', '{"tau":"t"}', "--check")
    assert code == 0
    assert "agrees" in out


def test_invariants_free_equation_json(capsys):
    code, out = run_cli(capsys, "invariants", FREE_FIELDS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [payload[k] for k in ("k0", "k1", "k2", "k3", "r0")] == [2, 4, 1, 3, 2]


def test_invariants_non_closed_span(capsys):
    bad = '[{"sigma":"1"},{"rho":"1"},{"tau":"1","kappa":"1"},{"tau":"t"}]'
    code, _ = run_cli(capsys, "invariants", bad)
    assert code == 1


@pytest.mark.parametrize("eta0", ['"0"', "0", "null"])
def test_invariants_zero_eta0_is_an_absent_one(capsys, eta0):
    # "0", 0 and null all mean no inhomogeneous part, as an absent key does
    plain = run_cli(capsys, "invariants", '[{"sigma":"1"},{"rho":"1"},{"tau":"1"}]',
                    "--format", "json")
    spec = f'[{{"sigma":"1"}},{{"rho":"1"}},{{"tau":"1","eta0":{eta0}}}]'
    assert run_cli(capsys, "invariants", spec, "--format", "json") == plain
    assert plain[0] == 0 and json.loads(plain[1])["dim"] == 3


def test_transform_sigma_shift(capsys):
    code, out = run_cli(capsys, "transform", "0", '{"Sigma": "t/2"}')
    assert code == 0
    assert out.splitlines()[0].endswith("1/2")


def test_verify_case_json(capsys):
    code, out = run_cli(capsys, "verify-case", "7", "--trials", "2",
                        "--points", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["case"] == 7


def test_verify_table_subset_deterministic(capsys):
    args = ["verify-table", "--cases", "1", "13", "--trials", "1",
            "--points", "50", "--seed", "9", "--format", "json"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_table_strict_tolerance_fails(capsys):
    code, out = run_cli(capsys, "verify-table", "--cases", "2", "--trials", "1",
                        "--points", "40", "--tol", "1e-30")
    assert code == 1
    assert "witness" in out


def test_groupoid_fixture_checks(capsys):
    code, out = run_cli(capsys, "groupoid", "normalized", "disjoint")
    assert code == 0 and "True" in out
    code, out = run_cli(capsys, "groupoid", "non_semi", "semi-normalized")
    assert code == 1
    code, out = run_cli(capsys, "groupoid", "disjoint_semi", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["splitting"] is True


def test_groupoid_model_file_and_errors(tmp_path, capsys):
    from schsym.groupoid import load_fixture, model_to_json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(load_fixture("normalized"))))
    code, _ = run_cli(capsys, "groupoid", str(path), "all")
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": ["a"]}')
    assert main(["groupoid", str(bad), "all"]) == 2


def test_invariants_kernel_only(capsys):
    code, out = run_cli(capsys, "invariants", '[{"sigma":"1"},{"rho":"1"}]',
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [payload[k] for k in ("k0", "k1", "k2", "k3", "r0")] == [2, 0, 0, 0, 0]


def test_declarations_file(tmp_path, capsys):
    decls = tmp_path / "decls.json"
    decls.write_text(json.dumps([{"name": "U", "arity": 2, "codomain": "complex"}]))
    code, out = run_cli(capsys, "residual", "U(x1,x2)", '{"tau": "1"}',
                        "--declare", str(decls))
    assert code == 0
    assert "symmetry: yes" in out
    # undeclared symbol is a parse diagnostic
    assert main(["residual", "U(x1,x2)", '{"tau": "1"}']) == 2


def test_config_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1, "points": 40, "seed": 12}))
    code, out = run_cli(capsys, "verify-table", "--cases", "0",
                        "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["draws"] == 1 and payload["seed"] == 12


@pytest.mark.parametrize("argv", [["verify-case", "99"], ["verify-table", "--cases", "99"]])
def test_unknown_case_error_line_is_unquoted(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unknown case id 99\n"


def test_cases_needs_at_least_one_id(capsys):
    # "--cases" with no id used to verify no case and pass with exit 0
    with pytest.raises(SystemExit) as exc:
        main(["verify-table", "--cases"])
    assert exc.value.code == 2
    assert "--cases" in capsys.readouterr().err


def test_repeated_case_id_is_verified_once(capsys):
    code, out = run_cli(capsys, "verify-table", "--cases", "3", "3", "--trials", "1")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("case")] == \
        ["case  3 [pass] logarithmic-spiral profile invariants=(2, 0, 0, 2, 0)"]


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for argv in (["--seed", "-1"], ["--config", str(cfg)]):
        assert main(["verify-case", "1"] + argv) == 2, argv
        assert capsys.readouterr().err == "error: seed must be >= 0\n", argv


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "schsym.cli", "residual",
                           "0", '{"rho": "1"}'], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "symmetry: yes" in proc.stdout


# the field specs G1 and G2 of the CI workflow's pinned bracket outputs
G1 = ('{"tau":"t^2 + 1","kappa":"1","chi":["sin(t)","t*cos(t)"],'
      '"sigma":"exp(t)","rho":"t^(1/3)"}')
G2 = ('{"tau":"exp(2*t)","kappa":"-2","chi":["cos(t)","t^(3/2)"],'
      '"sigma":"sin(t)*t","rho":"cos(t)"}')


def test_generic_bracket_interns_a_pinned_node_count():
    """A change of intern key that splits or merges nodes changes this count;
    the CI workflow runs this test under two hash seeds."""
    code = ("import json; from schsym import cli, expr; from schsym.fields import "
            "bracket_generic, expand; tbl = expr.SymbolTable(); "
            f"g1, g2 = (cli._load_generator(json.loads(s), tbl, 2) for s in ({G1!r}, {G2!r})); "
            "n = len(expr._INTERN); bracket_generic(expand(g1), expand(g2)); "
            "print(len(expr._INTERN) - n)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # G2's kappa, the constant -2, is interned when G2 loads, before the count
    assert proc.stdout == "248\n"


def test_bracket_text_pins_normal_form_term_order(capsys):
    # printed term order is the normal-form order of sum_/prod
    code, out = run_cli(capsys, "bracket", G1, G2)
    assert code == 0
    assert out == "; ".join([
        "[g1, g2] = tau: 2*(1 + t^2)*exp[1](2*t) - 2*exp(2*t)*t",
        "kappa: ['0']",
        "chi: ['(1 + t^2)*cos[1](t) + t*cos(t) - exp(2*t)*sin[1](t)"
        " + exp[1](2*t)*sin(t) + |t|^(3/2)', "
        "'3/2*(1 + t^2)*|t|^(1/2)*sgn(t) - t*|t|^(3/2)"
        " - exp(2*t)*(cos(t) + t*cos[1](t)) + exp[1](2*t)*t*cos(t) - cos(t) - 2*sin(t)']",
        "sigma: (1 + t^2)*(sin[1](t)*t + sin(t)) - exp(2*t)*exp[1](t)"
        " + 1/2*sin(t)*cos[1](t) - 1/2*cos(t)*sin[1](t) + 3/4*t*cos(t)*|t|^(1/2)*sgn(t)"
        " - 1/2*|t|^(3/2)*(cos(t) + t*cos[1](t))",
        "rho: (1 + t^2)*cos[1](t) - 1/3*exp(2*t)*|t|^(-2/3)*sgn(t)",
    ]) + "\n"


def test_malformed_kappa_exits_2(capsys):
    for kappa in ('["1"]', '["1/3"]', "[[0, 1]]", "1e999"):
        code = main(["invariants", NONCLOSED_KAPPA.format(kappa)])
        err = capsys.readouterr().err
        assert code == 2, kappa
        assert err == "error: kappa must be a scalar or an n x n matrix\n"


def test_kappa_matrix_matches_scalar(capsys):
    code, out = run_cli(capsys, "invariants",
                        FREE_FIELDS.replace('"kappa":"1"', '"kappa":[[0, 1], [-1, 0]]'),
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [payload[k] for k in ("k0", "k1", "k2", "k3", "r0")] == [2, 4, 1, 3, 2]


@pytest.mark.parametrize("n", [1, 3])
def test_field_specs_load_at_n_1_and_3(capsys, n):
    zeros, flag = ["0"] * (n - 1), ("--n", str(n))
    code, out = run_cli(capsys, "residual", "x1^2", '{"tau":"1"}', *flag)
    assert code == 0 and "symmetry: yes" in out
    g2 = json.dumps({"tau": "t", "chi": ["t"] + zeros})
    code, out = run_cli(capsys, "bracket", '{"tau":"1"}', g2, "--check", *flag)
    assert code == 0 and "agrees" in out
    # M, I, P(1) and D(1): the span of a time-independent potential
    fields = json.dumps([{"sigma": "1"}, {"rho": "1"}, {"chi": ["1"] + zeros}, {"tau": "1"}])
    code, out = run_cli(capsys, "invariants", fields, "--format", "json", *flag)
    assert code == 0
    assert [json.loads(out)[k] for k in ("k0", "k1", "k2", "k3", "r0")] == [2, 1, 0, 1, 1]


def test_nonzero_scalar_kappa_at_n_1_exits_2(capsys):
    code = main(["residual", "x1^2", '{"kappa":1}', "--n", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: kappa must be 0 at n = 1, which has no rotations\n"


# the required arguments of every subcommand
REQUIRED_ARGS = {"verify-table": [], "verify-case": ["1"], "residual": ["0", "{}"],
                 "bracket": ["{}", "{}"], "transform": ["0", "{}"], "invariants": ["[]"],
                 "groupoid": ["normalized", "all"]}


# each command's library call and the RunConfig field behind each default
LIBRARY_DEFAULTS = {
    "verify-table": (case_mod.verify_table, {"draws": "trials", "seed": "seed", "points": "points",
                                             "zero_trials": "bindings", "tol": "tol"}),
    "verify-case": (case_mod.verify_case, {"draws": "trials", "points": "points",
                                           "zero_trials": "bindings", "tol": "tol"}),
    "residual": (max_normalized_residual, {"trials": "trials", "points": "points"}),
    "bracket": (is_zero, {"trials": "trials", "tol": "tol", "points": "points"}),
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_flag_defaults_are_run_config_defaults(command):
    args = cli.build_parser().parse_args([command] + REQUIRED_ARGS[command])
    assert cli._run_config(args) == cli.RunConfig()
    # the library functions the command calls default to the same values
    fn, fields = LIBRARY_DEFAULTS.get(command, (None, {}))
    for param, field in fields.items():
        default = inspect.signature(fn).parameters[param].default
        assert default == getattr(cli.RunConfig(), field), (fn.__name__, param)


@pytest.mark.parametrize("command", ["verify-table", "verify-case", "groupoid"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_fixed_dimension_commands_reject_other_n(tmp_path, capsys, command, source):
    # verify-case 1 --n 3 used to print the n = 2 case's verdict and exit 0;
    # the case table is fixed at n = 2 and groupoid models have no space
    # dimension, so these commands offer no n
    argv = {"verify-table": ["verify-table", "--cases", "1"], "verify-case": ["verify-case", "1"],
            "groupoid": ["groupoid", "normalized", "all"]}[command]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err
        return
    config = tmp_path / "config.json"
    config.write_text('{"n": 3}')
    err = _assert_one_error_line(capsys, main(argv + ["--config", str(config)]))
    keys = "format" if command == "groupoid" else "trials, bindings, points, tol, seed, format"
    assert err == f"error: unknown config key 'n'; expected keys among {keys}\n"


# every per-command option, and the ones each command offers besides
# --format and --config: those that can change its output
ALL_OPTIONS = ("n", "trials", "bindings", "points", "tol", "seed", "format", "config", "declare")
OFFERED = {"verify-table": {"trials", "bindings", "points", "tol", "seed"},
           "verify-case": {"trials", "bindings", "points", "tol", "seed"},
           "residual": {"n", "trials", "points", "tol", "seed", "declare"},
           "bracket": {"n", "trials", "points", "tol", "seed", "declare"},
           "transform": {"n", "seed", "declare"},
           "invariants": {"n", "tol", "seed", "declare"},
           "groupoid": set()}
# a valid value of each option, as a flag argument and as a config value
OPTION_VALUES = {"n": 2, "trials": 1, "bindings": 1, "points": 8, "tol": 1e-8, "seed": 1,
                 "format": "json", "config": None, "declare": None}


def test_each_command_offers_only_the_options_it_reads(tmp_path, capsys):
    # --declare on verify-case and --points on transform used to be read
    # by no one: verify-case 1 --declare /nonexistent.json exited 0
    config, decls = tmp_path / "config.json", tmp_path / "decls.json"
    config.write_text("{}")
    decls.write_text("[]")
    files = {"config": str(config), "declare": str(decls)}
    parser = cli.build_parser()
    pairs = [(command, name) for command in REQUIRED_ARGS for name in ALL_OPTIONS]
    offered = [pair for pair in pairs if pair[1] in OFFERED[pair[0]] | {"format", "config"}]
    assert (len(pairs), len(offered)) == (63, 43)
    for command, name in pairs:
        value = files.get(name, OPTION_VALUES[name])
        argv = [command, *REQUIRED_ARGS[command], f"--{name}", str(value)]
        if (command, name) in offered:
            args = parser.parse_args(argv)
            assert cli._run_config(args).format in ("text", "json")
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"unrecognized arguments: --{name}" in capsys.readouterr().err
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({name: value}))
        err = _assert_one_error_line(capsys, main([command, *REQUIRED_ARGS[command],
                                                   "--config", str(unknown)]))
        assert err.startswith(f"error: unknown config key {name!r}"), (command, err)


def test_report_does_not_depend_on_process_history(capsys):
    # interned nodes and their derivatives outlive a command and may change
    # its speed only, and the inverse time maps made before it may not
    # change its names
    commands = [
        # the table's verdicts, ranks and side conditions
        (["verify-table", "--cases", "1", "13", "--trials", "1", "--format", "json"], 0),
        # a failing report prints residual floats and witness points
        (["verify-case", "16", "--trials", "2", "--tol", "1e-30", "--format", "json"], 1),
        # the potential names its inverse time map Tinv1
        (["transform", "x1^2 + t*x2", '{"T":"2*t + sin(t)/4"}', "--format", "json"], 0),
        # the rank layer: integers only, from one sample of the span
        (["invariants", R0_TWO_SPAN, "--format", "json"], 0),
        # a witness point and residual floats
        (["residual", "t*x1 + x2^2", CASE7_FIELD, "--format", "json"], 0),
        # exact bracket text and the generic oracle's verdict
        (["bracket", '{"tau":"t^2","chi":["sin(t)","t"]}', '{"tau":"exp(t)","rho":"t"}',
          "--check", "--format", "json"], 0),
        # every groupoid check of one fixture
        (["groupoid", "non_disjoint_semi", "all", "--format", "json"], 1),
    ]
    for argv, code in commands:
        fresh = subprocess.run([sys.executable, "-m", "schsym.cli", *argv],
                               capture_output=True, text=True)
        assert fresh.returncode == code, fresh.stderr
        run_cli(capsys, "verify-table", "--cases", "3")
        run_cli(capsys, "transform", "x1", '{"T":"t + t^3/3"}')
        for _ in range(2):
            assert run_cli(capsys, *argv) == (code, fresh.stdout)


def test_unsafe_samples_exit_2(capsys):
    # log is undefined at every sample: one error line, no traceback, and
    # no generator silently dropped from the span
    code = main(["invariants", '[{"sigma":"1"},{"rho":"1"},{"tau":"log(t-2)"}]'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: generator 2: tau is singular or undefined")
    assert captured.err.count("\n") == 1
    code = main(["residual", "log(-1-t^2)", '{"tau":"1"}'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_malformed_field_spec_exits_2(capsys):
    # an unknown key used to be dropped, so the zero field was checked instead
    err = _assert_one_error_line(capsys, main(["residual", "x1^2", '{"tua":"1"}']))
    assert "'tua'" in err
    for argv in (["residual", "x1^2", "[1]"], ["invariants", "[1]"],
                 ["bracket", "[1]", "{}"], ["residual", "x1^2", '{"chi":"t"}'],
                 ["invariants", '[{"sigma":"1"},{"rho":"1"},{"tau":"1","kappa":"1/0"}]']):
        _assert_one_error_line(capsys, main(argv))


def test_malformed_transform_spec_exits_2(capsys):
    for spec in ('{"sigma":"t"}', "[1,2]", '{"O":1}', '{"O":[1,0]}',
                 '{"O":[["1/0",0],[0,1]]}', '{"O":[["nan",0],[0,1]]}',
                 '{"O":[[1,1],[0,1]]}', '{"X":["t"]}', '{"X":"t"}'):
        _assert_one_error_line(capsys, main(["transform", "x1^2", spec]))


PINNED_TRANSFORM_SPEC = ('{"T":"t + 3/10*sin(t)","X":["t","0"],'
                         '"O":[["3/5","-4/5"],["4/5","3/5"]],'
                         '"Sigma":"t^2","Upsilon":"cos(t)"}')
PINNED_TRANSFORMED = "".join([
    '(((3/5*x1 - 3/5*Tinv1(t) + 4/5*x2)*|1 + 3/10*sin[1](Tinv1(t))|^(-1/2))^2'
    ' + Tinv1(t)*(-4/5*x1 + 4/5*Tinv1(t) + 3/5*x2)*|1 + '
    '3/10*sin[1](Tinv1(t))|^(-1/2))*|1 + 3/10*sin[1](Tinv1(t))|^(-1) + '
    '1/16*(3/5*sin[3](Tinv1(t))*(1 + 3/10*sin[1](Tinv1(t))) - '
    '27/100*sin[2](Tinv1(t))^2)*(1 + 3/10*sin[1](Tinv1(t)))^(-3)*(((3/5*x1 - '
    '3/5*Tinv1(t) + 4/5*x2)*|1 + 3/10*sin[1](Tinv1(t))|^(-1/2))^2 + ((-4/5*x1'
    ' + 4/5*Tinv1(t) + 3/5*x2)*|1 + 3/10*sin[1](Tinv1(t))|^(-1/2))^2) - '
    '3/20*|1 + 3/10*sin[1](Tinv1(t))|^(-1/2)*(1 + '
    '3/10*sin[1](Tinv1(t)))^(-2)*sin[2](Tinv1(t))*(3/5*(3/5*x1 - 3/5*Tinv1(t)'
    ' + 4/5*x2)*|1 + 3/10*sin[1](Tinv1(t))|^(-1/2) - 4/5*(-4/5*x1 + '
    '4/5*Tinv1(t) + 3/5*x2)*|1 + 3/10*sin[1](Tinv1(t))|^(-1/2)) + (2*Tinv1(t)'
    ' + (-i)*cos[1](Tinv1(t)))*(1 + 3/10*sin[1](Tinv1(t)))^(-1) - 1/4*(1 + '
    '3/5*i*sin[2](Tinv1(t)))*(1 + 3/10*sin[1](Tinv1(t)))^(-2)'])
# (t, x1, x2, Re value, Im value) of the five spot checks at --seed 0
PINNED_SPOTS = [
    (1.191746362250036, 1.6510223091108869, 1.2634142164861286, 3.077126582695833, 0.7795754416400505),
    (0.6777013992694184, 0.42654310306871945, -1.9890459993194076, 1.9088696546274846, 0.44683712054512514),
    (0.35736293351067255, 0.9179862439359936, 1.4296171063502774, 1.7197721023685593, 0.23582757317121986),
    (0.3231386897399407, 0.17449996586169148, -1.8656576987781426, 1.4130593930027544, 0.2132491381091039),
    (1.4385783348803813, 1.740289695151073, 0.9186217857197763, 2.934513365691436, 0.9304696964677922),
]


def test_transform_json_output_is_pinned():
    # a fresh process, so the inverse map is the first one named (Tinv1)
    proc = subprocess.run([sys.executable, "-m", "schsym.cli", "transform",
                           "x1^2 + t*x2", PINNED_TRANSFORM_SPEC, "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spots = [{"point": {"t": [t, 0.0], "x1": [x1, 0.0], "x2": [x2, 0.0]},
              "value": [re, im]} for t, x1, x2, re, im in PINNED_SPOTS]
    want = {"spot_checks": spots, "transformed": PINNED_TRANSFORMED}
    assert proc.stdout == json.dumps(want, indent=2, sort_keys=True) + "\n"


N3_TRANSFORM_SPEC = ('{"X":["sin(t)","-sin(t)/2","sin(t) + cos(t)"],'
                     '"O":[["1/3","2/3","2/3"],["2/3","1/3","-2/3"],["2/3","-2/3","1/3"]]}')
# in the inverse map's x1 row sin(t) cancels at the second step of the
# binary chain and comes back at the third: one n-ary sum prints otherwise;
# T is t, so the map's inverse time map is t itself
N3_TRANSFORMED = "".join([
    '5/3*x1 + 1/3*x2 + 1/3*x3 - 11/6*sin(t) - 1/3*cos(t) + 1/2*sin[2](t)*(x1 - '
    'sin(t)) - 1/4*sin[2](t)*(x2 + 1/2*sin(t)) + 1/2*(sin[2](t) + '
    'cos[2](t))*(x3 - sin(t) - cos(t)) - 5/16*sin[1](t)^2 - 1/4*(sin[1](t) + '
    'cos[1](t))^2'])


def test_n3_transform_text_is_pinned(capsys):
    code, out = run_cli(capsys, "transform", "x1 + x2 + x3", N3_TRANSFORM_SPEC,
                        "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["transformed"] == N3_TRANSFORMED


def test_transform_spot_checks_lie_in_the_range_of_T(capsys):
    # T = atan(t)/2 ends at pi/4, so a later t has no preimage under T;
    # such spot points used to be printed with meaningless values
    for seed in (0, 3, 7):
        code, out = run_cli(capsys, "transform", "x1^2 + t*x2", '{"T":"atan(t)/2"}',
                            "--seed", str(seed), "--format", "json")
        assert code == 0
        ts = [s["point"]["t"][0] for s in json.loads(out)["spot_checks"]]
        assert len(ts) == 5 and max(ts) < np.pi / 4, seed


def test_transform_with_no_safe_spot_point_exits_2(capsys):
    err = _assert_one_error_line(capsys, main(["transform", "log(-1 - t^2)", "{}"]))
    assert "remained unsafe" in err


def test_time_map_singular_on_the_sample_domain_exits_2(capsys):
    # the pole at t = 1 is a grid point of the orientation test
    err = _assert_one_error_line(capsys, main(["transform", "x1^2 + t*x2",
                                               '{"T":"t - 1/(t - 1)"}']))
    assert "T_t is singular on the sample domain" in err


def test_constant_too_large_for_a_float_exits_2(capsys):
    err = _assert_one_error_line(capsys, main(["residual", "10^400*x1*t", '{"tau":"1"}']))
    assert "constant 1000" in err and "too large for a float" in err
    err = _assert_one_error_line(capsys, main(["invariants", '[{"tau":"10^400"}]']))
    assert "constant 1000" in err


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text, needle in (("[1]", "JSON object"), ('{"trials":"five"}', "'trials' must be an integer"),
                         ('{"trials": true}', "'trials'"), ('{"trials": 5', "delimiter"),
                         ('{"bogus": 1}', "unknown config key 'bogus'")):
        cfg.write_text(text)
        err = _assert_one_error_line(capsys, main(["residual", "0", '{"tau":"1"}',
                                                   "--config", str(cfg)]))
        assert needle in err, text
    err = _assert_one_error_line(capsys, main(["residual", "0", '{"tau":"1"}', "--config",
                                               str(tmp_path / "missing.json")]))
    assert "missing.json" in err


def test_malformed_declarations_exit_2(tmp_path, capsys):
    decls = tmp_path / "decls.json"
    for text, needle in (('{"name":"f"}', "JSON list"), ("[1]", "declaration 0"),
                         ('[{"name":"f","arity":1}]', "'codomain'"),
                         ('[{"name":"f","arity":"one","codomain":"real"}]', "'arity'")):
        decls.write_text(text)
        err = _assert_one_error_line(capsys, main(["residual", "0", '{"tau":"1"}',
                                                   "--declare", str(decls)]))
        assert needle in err, text


def test_malformed_groupoid_model_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    for text, needle in (("[1]", "JSON object"), ('{"objects": ["a"]}', "missing 'arrows'"),
                         ('{"objects":["a"],"arrows":[{"src":"a","label":"e"}],'
                          '"mult":[],"H":[],"N":{}}', "arrow 0 is missing 'tgt'"),
                         ('{"objects":["a"],"arrows":[{"src":"a","label":"e","tgt":"a"}],'
                          '"mult":[[0,0,1]],"H":[0],"N":{}}', "'mult'")):
        model.write_text(text)
        err = _assert_one_error_line(capsys, main(["groupoid", str(model), "all"]))
        assert needle in err, text


def test_broken_json_file_is_named(tmp_path, capsys):
    cfg, decls = tmp_path / "cfg.json", tmp_path / "decls.json"
    good_cfg, good_decls = '{"trials": 2}', '[{"name": "g", "arity": 1, "codomain": "real"}]'
    for broken, cfg_text, decl_text in ((cfg, '{"trials": 2', good_decls),
                                        (decls, good_cfg, '[{"name": "g"')):
        cfg.write_text(cfg_text)
        decls.write_text(decl_text)
        err = _assert_one_error_line(capsys, main(["residual", "0", '{"tau":"1"}',
                                                   "--config", str(cfg),
                                                   "--declare", str(decls)]))
        assert err.startswith(f"error: {broken}: "), err
    spec = tmp_path / "spec.json"
    spec.write_text('{"tau": ')
    err = _assert_one_error_line(capsys, main(["residual", "0", str(spec)]))
    assert err.startswith(f"error: {spec}: "), err
    model = tmp_path / "model.json"
    model.write_text('{"objects": ["a"],')
    err = _assert_one_error_line(capsys, main(["groupoid", str(model), "all"]))
    assert err.startswith(f"error: {model}: "), err


ZERO_DIVISORS = ("1/0", "t/0", "0^(-1)", "t^(1/0)", "|0|^(-1/2)")
# powers beyond the parser's bound on the exponent and on an exact value,
# and literals beyond its bound on digits
HUGE_POWERS = ("(3/2)^100001", "t^-100001", "t^(200001/2)", "((3/2)^100000)^2",
               "1" * 4301, "1" * 4000 + "." + "1" * 301)


def test_exact_zero_divisor_exits_2(capsys):
    # these used to exit 1 with a ZeroDivisionError traceback
    for potential in ZERO_DIVISORS:
        code = main(["residual", potential, '{"tau":"1"}'])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", potential
        assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1


def test_json_booleans_are_not_numbers(tmp_path, capsys):
    # bool subclasses int: kappa = true and O = [[true, false], ...] used to
    # be read as 1 and the identity, and exit 0
    decls = tmp_path / "decls.json"
    decls.write_text('[{"name": "f", "arity": true, "codomain": "real"}]')
    model = model_to_json(load_fixture("normalized"))
    model["H"] = [True]
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(model))
    for argv in (["invariants", NONCLOSED_KAPPA.format("true")],
                 ["transform", "x1^2", '{"O":[[true,false],[false,true]]}'],
                 ["residual", "0", '{"tau":"1"}', "--declare", str(decls)],
                 ["groupoid", str(model_file), "all"]):
        _assert_one_error_line(capsys, main(argv))


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_tol_out_of_range_exits_2(capsys, tol):
    # --tol inf used to print "symmetry: yes" for a residual of 0.67
    err = _assert_one_error_line(capsys, main(["residual", "t*x1", '{"tau":"1"}',
                                               "--tol", tol]))
    assert err == "error: tol must be a finite number > 0\n"


@pytest.mark.parametrize("tol", ["0", "-1", "-1" + "0" * 400])
def test_config_tol_out_of_range_exits_2(tmp_path, capsys, tol):
    # the flag's check; a JSON integer too large for a float is compared,
    # not converted, so it cannot raise OverflowError
    config = tmp_path / "config.json"
    config.write_text(f'{{"tol": {tol}}}')
    err = _assert_one_error_line(capsys, main(["residual", "t*x1", '{"tau":"1"}',
                                               "--config", str(config)]))
    assert err == "error: tol must be a finite number > 0\n"


@pytest.mark.parametrize("key, value, message", [
    ("n", 10, "n must be between 1 and 9"),
    ("n", 100000000000, "n must be between 1 and 9"),
    ("points", 100001, "points must be <= 100000"),
    ("points", 100000000000, "points must be <= 100000")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_config_upper_bounds_exit_2(tmp_path, capsys, key, value, message, source):
    # psi_10 does not reparse, and the huge values used to end in a
    # MemoryError traceback
    if source == "flag":
        extra = [f"--{key}", str(value)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        extra = ["--config", str(config)]
    err = _assert_one_error_line(capsys, main(["residual", "t*x1", '{"tau":"1"}', *extra]))
    assert err == f"error: {message}\n"


def test_residual_of_a_200_deep_potential_exits_0(capsys):
    # diff used to recurse once per level and raise RecursionError at the
    # first, and the parser near 250 levels at the other two
    for potential, field in (("sin(x1 + " * 200 + "t" + ")" * 200, '{"chi":["1","t"]}'),
                             ("(" * 5000 + "x1" + ")" * 5000, '{"chi":["1","0"]}'),
                             ("sin(x1 + " * 1000 + "t" + ")" * 1000, '{"rho":"1"}')):
        code, out = run_cli(capsys, "residual", potential, field, "--format", "json")
        assert code == 0 and json.loads(out)["potential"] == potential


def test_printing_a_400_deep_residual_peaks_near_its_output_size(capsys):
    # the printer kept the text of every node, each holding the text of the
    # level below: a peak of about 270 times the 0.81 MB it printed
    potential = "sin(x1 + " * 400 + "t" + ")" * 400
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "residual", potential, '{"chi":["1","t"]}', "--format", "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(out) > 800_000
    assert peak < 20 * len(out)


def test_rationals_beyond_a_float_exit_2_at_once(capsys):
    # a kappa or O entry of "1e400" used to end in an OverflowError
    # traceback, and "1e10000000" took 12 s in Fraction before it passed
    for value in ('"1e400"', '"-1e400"', '"1e10000000"', '"1e-10000000"', "1" + "0" * 399):
        start = time.perf_counter()
        _assert_one_error_line(capsys, main(["invariants", NONCLOSED_KAPPA.format(value)]))
        O = f'{{"O": [[{value}, 0], [0, 1]]}}'
        _assert_one_error_line(capsys, main(["transform", "x1^2", O]))
        assert time.perf_counter() - start < 1, value


# Valid inputs; the fuzz test below breaks exactly one rule of one of them.
VALID_FIELD = {"tau": "t", "kappa": "1", "chi": ["t", "0"], "sigma": "1", "rho": "t",
               "eta0": None}
VALID_TRANSFORM = {"T": "2*t", "O": [["3/5", "-4/5"], ["4/5", "3/5"]], "X": ["t", "0"],
                   "Sigma": "t", "Upsilon": "1"}
# the config of the residual command, whose --config the fuzz test breaks
VALID_CONFIG = {"n": 2, "trials": 1, "points": 8, "tol": 1e-8, "seed": 1, "format": "json"}
VALID_DECLARATION = {"name": "U", "arity": 1, "codomain": "real"}
# no key takes a boolean or a non-finite number
ALWAYS_BAD = (True, False, float("nan"), float("inf"))
# wrong types, nested and wrong-length lists, empty strings and rationals
# beyond a float; a value is drawn only for keys that reject it, so no draw
# can ask for a huge trial count or exponent
BAD_VALUES = ALWAYS_BAD + (None, {}, [], [[]], [["t"]], ["t"], ["t", "0", "0"],
                           [[True, 0], [0, 1]], [[1, 0], [0]], "", "1e400", "1e10000000",
                           10 ** 399)
UNKNOWN_KEYS = ("tua", "Tau", "", "kappa ")
FUZZ_TARGETS = ("potential", "field", "bracket", "invariants", "transform", "config",
                "declare", "groupoid")


def _bad_value(data, test, grammar: bool):
    """A value that fails test, or that no key takes; with grammar, also
    strings that fail to parse."""
    pool = [v for v in BAD_VALUES + ZERO_DIVISORS + HUGE_POWERS
            if not test(v) or (grammar and isinstance(v, str))]
    return data.draw(st.sampled_from(ALWAYS_BAD) | st.sampled_from(pool))


def _break_object(data, obj: dict, schema: dict, required=(), grammar=False):
    """obj with one rule of schema broken: a bad value, an unknown or missing
    key, or the whole object replaced by a non-object."""
    obj = dict(obj)
    kind = data.draw(st.sampled_from(("value", "unknown", "whole")
                                     + (("missing",) if required else ())))
    if kind == "value":
        key = data.draw(st.sampled_from(sorted(schema)))
        obj[key] = _bad_value(data, schema[key][0], grammar)
    elif kind == "unknown":
        obj[data.draw(st.sampled_from([k for k in UNKNOWN_KEYS if k not in schema]))] = "1"
    elif kind == "missing":
        del obj[data.draw(st.sampled_from(sorted(required)))]
    else:
        return data.draw(st.sampled_from([v for v in BAD_VALUES if v != {}]))
    return obj


def _break_model(data, model: dict):
    """The groupoid model with one shape rule or cross-reference broken."""
    model = json.loads(json.dumps(model))
    count = len(model["arrows"])
    kind = data.draw(st.sampled_from(("shape", "endpoint", "arrow", "mult", "H", "Hbar", "N")))
    if kind == "shape":
        return _break_object(data, model, _MODEL, required=list(_MODEL)[:-1])
    i = data.draw(st.integers(0, count - 1))
    if kind == "endpoint":
        model["arrows"][i][data.draw(st.sampled_from(("src", "tgt")))] = "zz"
    elif kind == "arrow":
        arrow = {key: (lambda v: isinstance(v, str), "") for key in ("src", "label", "tgt")}
        model["arrows"][i] = _break_object(data, model["arrows"][i], arrow, required=arrow)
    elif kind == "N":
        model["N"]["zz"] = ["e"]
    else:
        bad = data.draw(st.sampled_from((count, -1)))
        model[kind].append([i, i, bad] if kind == "mult" else bad)
    return model


def _broken_argv(data, target: str, tmp) -> list:
    """Command-line arguments whose target input breaks one rule."""
    field, transform = cli._spec_schemas(2)
    fields = json.dumps(VALID_FIELD)
    if target == "potential":
        bad = data.draw(st.sampled_from(ZERO_DIVISORS + HUGE_POWERS + ("",)))
        if data.draw(st.booleans()):
            return ["residual", bad, fields]
        return ["transform", bad, json.dumps(VALID_TRANSFORM)]
    if target in ("field", "bracket", "invariants"):
        spec = json.dumps(_break_object(data, VALID_FIELD, field, grammar=True))
        pair = data.draw(st.permutations([fields, spec]))
        return {"field": ["residual", "x1^2", spec], "bracket": ["bracket"] + pair,
                "invariants": ["invariants", "[" + ",".join(pair) + "]"]}[target]
    if target == "transform":
        spec = _break_object(data, VALID_TRANSFORM, transform, grammar=True)
        return ["transform", "x1^2", json.dumps(spec)]
    if target == "config":
        config = {f.name: cli._CONFIG_TYPES[f.type]
                  for f in dataclasses.fields(cli.RunConfig) if f.name in VALID_CONFIG}
        content = _break_object(data, VALID_CONFIG, config)
    elif target == "declare":
        decls = [VALID_DECLARATION, _break_object(data, VALID_DECLARATION, _DECLARATION,
                                                  required=_DECLARATION)]
        # or a lone declaration where the list belongs
        content = data.draw(st.sampled_from((decls, VALID_DECLARATION)))
    else:
        content = _break_model(data, model_to_json(load_fixture("normalized")))
    path = tmp / f"{target}.json"
    path.write_text(json.dumps(content))
    if target == "groupoid":
        return ["groupoid", str(path), "all"]
    return ["residual", "0", fields, f"--{target}", str(path)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_malformed_input_fuzz_exits_2(tmp_path_factory, data):
    """Every input with one broken rule exits 2 with one stderr line."""
    tmp = tmp_path_factory.getbasetemp()
    for target in FUZZ_TARGETS:
        argv = _broken_argv(data, target, tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, (argv, err.getvalue())
