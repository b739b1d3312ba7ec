"""Tests of the benchmark's tracer and of trace determinism.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import schsym  # noqa: E402
import schsym.cli  # noqa: E402,F401
from tracer import TARGETS, Tracer, resolve, span_name, summarize  # noqa: E402


def _original(module, path):
    owner, attr = resolve(module, path)
    return vars(owner)[attr]


def _schsym_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "schsym" or name.startswith("schsym."))]


def test_no_schsym_binding_escapes_the_tracer():
    originals = {id(_original(m, p)): span_name(m, p) for m, p in TARGETS}
    with Tracer():
        for mod in _schsym_modules():
            for key, val in vars(mod).items():
                assert id(val) not in originals, \
                    f"{mod.__name__}.{key} still points at untraced {originals[id(val)]}"
        for module, path in TARGETS:
            assert hasattr(_original(module, path), "__wrapped__"), span_name(module, path)
    # the from-imports that motivated the scan really are rebound copies
    assert schsym.fields.eval_batch is schsym.numeric.eval_batch
    assert schsym.cases.eval_batch is schsym.numeric.eval_batch


def test_originals_restored_by_identity():
    before = [_original(m, p) for m, p in TARGETS]
    bindings = {(mod.__name__, key): val for mod in _schsym_modules()
                for key, val in vars(mod).items() if isinstance(val, types.FunctionType)}
    with Tracer():
        pass
    after = [_original(m, p) for m, p in TARGETS]
    assert all(a is b for a, b in zip(before, after))
    for (modname, key), val in bindings.items():
        assert vars(sys.modules[modname])[key] is val, f"{modname}.{key}"


def test_originals_restored_after_an_exception():
    before = [_original(m, p) for m, p in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(a is _original(m, p) for a, (m, p) in zip(before, TARGETS))


def test_self_time_nested_and_recursive_spans():
    # eval_batch [0, 10] -> InverseImpl.deriv [1, 9] -> eval_batch [2, 5]
    #                                                -> eval_batch [6, 8]
    # then a sibling eval_batch [11, 12] at the root
    names = ["eval_batch", "InverseImpl.deriv"]
    ids = [0, 1, 0, 0, 0]
    parents = [-1, 0, 1, 1, -1]
    starts = [0.0, 1.0, 2.0, 6.0, 11.0]
    ends = [10.0, 9.0, 5.0, 8.0, 12.0]
    got = summarize(names, ids, parents, starts, ends)
    # total: the outer eval_batch counts once (10) plus the sibling (1)
    assert got["eval_batch"] == (4, 11.0, (10 - 8) + 3 + 2 + 1)
    assert got["InverseImpl.deriv"] == (1, 8.0, 8 - 3 - 2)


def test_self_time_direct_recursion():
    # f [0, 8] -> f [1, 7] -> f [2, 3]; self times 2, 5, 1
    got = summarize(["f"], [0, 0, 0], [-1, 0, 1], [0.0, 1.0, 2.0], [8.0, 7.0, 3.0])
    assert got["f"] == (3, 8.0, 8.0)


def test_live_trace_counts_and_parents():
    import numpy as np
    from schsym.expr import T_VAR, var
    from schsym.numeric import InverseImpl, Workspace, is_zero

    impl = InverseImpl(var(T_VAR) * 2, Workspace().binding)
    with Tracer() as tr:
        impl.deriv((0,), (np.array([0.5, 1.0]),))
    m = tr.layer_metrics()
    assert m["numeric.InverseImpl.deriv.calls"] == 1
    assert m["numeric.inverse_eval_calls"] == m["numeric.eval_batch.calls"] > 0
    # self times partition the root span's interval
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) \
        == pytest.approx(m["numeric.InverseImpl.deriv.total_s"], rel=1e-9)

    with Tracer() as tr:
        is_zero(var(T_VAR) * 2, trials=3, points=7, rng=np.random.default_rng(0))
    m = tr.layer_metrics()
    assert m["numeric.draw_env.calls"] == 3
    assert m["numeric.resample_rounds"] == 0
    assert m["numeric.eval_points"] == 21
    assert m["numeric.inverse_eval_calls"] == 0


def _trace_counts(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"}


@pytest.mark.parametrize("workload", ["table", "brackets", "transforms"])
def test_traced_runs_repeat_counts_exactly(workload):
    first, second = _trace_counts(workload), _trace_counts(workload)
    assert first == second
    assert first["expr.interned_nodes"] > 0
