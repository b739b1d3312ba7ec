"""Per-layer tracing of schsym from outside the program.

A ``Tracer`` replaces each traced function with a wrapper that records one
span per call: name, start, end and the span that was open when the call
began (its parent).  The wrapper is bound wherever a schsym module binds the
original, so ``from .numeric import eval_batch`` copies in ``fields``,
``cases`` and ``cli`` are traced too; traced methods are replaced on their
class.  Leaving the ``with`` block puts every original back.

Spans are kept in flat arrays while the program runs and are summarized
afterwards by ``summarize``: per span name the number of calls, the total
time (a span nested inside a span of the same name is not counted again)
and the self time (span duration minus the time covered by its direct
children).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

# (module, attribute path); the span name is the module's last component
# followed by the attribute path, e.g. "numeric.InverseImpl.deriv".
TARGETS = (
    ("schsym.parsing", "parse"),
    ("schsym.expr", "sum_"),
    ("schsym.expr", "prod"),
    ("schsym.expr", "const"),
    ("schsym.expr", "diff"),
    ("schsym.expr", "subst"),
    ("schsym.expr", "total_derivative"),
    ("schsym.numeric", "eval_batch"),
    ("schsym.numeric", "max_normalized_residual"),
    ("schsym.numeric", "draw_env"),
    ("schsym.numeric", "InverseImpl.deriv"),
    ("schsym.numeric", "AntiderivImpl.deriv"),
    ("schsym.numeric", "ExprImpl.deriv"),
    ("schsym.funcbank", "ConstImpl.deriv"),
    ("schsym.funcbank", "ExpPolyImpl.deriv"),
    ("schsym.funcbank", "TrigPolyND.deriv"),
    ("schsym.funcbank", "_CosImpl.deriv"),
    ("schsym.funcbank", "_SinImpl.deriv"),
    ("schsym.funcbank", "_ExpImpl.deriv"),
    ("schsym.funcbank", "_LogImpl.deriv"),
    ("schsym.funcbank", "_AtanImpl.deriv"),
    ("schsym.fields", "bracket_structural"),
    ("schsym.fields", "bracket_generic"),
    ("schsym.fields", "expand"),
    ("schsym.fields", "coefficient_rows"),
    ("schsym.conditions", "classifying_residual"),
    ("schsym.conditions", "prolonged_residual"),
    ("schsym.conditions", "invariants"),
    ("schsym.equivalence", "act_on_potential"),
    ("schsym.equivalence", "compose"),
    ("schsym.equivalence", "invert"),
    ("schsym.equivalence", "potentials_agree"),
    ("schsym.equivalence", "pushforward"),
    ("schsym.cases", "instantiate"),
    ("schsym.cases", "verify_case"),
    ("schsym.closedform", "exppoly_to_expr"),
    ("numpy.linalg", "svd"),
)

EXPR_CONSTRUCTORS = ("expr.sum_", "expr.prod", "expr.const")


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def resolve(module: str, path: str):
    """(owner, attribute name) of a target: its module, or its class."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _schsym_modules():
    import schsym

    for info in pkgutil.iter_modules(schsym.__path__, "schsym."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "schsym" or name.startswith("schsym."))]


def _batch_length(args, kwargs) -> int:
    """Points in one eval_batch call, by eval_batch's own rule."""
    env = kwargs["env"] if "env" in kwargs else args[2]
    if env:
        return len(next(iter(env.values())))
    return kwargs.get("count", args[3] if len(args) > 3 else 1)


class Tracer:
    """Context manager that traces ``TARGETS`` while it is active.

    ``modules`` are rebound along with schsym's own modules: a caller that
    imported traced functions by name passes its own module here.
    """

    def __init__(self, modules=()):
        self.modules = tuple(modules)
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {"numeric.eval_points": 0, "numeric.first_draws": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            if observe is not None:
                observe(args, kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _observer(self, name: str, fn):
        counts = self.counts
        if name == "numeric.eval_batch":
            def observe(args, kwargs):
                counts["numeric.eval_points"] += _batch_length(args, kwargs)
            return observe
        if name == "numeric.max_normalized_residual":
            sig = inspect.signature(fn)

            def observe(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["numeric.first_draws"] += (bound.arguments["trials"]
                                                  * bound.arguments["bindings_per_trial"])
            return observe
        return None

    def __enter__(self):
        modules = _schsym_modules() + list(self.modules)
        try:
            for module, path in TARGETS:
                name = span_name(module, path)
                owner, attr = resolve(module, path)
                orig = vars(owner)[attr]
                wrapper = self._wrap(name, orig, self._observer(name, orig))
                self._patch(owner, attr, wrapper)
                if "." in path:  # a method: replacing it on its class suffices
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self._unpatch()
            raise
        return self

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _unpatch(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __exit__(self, *exc):
        self._unpatch()
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls/total_s/self_s and the derived span counts."""
        stats = summarize(self.names, self.name_ids, self.parents, self.starts, self.ends)
        out: dict[str, float] = {}
        for name in self.names:
            calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out["numeric.eval_points"] = self.counts["numeric.eval_points"]
        out["numeric.inverse_eval_calls"] = self.child_calls(
            "numeric.eval_batch", "numeric.InverseImpl.deriv")
        out["numeric.resample_rounds"] = self.child_calls(
            "numeric.draw_env", "numeric.max_normalized_residual") \
            - self.counts["numeric.first_draws"]
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        if child not in self.names or parent not in self.names:
            return 0
        cid, pid = self.names.index(child), self.names.index(parent)
        ids, parents = self.name_ids, self.parents
        return sum(1 for i, p in enumerate(parents)
                   if ids[i] == cid and p >= 0 and ids[p] == pid)


def summarize(names, name_ids, parents, starts, ends) -> dict[str, tuple[int, float, float]]:
    """(calls, total_s, self_s) per span name.

    Spans are indexed in the order they began, so a parent's index is below
    its children's.  Total time counts only the outermost span of each
    recursive chain of one name; self time subtracts direct children.
    """
    n = len(name_ids)
    child_time = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_time[p] += ends[i] - starts[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    on_path = [0] * len(names)
    path: list[int] = []
    for i in range(n):
        p = parents[i]
        while path and path[-1] != p:
            on_path[name_ids[path.pop()]] -= 1
        nid = name_ids[i]
        dur = ends[i] - starts[i]
        calls[nid] += 1
        if on_path[nid] == 0:
            total[nid] += dur
        self_s[nid] += dur - child_time[i]
        on_path[nid] += 1
        path.append(i)
    return {names[k]: (calls[k], total[k], self_s[k])
            for k in range(len(names)) if calls[k]}
