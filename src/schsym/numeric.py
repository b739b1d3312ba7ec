"""Randomized numeric evaluation and the probabilistic zero test.

Identities are decided by evaluating expressions at random sample points
with random surrogate functions bound to abstract symbols.  Values are
normalized by (1 + max |subterm|) so the tolerance is scale-free.  Points
where sgn/abs-power/log hit a near-zero base are rejected and redrawn.

``eval_batch`` runs the compiled tape of a tuple of roots: one iterative
post-order program over the distinct nodes of the union of their DAGs,
each shared node computed once, with children referenced by slot, so
evaluation has no recursion and no depth limit.  A bare root is the
1-tuple of itself, whose run gives 1-d values and scale.  One run gives
every root's row and its own subterm scale (``fields.coefficient_rows``
samples a draw's coefficients and their t-derivatives this way, without
the scales), and every run folds its scales and its non-finite check in
one function, ``_fold``.  The zero test takes a tuple of roots, a bare
root as its 1-tuple: one draw of surrogates and points over the union of
their symbols and variables, redrawn where any root is unsafe, and one
run of their tape, whose rows and scales give each root its own worst
value and witness.  ``max_normalized_residual`` draws the trials of one
test, and ``cases.verify_case`` those of a group of draws, in turn
(``draw_trial``), and one evaluator, ``eval_resampling``, runs the tape
once over all of their points, each block of points with its own binding
(``StackedBinding``), within one buffer cap (``STACK_ELEMS``), then
redraws the unsafe points block by block and runs again: every operation
and every impl is pointwise, so each block's values, scales and witness
are those of its own run.  One draw is a stack of one; only a larger
stack that meets an unsafe point draws its redraws after all of its draws.
``eval_batch`` keeps nothing; a caller that evaluates a root again owns
its tapes in a plain dict (``owned_tape``), as ``cases.verify_case`` does
across its draws, and hands the tape in.
Constants are converted to ``complex128`` once per node (``Const.value``),
not once per tape.  The rules of each operation (the ``EPS_UNSAFE`` cuts,
scalar or array constants, function masks, non-finite values) live in
``_execute``, ``_Tape`` and ``_magnitudes``, which every evaluation runs.

``ExprImpl`` owns the tapes of its expression's t-derivatives (an
``AntiderivImpl`` is the ``ExprImpl`` of its integrand), ``InverseImpl``
those of T, of the tuple (T, T') and of each chain-rule root H_k, so each
compiles once per impl, and runs them through ``eval_batch``: one run of T
at both ends of every bracket, concatenated, and one run of (T, T') per
Newton step.  ``InverseImpl``'s root solve
reads only real values of T and T', so it runs them at float64 points, and
the tape decides (``_Tape.run_real``): a real one with builtin functions
and integer powers below 100 in size runs on a float64 buffer, through the
same ``_execute`` rules, with no subterm scale and no mask.  That run is
the real part of the complex one bit for bit: at real points every
imaginary part of the complex run is a zero, so float sums and products,
the real cos and sin, and the real parts of integer powers and the other
functions taken in complex round as the complex run does.  Only a zero's
sign, or a non-finite value, can tell them apart, and there (a zero root,
a non-finite row) the complex program runs instead.  H_k values and the
zero tests stay complex.
"""
from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import expr, funcbank
from .expr import (
    AbsPow,
    Conj,
    Const,
    Expr,
    FuncApp,
    FunctionSymbol,
    IntPow,
    Product,
    Sign,
    Sum,
    SymbolTable,
    T_VAR,
    Var,
    VarId,
    ZERO,
    diff,
    int_pow,
    jet_var,
    post_order,
    var,
)
from .parsing import var_name

T_RANGE = (0.3, 1.7)
X_RANGE = (-2.0, 2.0)
JET_RADIUS = 1.0
EPS_UNSAFE = 1e-9
# the interval in which an inverse time map's root solve seeks the preimages
SOLVE_BRACKET = (-60.0, 60.0)
# run defaults, read by cases and by the CLI's RunConfig: zero-test
# tolerance, trials (random draws), bindings per trial, points per batch
DEFAULT_TOL = 1e-8
DEFAULT_TRIALS = 5
DEFAULT_BINDINGS = 1
DEFAULT_POINTS = 100
RETRY_BUDGET = 12


class UnsafeSampleError(RuntimeError):
    """Raised when resampling cannot avoid singular sample points."""


class UnboundSymbolError(KeyError):
    """A function symbol has no implementation in the binding."""
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class Binding:
    """Map from function symbols to numeric implementations.

    Builtins (cos, sin, exp, log, atan, pi) are always present.
    """

    def __init__(self, impls: Optional[Mapping[FunctionSymbol, funcbank.FunctionImpl]] = None):
        self._impls: dict[FunctionSymbol, funcbank.FunctionImpl] = {}
        if impls:
            self._impls.update(impls)
        # the number of binds so far: a value cached by an impl (InverseImpl's
        # last solve) keys on it, so a bind makes it stale
        self._binds = 0

    def bind(self, sym: FunctionSymbol, impl: funcbank.FunctionImpl) -> None:
        self._impls[sym] = impl
        self._binds += 1

    def merged(self, other: Optional["Binding"]) -> "Binding":
        if other is None:
            return self
        out = Binding(self._impls)
        out._impls.update(other._impls)
        return out

    def lookup(self, sym: FunctionSymbol) -> funcbank.FunctionImpl:
        impl = self._impls.get(sym)
        if impl is None:
            impl = funcbank.BUILTIN_IMPLS.get(sym.name)
        if impl is None:
            raise UnboundSymbolError(f"no implementation bound for symbol {sym.name!r}")
        return impl

    def __contains__(self, sym: FunctionSymbol) -> bool:
        return sym in self._impls or sym.name in funcbank.BUILTIN_IMPLS


EMPTY_BINDING = Binding()


class StackedBinding:
    """The bindings of consecutive blocks of ``size`` points, one per block,
    as a tape run over all the blocks looks them up: an impl that every
    block binds to the same object (a builtin, or an ``InverseImpl`` of a
    binding the blocks share) is itself, called once over every point, which
    the impl contract allows (``funcbank.FunctionImpl``); any other is the
    ``funcbank.StackedImpl`` of the blocks' impls, whose values are each
    block's own bit for bit."""

    def __init__(self, bindings: Sequence[Binding], size: int):
        self._bindings = bindings
        self._size = size

    def lookup(self, sym: FunctionSymbol) -> funcbank.FunctionImpl:
        impls = [b.lookup(sym) for b in self._bindings]
        if all(f is impls[0] for f in impls[1:]):
            return impls[0]
        return funcbank.StackedImpl(impls, self._size)


class Workspace:
    """Symbol namespace plus the fixed implementations accumulated so far."""

    def __init__(self):
        self.table = SymbolTable()
        self.binding = Binding()

    def declare(self, name: str, arity: int, codomain: str,
                impl: Optional[funcbank.FunctionImpl] = None) -> FunctionSymbol:
        sym = self.table.declare(name, arity, codomain)
        if impl is not None:
            self.binding.bind(sym, impl)
        return sym


def draw_env(vars_needed: Iterable[VarId], count: int,
             rng: np.random.Generator) -> dict[VarId, np.ndarray]:
    """Random sample arrays; conjugated jets share values with their base jet."""
    env: dict[VarId, np.ndarray] = {}
    bases: dict[VarId, np.ndarray] = {}
    for v in sorted(vars_needed, key=_var_sort_key):
        if v.kind == "t":
            env[v] = rng.uniform(*T_RANGE, size=count).astype(complex)
        elif v.kind == "x":
            env[v] = rng.uniform(*X_RANGE, size=count).astype(complex)
        else:
            base = jet_var(v.alpha, False)
            if base not in bases:
                r = np.sqrt(rng.uniform(0, 1, size=count)) * JET_RADIUS
                th = rng.uniform(0, 2 * math.pi, size=count)
                bases[base] = r * np.exp(1j * th)
            env[v] = np.conj(bases[base]) if v.conj else bases[base]
    return env


def _var_sort_key(v: VarId):
    return (v.kind, v.a, v.alpha, v.conj)


# ---------------------------------------------------------------------------
# batch evaluator: one compiled tape per root
# ---------------------------------------------------------------------------

# opcodes of computed nodes
_SUM, _PROD, _IPOW, _APOW, _SIGN, _CONJ, _FUNC = range(7)
# elements of |value| taken at once when folding the subterm scale: an
# eighth of a full stacked buffer, whose peak memory it adds to
_FOLD_ELEMS = 1 << 14
# elements of a stacked zero-test buffer, rows x points x blocks: the cap
# of every stacked run, of a case's draws (``stacked_draws``) and of a zero
# test's trials (``max_normalized_residual``)
STACK_ELEMS = 1 << 17


class _Tape:
    """Evaluation program for a tuple of roots: the "tape" of Griewank &
    Walther, *Evaluating Derivatives* (SIAM 2008).  A bare root compiles as
    the 1-tuple of itself, with ``single`` set so that its run returns 1-d
    values and scale (a variable root its env array itself).

    Every distinct node is one slot, however many roots reach it.
    Computed nodes come first, in post order, and own a row of one
    ``(rows, count)`` buffer; constant slots
    hold each node's cached ``complex128`` value (broadcast to arrays when
    a node other than a sum or product reads them) and variable slots the
    env arrays as they are.  The program gives each root's values as one
    row of a ``(roots, count)``
    array, bit for bit the values of that root's own tape: a constant that
    one root's sum or product reads may reach it as an array, because
    another root's node reads it as one, and numpy adds and multiplies a
    broadcast array as it does a scalar.  ``parts`` holds per root the
    largest constant magnitude and the rows and variables of its own
    sub-DAG (``_fold``), built on the first run that folds a scale; the
    one part of a tape of one root, which owns every row, is set when
    compiled.  ``builtins`` is the half of ``run_real``'s check made when
    compiled: None, or the functions that must look up to their builtins.
    """

    __slots__ = ("code", "rows", "consts", "bcast", "cmax", "vars", "root", "single", "nodes",
                 "exprs", "parts", "builtins")

    def __init__(self, root: Expr | tuple[Expr, ...]):
        self.single = type(root) is not tuple
        roots = (root,) if self.single else root
        computed, consts, variables = [], [], []
        for n in post_order(roots):
            if type(n) is Const:
                consts.append(n)
            elif type(n) is Var:
                variables.append(n)
            else:
                computed.append(n)
        order = computed + consts + variables
        slot = dict(zip(order, range(len(order))))
        self.nodes = computed
        self.rows = len(computed)
        self.consts = [c.value() for c in consts]
        self.cmax = np.abs(self.consts).max(initial=0.0)
        self.vars = []
        for n in variables:
            v = n.vid
            base = jet_var(v.alpha, False) if v.is_jet and v.conj else None
            self.vars.append((v, base))
        self.root = tuple([slot[r] for r in roots])
        self.exprs = roots
        self.parts = [(self.cmax, None, None)] if len(roots) == 1 else None
        array_consts = set()
        self.code = []
        for n in computed:
            out = slot[n]
            tn = type(n)
            if tn is Sum:
                ins = (_SUM, out, tuple([slot[c] for c in n.terms]))
            elif tn is Product:
                ins = (_PROD, out, tuple([slot[c] for c in n.factors]))
            else:
                # these read constants as arrays: numpy's scalar math can
                # round differently from its array loops
                array_consts.update(c for c in n.children() if type(c) is Const)
                if tn is IntPow:
                    ins = (_IPOW, out, slot[n.base], n.k)
                elif tn is AbsPow:
                    ins = (_APOW, out, slot[n.base], float(n.q))
                elif tn is Sign:
                    ins = (_SIGN, out, slot[n.base])
                elif tn is Conj:
                    ins = (_CONJ, out, slot[n.arg])
                elif tn is FuncApp:
                    ins = (_FUNC, out, tuple([slot[a] for a in n.args]), n.sym, n.didx)
                else:
                    raise TypeError(f"cannot evaluate {tn.__name__}")
            self.code.append(ins)
        self.bcast = [(slot[c], c.value()) for c in array_consts]
        real = (all(r.is_real for r in roots)
                and all(ins[0] != _IPOW or abs(ins[3]) < 100 for ins in self.code))
        self.builtins = (tuple(dict.fromkeys(ins[3] for ins in self.code if ins[0] == _FUNC))
                         if real else None)

    def _evaluate(self, binding: Binding, env: Mapping[VarId, np.ndarray], count: int, dtype):
        """Run the program on a new buffer of dtype, which for float64 loads
        the constants' real parts; returns the buffer, the slot values, the
        variables' values and the nodes' own unsafe points."""
        buf = np.empty((self.rows, count), dtype=dtype)
        vals = list(buf)
        real = dtype != complex
        vals += [c.real for c in self.consts] if real else self.consts
        for s, c in self.bcast:
            vals[s] = np.broadcast_to(c.real if real else c, (count,))
        var_vals = []
        for v, base in self.vars:
            x = env.get(v) if base is not None else env[v]
            if x is None:
                x = np.conj(env[base])
            var_vals.append(x)
        vals += var_vals
        unsafe = np.zeros(count, dtype=bool)
        _execute(self.code, vals, binding, unsafe)
        return buf, vals, var_vals, unsafe

    def _root(self, buf: np.ndarray, vals: list, count: int) -> np.ndarray:
        if self.single:
            return self._slot(self.root[0], buf, vals, count)
        if max(self.root) < self.rows:  # every root is a computed row
            return buf.take(self.root, axis=0)
        return np.array([self._slot(s, buf, vals, count) for s in self.root])

    def _slot(self, s: int, buf: np.ndarray, vals: list, count: int) -> np.ndarray:
        if s < self.rows:
            return buf[s].copy()
        if s < self.rows + len(self.consts):
            return np.full(count, vals[s])
        return np.asarray(vals[s])

    def run(self, binding: Binding, env: Mapping[VarId, np.ndarray], count: int,
            scale: bool = True):
        """The roots' values, subterm scales and unsafe mask (``_fold``):
        each root's scale over its own sub-DAG, one mask over all the roots.
        With ``scale`` false the run folds no scale (None) and marks the
        same points unsafe."""
        buf, vals, var_vals, unsafe = self._evaluate(binding, env, count, complex)
        parts = self._parts() if scale else [(self.cmax, None, None)]
        got = _fold(parts, buf, var_vals, count)
        if not math.isfinite(got.max(initial=0.0)):
            got = _fold(parts, buf, var_vals, count, unsafe)
        values = self._root(buf, vals, count)
        if not scale:
            return values, None, unsafe
        return values, got[0] if self.single else got, unsafe

    def _parts(self) -> list:
        """Per root, its own largest constant magnitude, the sorted rows of
        its own computed nodes and the indices of its own variables, as
        ``_fold`` reads them; a tape of one root has one part, set when
        compiled, that owns every row and variable (None)."""
        if self.parts is None:
            row = {n: i for i, n in enumerate(self.nodes)}
            col = {var(v): i for i, (v, _) in enumerate(self.vars)}
            self.parts = []
            for r in self.exprs:
                own = post_order(r)
                cmax = np.abs([n.value() for n in own if type(n) is Const]).max(initial=0.0)
                rows = np.array(sorted(row[n] for n in own if n in row), dtype=np.intp)
                self.parts.append((cmax, rows, tuple(col[n] for n in own if n in col)))
        return self.parts

    def run_real(self, binding: Binding, env: Mapping[VarId, np.ndarray],
                 count: int) -> Optional[np.ndarray]:
        """The roots' values on a float64 buffer, with no scale and no mask:
        at real points, the real parts of ``run``'s values bit for bit (see
        the module docstring), or None where that may fail: a root that is
        not real; an integer power of 100 or more in size, which numpy's
        complex ``power`` (``nc_pow``) takes by exp and log, giving a negative
        base an imaginary part that a later cos or sin turns into a change of
        the real part; a function that does not look up to its builtin in
        binding, read at each run, so a later ``Binding.bind`` is seen; a
        zero root, whose sign a float row may flip (``cos(2) * 0.0`` is -0.0,
        the real part of the complex product +0.0); or a non-finite row
        (``inf * 0`` makes a complex product's imaginary part NaN)."""
        if self.builtins is None or any(binding.lookup(f) is not funcbank.BUILTIN_IMPLS.get(f.name)
                                        for f in self.builtins):
            return None
        buf, vals, _, _ = self._evaluate(binding, env, count, float)
        root = self._root(buf, vals, count)
        return root if np.count_nonzero(root) == root.size and np.isfinite(buf).all() else None


def _execute(code: list, vals: list, binding: Binding, unsafe: np.ndarray) -> None:
    """Run tape instructions, writing each computed node's row in place.

    The points where a node's own operation is unsafe (a near-zero base of
    a negative power or a sign, a function's mask) are or-ed into
    ``unsafe``.

    Rows are ``complex128``, or ``float64`` for a real program: there sums,
    products, signs, absolute powers, conjugates, cos and sin compute in
    float, while an integer power is raised in complex and the other
    functions give complex values, and the row keeps the real part (libm's
    ``pow`` and ``exp`` round differently from the complex ones).

    Factor order is part of the bits: numpy's complex multiply is not
    bitwise commutative, so a product multiplies left to right.
    """
    for ins in code:
        op = ins[0]
        out = vals[ins[1]]
        if op == _PROD:
            fs = ins[2]
            np.multiply(vals[fs[0]], vals[fs[1]], out=out)
            for f in fs[2:]:
                np.multiply(out, vals[f], out=out)
        elif op == _SUM:
            ts = ins[2]
            np.add(vals[ts[0]], vals[ts[1]], out=out)
            for tm in ts[2:]:
                np.add(out, vals[tm], out=out)
        elif op == _FUNC:
            got, mask = binding.lookup(ins[3]).deriv(ins[4], tuple([vals[a] for a in ins[2]]))
            out[...] = got.real if out.dtype == float else got
            if mask is not None and mask.any():
                unsafe |= mask
        elif op == _IPOW:
            b = vals[ins[2]]
            k = ins[3]
            if k < 0:
                bad = np.abs(b) < EPS_UNSAFE
                if bad.any():
                    unsafe |= bad
                    b = np.where(bad, 1.0, b)
            # operator form: ndarray.__pow__ has fast paths np.power lacks
            p = np.asarray(b, dtype=complex) ** k
            out[...] = p.real if out.dtype == float else p
        elif op == _APOW:
            a = np.abs(np.real(vals[ins[2]]))
            q = ins[3]
            if q < 0:
                bad = a < EPS_UNSAFE
                if bad.any():
                    unsafe |= bad
                    a = np.where(bad, 1.0, a)
            out[...] = a ** q
        elif op == _SIGN:
            b = np.real(vals[ins[2]])
            bad = np.abs(b) < EPS_UNSAFE
            if bad.any():
                unsafe |= bad
            out[...] = np.sign(np.where(bad, 1.0, b))
        else:
            np.conj(vals[ins[2]], out=out)


def _fold(parts: list, buf: np.ndarray, var_vals: list, count: int,
          unsafe: Optional[np.ndarray] = None) -> np.ndarray:
    """Each part's subterm scale, a ``(parts, count)`` array: the column max
    of the part's largest constant magnitude and of |value| over its own
    rows of buf and its own variables, by one running max over blocks of
    ``_FOLD_ELEMS`` elements of buf, then over each variable.  A part whose
    rows and variables are None owns every one.

    NaN and inf carry through the max, so one test of the result shows
    whether every value is finite; only where one is not does the caller
    fold again, given ``unsafe``: a point with a non-finite value is or-ed
    into it, and that magnitude reads 0.
    """
    out = np.empty((len(parts), count))
    for j, (cmax, _, _) in enumerate(parts):
        out[j] = cmax
    step = max(1, _FOLD_ELEMS // max(count, 1))
    for first in range(0, len(buf), step):
        mag = _magnitudes(buf[first:first + step], unsafe)
        for j, (_, rows, _) in enumerate(parts):
            if rows is not None:
                lo, hi = rows.searchsorted((first, first + len(mag)))
                if lo == hi:
                    continue
            s = out[j]
            np.maximum(s, (mag if rows is None else mag[rows[lo:hi] - first]).max(axis=0), out=s)
    mags = [_magnitudes(x, unsafe) for x in var_vals]
    for j, (_, _, own) in enumerate(parts):
        s = out[j]
        for mag in mags if own is None else [mags[i] for i in own]:
            np.maximum(s, mag, out=s)
    return out


def _magnitudes(block: np.ndarray, unsafe: Optional[np.ndarray]) -> np.ndarray:
    """|block|, a block of rows or one variable's values; given ``unsafe``,
    a point with a non-finite value anywhere in its evaluation is or-ed
    into it, and that magnitude reads 0."""
    mag = np.abs(block)
    if unsafe is not None:
        bad = ~np.isfinite(mag)
        unsafe |= bad.any(axis=0) if bad.ndim > 1 else bad
        mag[bad] = 0.0
    return mag


def owned_tape(tapes: dict, e: Expr | tuple[Expr, ...]) -> _Tape:
    """e's tape in an owner's dict ``{root: tape}``, compiled on first use;
    e is a root or a tuple of roots."""
    tape = tapes.get(e)
    if tape is None:
        tape = tapes[e] = _Tape(e)
    return tape


def eval_batch(e: Expr | _Tape, binding: Binding, env: Mapping[VarId, np.ndarray],
               count: int = 1, *, scale: bool = True):
    """Evaluate over a batch; returns (values, subterm scale, unsafe mask).

    ``e`` is a root, whose tape is compiled for this call and dropped, or a
    ``_Tape`` that its caller owns (``owned_tape``).  The tape of a tuple
    of roots gives one row of values and one row of scale per root, each
    bit for bit what the root's own tape gives, and one mask over the
    nodes of all of them; a bare root's gives 1-d values and scale.  With
    ``scale`` false no scale is folded (None), for a caller that reads only
    values and mask.  ``count`` is the number of points when env is empty.

    An owned tape at float64 points runs on a float64 buffer where the
    tape allows it (``_Tape.run_real``): the values are the real parts of
    the complex run's, with no scale and no mask (both None).  Where that
    run declines, the complex program runs and returns all three.
    """
    first = next(iter(env.values()), None)
    if first is not None:
        count = len(first)
    if type(e) is _Tape:
        tape = e
        if first is not None and first.dtype == float:
            got = tape.run_real(binding, env, count)
            if got is not None:
                return got, None, None
            env = {v: x.astype(complex) for v, x in env.items()}
    else:
        tape = _Tape(e)
    return tape.run(binding, env, count, scale)


# ---------------------------------------------------------------------------
# randomized zero test
# ---------------------------------------------------------------------------

def _free_vars(roots: tuple) -> frozenset:
    """The union of the roots' free_vars, from one OR of their masks."""
    mask = 0
    for r in roots:
        mask |= r.vmask
    return expr.VARIABLES.members_of(mask)


def _free_symbols(roots: tuple) -> frozenset:
    """The union of the roots' free_symbols, from one OR of their masks."""
    mask = 0
    for r in roots:
        mask |= r.smask
    return expr.SYMBOLS.members_of(mask)


def _fill_surrogates(roots: tuple, binding: Binding, rng: np.random.Generator) -> Binding:
    extra = {}
    for sym in sorted(_free_symbols(roots), key=lambda s: s.name):
        if sym not in binding:
            extra[sym] = funcbank.random_surrogate(rng, sym.arity, sym.codomain)
    return binding.merged(Binding(extra)) if extra else binding


def eval_resampling(roots: tuple, blocks: Sequence[tuple], points: int,
                    rng: np.random.Generator, tapes: dict):
    """The roots' values and scales, one row per root, at the points of
    every block, a block a ``(binding, env)`` draw of ``points`` points
    (``draw_trial``), and the env of those points, one array per variable
    over the blocks in order.  The roots' tape runs once over every block,
    each with its own binding (``StackedBinding``; one block runs with its
    own binding and env arrays).  While a point is unsafe, each block's
    unsafe points are redrawn, in block order, and the tape runs again, for
    up to ``RETRY_BUDGET`` rounds; UnsafeSampleError then gives the count
    of the first block still unsafe."""
    tape = owned_tape(tapes, roots)
    count = len(blocks) * points
    if len(blocks) == 1:
        binding, env = blocks[0]
    else:
        bindings, envs = zip(*blocks)
        binding = StackedBinding(bindings, points)
        env = {v: np.concatenate([x[v] for x in envs]) for v in envs[0]}
    vals, scale, unsafe = eval_batch(tape, binding, env, count)
    budget = RETRY_BUDGET
    while unsafe.any():
        unsafe = unsafe.reshape(len(blocks), points)
        if budget == 0:
            raise UnsafeSampleError(
                f"{int(unsafe[unsafe.any(axis=1).argmax()].sum())} of {points} sample points "
                f"remained unsafe after {RETRY_BUDGET} redraws")
        budget -= 1
        vars_needed = _free_vars(roots)
        env = {v: x.copy() for v, x in env.items()}
        for b, bad in enumerate(unsafe):
            k = int(bad.sum())
            if k:
                fresh = draw_env(vars_needed, k, rng)
                for v, x in env.items():
                    x[b * points:(b + 1) * points][bad] = fresh[v]
        vals, scale, unsafe = eval_batch(tape, binding, env, count)
    return vals, scale, env


def _live(roots: tuple) -> tuple:
    """The distinct roots other than ``ZERO``, which the zero test samples."""
    return tuple({r: None for r in roots if r is not ZERO})


def _keep_worst(live: tuple, run: tuple, blocks: range, points: int,
                worst: list, witness: list) -> None:
    """Raise each live root's worst normalized value to its largest over the
    given blocks of ``points`` points of one ``eval_resampling`` run, block
    by block, and take the point of a value at least as large as before as
    its witness."""
    vals, scale, env = run
    for b in blocks:
        at = slice(b * points, (b + 1) * points)
        normed = np.abs(vals[:, at]) / (1.0 + scale[:, at])
        for j, r in enumerate(live):
            i = int(normed[j].argmax())
            top = float(normed[j, i])
            if top >= worst[j]:
                worst[j] = top
                i += at.start
                witness[j] = {
                    "value": complex(vals[j, i]),
                    "normalized": top,
                    "point": {var_name(v): complex(env[v][i])
                              for v in sorted(r.free_vars, key=_var_sort_key)},
                }


def _answers(roots: tuple, live: tuple, worst: list, witness: list) -> tuple:
    """One (worst, witness) pair per root, ``ZERO``'s without a draw."""
    got = dict(zip(live, zip(worst, witness)))
    return tuple([got[r] if r is not ZERO else _zero_residual() for r in roots])


def max_normalized_residual(e: Expr | tuple[Expr, ...], *, binding: Optional[Binding] = None,
                            trials: int = DEFAULT_TRIALS,
                            bindings_per_trial: int = DEFAULT_BINDINGS,
                            points: int = DEFAULT_POINTS,
                            rng: Optional[np.random.Generator] = None,
                            tapes: Optional[dict] = None):
    """Max of |e| / (1 + max|subterm|) over random bindings and points.

    Each of the trials * bindings_per_trial draws binds e's unbound symbols
    to fresh surrogates and then samples fresh points, so only the product
    counts.  Returns (max value, witness dict) where the witness records the
    worst sample point.  e's tape is kept in ``tapes``, a caller's dict
    (``owned_tape``), or else in one for this call.  ValueError if there
    is no draw or no point to sample: a test that samples nothing would
    pass anything.

    For a tuple of roots, returns one (max value, witness) pair per root;
    a bare root is tested as the 1-tuple of itself.  Each draw binds the
    surrogates of the union of the roots' symbols and samples one point set
    over the union of their variables, redrawn where any root is unsafe,
    and one run of the tape of the distinct roots gives every root's values
    and its own subterm scale (``eval_batch``).  Each root's pair is then
    what its own test would give at those points, its witness over its own
    variables; the Schwartz-Zippel bound holds for each root on shared
    points.  ``ZERO``, alone or in a tuple, is answered as sampling it would
    (value 0 and no variables) without a draw.

    The draws are drawn in turn (``draw_trial``) and zero-tested as one
    stack (``eval_resampling``), or as several, in order, past
    ``STACK_ELEMS``.  A stack with no unsafe point, or of one draw, gives
    the pairs of a loop that draws, redraws and tests each draw in turn; a
    larger one that meets an unsafe point redraws after all of its draws.
    """
    draws = trials * bindings_per_trial
    if draws < 1 or points < 1:
        raise ValueError(f"a zero test needs at least one draw and one point, got "
                         f"{trials} * {bindings_per_trial} draws of {points} points")
    roots = e if type(e) is tuple else (e,)
    live = _live(roots)
    binding = binding or EMPTY_BINDING
    rng = np.random.default_rng(0) if rng is None else rng
    tapes = {} if tapes is None else tapes
    worst = [0.0] * len(live)
    witness = [None] * len(live)
    room = max(1, _stack_room(live, points, tapes))
    for first in range(0, draws if live else 0, room):
        blocks = [draw_trial(live, binding, points, rng) for _ in range(min(room, draws - first))]
        run = eval_resampling(live, blocks, points, rng, tapes)
        _keep_worst(live, run, range(len(blocks)), points, worst, witness)
    got = _answers(roots, live, worst, witness)
    return got if type(e) is tuple else got[0]


def _zero_residual():
    """ZERO's answer, as sampling it would give: it draws nothing and reads 0."""
    return 0.0, {"value": 0j, "normalized": 0.0, "point": {}}


# ---------------------------------------------------------------------------
# stacked zero tests: the trials of a test, or the draws of a case
# verification, in one run
# ---------------------------------------------------------------------------

def _stack_room(live: tuple, points: int, tapes: dict) -> int:
    """How many blocks of ``points`` points of the live roots one stacked run
    holds within ``STACK_ELEMS`` elements, a block's buffer rows x points
    (one row at least, the points' own)."""
    rows = owned_tape(tapes, live).rows if live else 0
    return STACK_ELEMS // (max(rows, 1) * points)


def stacked_draws(roots: tuple, points: int, trials: int, tapes: dict) -> int:
    """How many draws of ``trials`` zero-test trials of the roots one stacked
    run takes: as many as fit its buffer (``_stack_room``), and at least one.
    ValueError for no trial or no point."""
    if trials < 1 or points < 1:
        raise ValueError(f"a zero test needs at least one trial and one point, got {trials} "
                         f"trials of {points} points")
    return max(1, _stack_room(_live(roots), points, tapes) // trials)


def draw_trial(roots: tuple, binding: Binding, points: int, rng: np.random.Generator):
    """One trial of the roots' zero test, a block of ``eval_resampling``:
    the binding with surrogates for their unbound symbols, then the env of
    ``points`` points over their variables."""
    full = _fill_surrogates(roots, binding, rng)
    return full, draw_env(_free_vars(roots), points, rng)


def stacked_residuals(roots: tuple, blocks: Sequence[tuple], points: int, trials: int,
                      rng: np.random.Generator, tapes: dict) -> list:
    """``max_normalized_residual`` of the roots for each run of ``trials``
    consecutive blocks, a block one ``draw_trial``, from one stack of every
    block (``eval_resampling``), which redraws unsafe points from rng after
    all of the blocks are drawn."""
    live = _live(roots)
    run = eval_resampling(live, blocks, points, rng, tapes) if live else None
    out = []
    for first in range(0, len(blocks), trials):
        worst = [0.0] * len(live)
        witness = [None] * len(live)
        if live:
            _keep_worst(live, run, range(first, first + trials), points, worst, witness)
        out.append(_answers(roots, live, worst, witness))
    return out


def is_zero(e: Expr | tuple[Expr, ...], trials: int = DEFAULT_TRIALS,
            tol: float = DEFAULT_TOL, *, points: int = DEFAULT_POINTS,
            binding: Optional[Binding] = None,
            rng: Optional[np.random.Generator] = None) -> bool:
    """Probabilistic identity test: true iff |e| < tol at every sampled point.

    Each trial draws fresh surrogate bindings for unbound symbols and fresh
    sample points; `tol` applies to values normalized by (1 + max|subterm|).
    A tuple of roots is tested on shared draws (``max_normalized_residual``)
    and passes iff every root does.  ValueError if trials or points is
    below 1.
    """
    got = max_normalized_residual(e if type(e) is tuple else (e,), binding=binding,
                                  trials=trials, points=points, rng=rng)
    return all(worst < tol for worst, _ in got)


# ---------------------------------------------------------------------------
# expression-backed and derived implementations
# ---------------------------------------------------------------------------

def _t_derivative(e: Expr, k: int) -> Expr:
    """The k-th t-derivative of e; a step a node already holds is a lookup."""
    for _ in range(k):
        e = diff(e, T_VAR)
    return e


class ExprImpl(funcbank.FunctionImpl):
    """Arity-1 symbol whose value is an expression in t: each derivative and
    its unsafe mask are those of the expression's formal t-derivative, whose
    tape the impl owns."""

    def __init__(self, expr_t: Expr, binding: Binding):
        self._expr = expr_t
        self._binding = binding
        self._tapes: dict[Expr, _Tape] = {}

    def deriv(self, didx, args):
        vals, _, unsafe = eval_batch(owned_tape(self._tapes, _t_derivative(self._expr, didx[0])),
                                     self._binding, {T_VAR: np.asarray(args[0], dtype=complex)})
        return vals, unsafe


class InverseImpl(funcbank.FunctionImpl):
    """Inverse g = T^-1 of a monotone scalar map T given as an expression in t.

    Values come from a safeguarded Newton solve ("rtsafe"): an expanding
    search finds a bracket [lo, hi] with a sign change of T - y, then each
    iteration narrows the bracket and takes the Newton step if it stays
    inside, else bisects.  Each bracketed point steps until its own step is
    below 1e-13 (or ``MAX_ITER`` steps), and is then frozen: a point's
    preimage is the one it gets when solved alone, whatever other points
    share the solve, as the impl contract asks (``funcbank.FunctionImpl``).
    Derivatives follow from the chain rule g' = 1/T'(g): g^(k) = H_k(g) with
    H_1 = 1/T' and H_(k+1) = H_k' H_1 (W. P. Johnson, "The curious history
    of Faa di Bruno's formula", Amer. Math. Monthly 109, 2002), so order k is
    one evaluation of the expression H_k at the solved preimages.

    The impl owns the tapes of T, of (T, T') and of each H_k, so each
    compiles once, and runs them through ``eval_batch``: T at float64
    points for both ends of every bracket in one run of their
    concatenation, and for the residuals, and (T, T') at float64 points in
    one run per Newton step, where each tape decides, as a whole, whether
    it runs on a float64 buffer (``_Tape.run_real``); H_k at complex ones.
    Float operations are elementwise, so the solve is bit for bit the one
    that runs T and T' apart, one bracket end at a time, and a frozen point
    is still evaluated, its values unread, so every run is over all points.

    ``deriv`` returns ``(values, unsafe_mask)``; the mask flags points whose
    residual |T(s) - y| exceeds 1e-8 (e.g. y outside the range of T) and,
    for k >= 1, points where evaluating H_k is unsafe (|T'(s)| < 1e-9, a
    flat point of T).  The last solve is memoized by its points and by the
    binding's count of binds, so derivative orders 0..k on the same points
    cost one root solve, and a ``Binding.bind`` (which may change T) makes
    the memo stale.
    """

    MAX_ORDER = 8
    MAX_ITER = 100
    STEP_TOL = 1e-13
    RESIDUAL_TOL = 1e-8

    def __init__(self, T_expr: Expr, binding: Binding, bracket=SOLVE_BRACKET):
        self.T_expr = T_expr
        self._binding = binding
        self._bracket = bracket
        self._memo: tuple = (None, None, None)  # the last solve: (key, preimages, residuals)
        self._derivs: list[Expr] = []
        self._tapes: dict[Expr | tuple, _Tape] = {}  # T, (T, T') and each H_k evaluated

    def _real_at(self, e: Expr | tuple[Expr, ...], s: np.ndarray) -> np.ndarray:
        """The real parts of e's values at the real points s, one row per
        root of a tuple."""
        return np.real(eval_batch(owned_tape(self._tapes, e), self._binding, {T_VAR: s})[0])

    def _derivative(self, k: int) -> Expr:
        """H_k, the k-th derivative of T^-1 in t = T^-1(y); H_0 = t is not evaluated."""
        if not self._derivs:
            self._derivs = [var(T_VAR), int_pow(diff(self.T_expr, T_VAR), -1)]
        h1 = self._derivs[1]
        return funcbank.nth_derivative(self._derivs, k, lambda h: diff(h, T_VAR) * h1)

    def _solve(self, args) -> tuple[np.ndarray, np.ndarray]:
        """Preimages s of args[0] and their residuals |T(s) - y|."""
        y = np.real(np.asarray(args[0], dtype=complex))
        key = (self._binding._binds, y.shape, y.tobytes())
        if self._memo[0] == key:
            return self._memo[1:]
        T, T_t = self.T_expr, diff(self.T_expr, T_VAR)
        n = len(y)

        def ends(lo, hi):
            # T - y at both ends of every bracket, as one run
            f = self._real_at(T, np.concatenate((lo, hi)))
            return f[:n] - y, f[n:] - y

        blo, bhi = self._bracket
        lo = np.clip(y - 0.5, blo, bhi)
        hi = np.clip(y + 0.5, blo, bhi)
        flo, fhi = ends(lo, hi)
        step = 1.0
        for _ in range(80):
            # a point pinned at both bracket limits cannot gain a sign change
            bad = (flo * fhi > 0) & ((lo > blo) | (hi < bhi))
            if not bad.any():
                break
            lo = np.where(bad, np.maximum(lo - step, blo), lo)
            hi = np.where(bad, np.minimum(hi + step, bhi), hi)
            flo, fhi = ends(lo, hi)
            step *= 1.6
            if step > 4.0 * (bhi - blo):
                break
        # a point steps while it is bracketed and not yet done, and is then
        # frozen, so its preimage depends on its own y alone; a point without
        # a sign change (y outside the range of T) never steps, and the
        # residual check marks it unsafe
        live = flo * fhi <= 0
        # orient so f(lo) <= 0 <= f(hi)
        swap = flo > 0
        lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
        s = 0.5 * (lo + hi)
        for _ in range(self.MAX_ITER):
            if not live.any():
                break
            T_s, fp = self._real_at((T, T_t), s)
            f = T_s - y
            below = f <= 0
            lo = np.where(below, s, lo)
            hi = np.where(below, hi, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = s - f / fp
            # closed interval: a converged point's step may land on an end
            inside = (newton >= np.minimum(lo, hi)) & (newton <= np.maximum(lo, hi))
            nxt = np.where(inside, newton, 0.5 * (lo + hi))
            done = np.abs(nxt - s) < self.STEP_TOL
            s = np.where(live, nxt, s)
            live &= ~done
        residual = np.abs(self._real_at(T, s) - y)
        self._memo = (key, s, residual)
        return s, residual

    def deriv(self, didx, args):
        k = didx[0]
        if k > self.MAX_ORDER:
            raise ValueError("inverse-function derivative order too high")
        s, residual = self._solve(args)
        unsafe = residual > self.RESIDUAL_TOL
        if k == 0:
            return s.astype(complex), unsafe
        vals, _, bad = eval_batch(owned_tape(self._tapes, self._derivative(k)),
                                  self._binding, {T_VAR: s.astype(complex)})
        return vals, unsafe | bad


class AntiderivImpl(ExprImpl):
    """Symbol defined by its derivative expression, the ``ExprImpl`` of that
    integrand, and by a free constant ``c``, its value.

    deriv order k >= 1 is the integrand's order k - 1 and reports that
    evaluation's unsafe mask; order 0 is ``c`` at every point, with no mask.
    That is sound only for a pointwise identity in which the symbol is
    applied at t alone: there it appears only as its value and its
    t-derivatives at t, so the identity must hold for every antiderivative,
    and at a fixed t their values are every number.  A span analysis, which
    samples values at several times, needs a true antiderivative (case 8's
    ``H`` takes ``ExpPoly.antiderivative``).
    """

    def __init__(self, integrand: Expr, binding: Binding, c: complex):
        super().__init__(integrand, binding)
        self._c = complex(c)

    def deriv(self, didx, args):
        k = didx[0]
        if k == 0:
            return np.full(np.shape(args[0]), self._c), None
        return super().deriv((k - 1,), args)
