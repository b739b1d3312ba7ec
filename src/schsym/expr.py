"""Immutable expression DAG for symbolic work on (1+n)-dimensional wave operators.

Nodes are hash-consed: structurally equal expressions are the *same* object,
so `a is b` is structural equality.  A sum or product is interned under the
tuple of terms or factors it stores (under its class and that tuple when a
node of the other class holds it), any other node under its class and its
own children, a constant under its coefficient ints, so a key pins its
children and can never alias a freed node's `id()`.
Constants are exact complex rationals, held as reduced integer pairs
(re_num, re_den, im_num, im_den) on which `sum_`, `prod` and the powers fold
coefficients with `schsym.rational`; a constant's `.re` and `.im` are
`Fraction` views built when read.  Floating point enters only at evaluation
time.  The node set is deliberately small: sums, products, integer powers,
|.|^q powers and sgn of real-valued subexpressions, complex conjugation, and
applications of abstract function symbols carrying a formal derivative
multi-index over their argument slots.

Node facts are set at construction: a node's free variables and function
symbols are int bitmasks over per-process registries.  `diff` walks a DAG on
an explicit stack of its own, and `subst`, `conj_expr`, printing and the
evaluation tape with one explicit-stack `post_order`, so none has a depth
limit.  Each node keeps its derivatives once computed (`Expr._diffs`): the
one (variable's bit, derivative) pair of a node differentiated by one
variable, a dict only from its second.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .rational import cadd, cmul, cpow

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# function symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSymbol:
    """Abstract function symbol; arity 0 means an unknown constant parameter."""

    name: str
    arity: int
    codomain: str  # 'real' | 'complex'

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        if self.codomain not in ("real", "complex"):
            raise ValueError("codomain must be 'real' or 'complex'")


# Symbols every workspace knows about.  Their numeric implementations live in
# funcbank; here they are just names.
COS = FunctionSymbol("cos", 1, "real")
SIN = FunctionSymbol("sin", 1, "real")
EXP = FunctionSymbol("exp", 1, "real")
LOG = FunctionSymbol("log", 1, "real")
ATAN = FunctionSymbol("atan", 1, "real")
PI = FunctionSymbol("pi", 0, "real")

BUILTIN_SYMBOLS = (COS, SIN, EXP, LOG, ATAN, PI)


class SymbolTable:
    """Function-symbol namespace; names are unique within a workspace."""

    def __init__(self):
        self._syms: dict[str, FunctionSymbol] = {s.name: s for s in BUILTIN_SYMBOLS}

    def declare(self, name: str, arity: int, codomain: str) -> FunctionSymbol:
        sym = FunctionSymbol(name, arity, codomain)
        old = self._syms.get(name)
        if old is not None:
            if old != sym:
                raise ValueError(f"symbol {name!r} already declared with a different signature")
            return old
        self._syms[name] = sym
        return sym

    def get(self, name: str) -> Optional[FunctionSymbol]:
        return self._syms.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._syms


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarId:
    """Time, space, or jet variable.

    kind 't': time; kind 'x': space variable with 1-based index `a`;
    kind 'jet': derivative of psi with multi-index `alpha` over (t, x1..xn)
    (the all-zero multi-index is psi itself) and a conjugation flag.
    """

    kind: str
    a: int = 0
    alpha: tuple[int, ...] = ()
    conj: bool = False

    def __post_init__(self):
        if self.kind == "x" and self.a < 1:
            raise ValueError("space index must be >= 1")
        if self.kind == "jet" and any(k < 0 for k in self.alpha):
            raise ValueError("jet multi-index entries must be non-negative")

    @property
    def is_jet(self) -> bool:
        return self.kind == "jet"


T_VAR = VarId("t")


def x_var(a: int) -> VarId:
    return VarId("x", a=a)


def jet_var(alpha: Sequence[int], conj: bool = False) -> VarId:
    return VarId("jet", alpha=tuple(alpha), conj=conj)


def psi_var(n: int, conj: bool = False) -> VarId:
    return jet_var((0,) * (n + 1), conj)


def conj_var(v: VarId) -> VarId:
    """The conjugate variable: a jet with its flag flipped; t and x are their own."""
    return jet_var(v.alpha, not v.conj) if v.is_jet else v


def raise_jet(v: VarId, direction: int) -> VarId:
    """Raise the multi-index in coordinate direction 0=t, 1..n=x_a."""
    alpha = list(v.alpha)
    alpha[direction] += 1
    return jet_var(alpha, v.conj)


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

# every node, once, keyed by what it stores itself: a Sum or Product by the
# very terms or factors tuple it holds (by (cls, tuple) when a node of the
# other class holds that key), any other node by its type tag (its class) and
# the children and parameters it stores, e.g. (IntPow, base, k), a Const by
# its coefficient ints; as Expr defines no __eq__ or __hash__, a key compares
# its children by identity, and as it holds them, it never aliases a freed
# id()
_INTERN: dict = {}


class _Registry:
    """Per-process bits of node masks: each new member takes the next bit the
    first time a node holding it is built, and keeps it for the life of the
    process.  `marked` holds the bits of the members for which `mark` holds."""

    def __init__(self, mark):
        self.bits: dict = {}
        self.members: list = []
        self.mark = mark
        self.marked = 0

    def bit(self, m) -> int:
        """m's bit, registered on first use."""
        bit = self.bits.get(m)
        if bit is None:
            bit = self.bits[m] = 1 << len(self.members)
            self.members.append(m)
            if self.mark(m):
                self.marked |= bit
        return bit

    def members_of(self, mask: int) -> frozenset:
        """The members whose bits mask holds."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.members[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


# the bits of the variables, jet variables marked, and of the function
# symbols, complex-codomain symbols marked
VARIABLES = _Registry(lambda v: v.is_jet)
SYMBOLS = _Registry(lambda s: s.codomain == "complex")


class Expr:
    # is_real, vmask and smask are set once, by the constructor: vmask holds
    # the bits of the node's free variables, smask those of its function
    # symbols; _diffs: None until the node's first diff, then the pair
    # (variable's bit, derivative), and from a second variable on the dict
    # {variable's bit: derivative}
    __slots__ = ("is_real", "vmask", "smask", "_diffs", "__weakref__")

    def __str__(self):
        from . import parsing  # parsing imports this module

        return parsing.to_text(self)

    __repr__ = __str__

    # operator sugar; scalars are coerced to exact-rational constants
    def __add__(self, other):
        return sum_((self, as_expr(other)))

    def __radd__(self, other):
        return sum_((as_expr(other), self))

    def __sub__(self, other):
        return sum_((self, -as_expr(other)))

    def __rsub__(self, other):
        return sum_((as_expr(other), -self))

    def __neg__(self):
        return prod((MINUS_ONE, self))

    def __mul__(self, other):
        return prod((self, as_expr(other)))

    def __rmul__(self, other):
        return prod((as_expr(other), self))

    def __truediv__(self, other):
        return prod((self, int_pow(as_expr(other), -1)))

    def __rtruediv__(self, other):
        return prod((as_expr(other), int_pow(self, -1)))

    # read-only views of the masks, for callers that need the members
    @property
    def free_vars(self) -> frozenset:
        return VARIABLES.members_of(self.vmask)

    @property
    def free_symbols(self) -> frozenset:
        return SYMBOLS.members_of(self.smask)

    @property
    def jet_vars(self) -> frozenset:
        return VARIABLES.members_of(self.vmask & VARIABLES.marked)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def _init_facts(self, is_real: bool, kids: tuple, vmask: int = 0, smask: int = 0):
        # children are built before their parents, so their facts exist; the
        # node is real if is_real holds and every child is real
        for k in kids:
            vmask |= k.vmask
            smask |= k.smask
            is_real = is_real and k.is_real
        self.is_real = is_real
        self.vmask = vmask
        self.smask = smask
        self._diffs = None


def post_order(root: Expr | tuple[Expr, ...], enter=None) -> list[Expr]:
    """The distinct nodes of root's DAG, children before parents and left to
    right, by one explicit-stack walk; a tuple of roots is walked left to
    right with one set of nodes seen, so a node they share comes once.

    A node for which `enter(node)` is false is left out, with every node
    reachable only through it.
    """
    out: list[Expr] = []
    seen = set()
    stack = [(None, iter(root if type(root) is tuple else (root,)))]
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if c in seen:
                continue
            seen.add(c)
            if enter is not None and not enter(c):
                continue
            if type(c) is Const or type(c) is Var:
                out.append(c)  # a leaf needs no stack entry
            else:
                stack.append((c, iter(c.children())))
                break
        else:
            stack.pop()
            if node is not None:
                out.append(node)
    return out


class Const(Expr):
    # coeff: the value as reduced ints (re_num, re_den, im_num, im_den), both
    # denominators > 0, the one source of truth; .re and .im are Fraction
    # views built when read.  _value: the complex128 value, converted on first
    # evaluation, not at construction, so exact constants too large for a
    # float still build
    __slots__ = ("coeff", "_value")

    def __init__(self, coeff: tuple[int, int, int, int]):
        self.coeff = coeff
        self._value = None
        self._init_facts(coeff[2] == 0, ())

    @property
    def re(self) -> Fraction:
        return Fraction(self.coeff[0], self.coeff[1])

    @property
    def im(self) -> Fraction:
        return Fraction(self.coeff[2], self.coeff[3])

    def value(self) -> np.complex128:
        """The constant as a complex128; ValueError if it overflows a float."""
        v = self._value
        if v is None:
            rn, rd, jn, jd = self.coeff
            try:
                # int / int rounds exactly as Fraction.__float__ does
                v = np.complex128(complex(rn / rd, jn / jd))
            except OverflowError:
                text = str(self)
                if len(text) > 40:
                    text = f"{text[:20]}... ({len(text)} characters)"
                raise ValueError(f"constant {text} is too large for a float") from None
            self._value = v
        return v


class Var(Expr):
    __slots__ = ("vid",)

    def __init__(self, vid: VarId):
        self.vid = vid
        self._init_facts(not vid.is_jet, (), VARIABLES.bit(vid))


class FuncApp(Expr):
    __slots__ = ("sym", "args", "didx")

    def __init__(self, sym: FunctionSymbol, args: tuple[Expr, ...], didx: tuple[int, ...]):
        self.sym = sym
        self.args = args
        self.didx = didx
        self._init_facts(sym.codomain == "real", args, 0, SYMBOLS.bit(sym))

    def children(self):
        return self.args


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._init_facts(True, terms)

    def children(self):
        return self.terms


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._init_facts(True, factors)

    def children(self):
        return self.factors


class IntPow(Expr):
    __slots__ = ("base", "k")

    def __init__(self, base: Expr, k: int):
        self.base = base
        self.k = k
        self._init_facts(True, (base,))

    def children(self):
        return (self.base,)


class AbsPow(Expr):
    """|base|^q for a real-valued base and rational exponent q."""

    __slots__ = ("base", "q")

    def __init__(self, base: Expr, q: Fraction):
        self.base = base
        self.q = q
        self._init_facts(True, (base,))

    def children(self):
        return (self.base,)


class Sign(Expr):
    __slots__ = ("base",)

    def __init__(self, base: Expr):
        self.base = base
        self._init_facts(True, (base,))

    def children(self):
        return (self.base,)


class Conj(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        # conj(arg) is a function of the conjugate of each jet arg holds; arg's
        # own jets stay, as a tape reads them
        vmask = 0
        for v in VARIABLES.members_of(arg.vmask & VARIABLES.marked):
            vmask |= VARIABLES.bit(conj_var(v))
        self._init_facts(False, (arg,), vmask)

    def children(self):
        return (self.arg,)


# ---------------------------------------------------------------------------
# constructors (normalizing, interning)
# ---------------------------------------------------------------------------

def _node(*key) -> Expr:
    """The interned node key[0](*key[1:]): every node but a Const, Sum or
    Product is built by this one helper, under its class and its constructor
    arguments."""
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = key[0](*key[1:])
    return node


def _nary(cls: type, kids: tuple) -> Expr:
    """The interned Sum or Product cls(kids), keyed by kids itself unless a
    node of the other class was built first under it."""
    node = _INTERN.get(kids)
    if node is None:
        node = _INTERN[kids] = cls(kids)
    elif type(node) is not cls:
        node = _node(cls, kids)
    return node


def _const(c: tuple[int, int, int, int]) -> Const:
    """The interned Const of reduced ints c, keyed by c itself."""
    node = _INTERN.get(c)
    if node is None:
        node = _INTERN[c] = Const(c)
    return node


def _ratio(q: Number) -> tuple[int, int]:
    """(numerator, denominator) of q in lowest terms, denominator > 0."""
    if type(q) is int:
        return q, 1
    if type(q) is float:
        return q.as_integer_ratio()  # the float's exact binary value
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator, q.denominator


def const(re: Number = 0, im: Number = 0) -> Const:
    if type(re) is int and type(im) is int:
        return _const((re, 1, im, 1))
    return _const(_ratio(re) + _ratio(im))


ZERO = const(0)
ONE = const(1)
MINUS_ONE = const(-1)
HALF = const(Fraction(1, 2))
I_UNIT = const(0, 1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, float)):
        return const(x)
    if isinstance(x, complex):
        return const(x.real, x.imag)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def var(vid: VarId) -> Var:
    return _node(Var, vid)


def t() -> Var:
    return var(T_VAR)


def x(a: int) -> Var:
    return var(x_var(a))


def psi(n: int, conj: bool = False) -> Var:
    return var(psi_var(n, conj))


def func_app(sym: FunctionSymbol, args: Iterable[Expr], didx: Optional[Sequence[int]] = None) -> Expr:
    args = tuple(as_expr(a) for a in args)
    if len(args) != sym.arity:
        raise ValueError(f"{sym.name} expects {sym.arity} argument(s), got {len(args)}")
    if didx is None:
        didx = (0,) * sym.arity
    didx = tuple(didx)
    if len(didx) != sym.arity or any(k < 0 for k in didx):
        raise ValueError("bad derivative multi-index")
    return _node(FuncApp, sym, args, didx)


# coefficients are schsym.rational tuples; prod's accumulator starts as _C1
_C1 = ONE.coeff


def sum_(terms: Iterable[Expr]) -> Expr:
    """Normalized, interned sum of `terms`.

    Normal form of a Sum: its constant first (if nonzero), then one term per
    distinct monomial in first-seen order, each carrying its coefficient as a
    leading Const factor unless that coefficient is 1.  A term's monomial is
    what is left without that factor: a normalized non-constant product or
    factor, never a Sum.  No term of a Sum is a Sum or a Product(c, Sum):
    nested sums are flattened and a constant times a sum is distributed.
    """
    # monomial -> [coefficient, the input term it came from while that term
    # is its only contribution]; such a term is returned as it is.  The
    # constant is kept under ONE
    acc: dict[Expr, list] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        tm = stack.pop()
        if (tt := type(tm)) is Sum:
            stack.extend(reversed(tm.terms))
            continue
        c = None
        if tt is tuple:  # (c, u): a term u of a Sum that c multiplies
            c, tm = tm
            tt = type(tm)
        if tt is Const:
            coeff, mono = tm.coeff, ONE
        elif tt is Product and type(tm.factors[0]) is Const:
            fs = tm.factors
            if len(fs) == 2 and type(fs[1]) is Sum:
                # the Sum's terms are already normal: fold c into each coefficient
                stack.extend([(fs[0].coeff, u) for u in reversed(fs[1].terms)])
                continue
            coeff, mono = fs[0].coeff, fs[1] if len(fs) == 2 else _nary(Product, fs[1:])
        else:
            coeff, mono = _C1, tm
        if c is not None:
            coeff, tm = cmul(c, coeff), None
        got = acc.get(mono)
        if got is None:
            acc[mono] = [coeff, tm]
        else:
            got[0] = cadd(got[0], coeff)
            got[1] = None
    out: list[Expr] = []
    got = acc.pop(ONE, None)
    if got is not None and (got[0][0] or got[0][2]):
        out.append(_const(got[0]))
    for mono, (coeff, term) in acc.items():
        if term is not None:
            out.append(term)
        elif not coeff[0] and not coeff[2]:
            continue
        elif coeff == _C1:
            out.append(mono)
        else:
            # mono is normal, so prod((c, mono)) would return exactly this node
            fs = (_const(coeff),) + (mono.factors if isinstance(mono, Product) else (mono,))
            out.append(_nary(Product, fs))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return _nary(Sum, tuple(out))


def prod(factors: Iterable[Expr]) -> Expr:
    """Normalized, interned product of `factors`.

    Normal form of a Product: its constant first (if not 1), then one factor
    per distinct base in first-seen order: an integer power of the base, an
    |base|^q power, or sgn(base).  Nested products are flattened; a zero
    constant makes the whole product ZERO.
    """
    cacc = _C1
    cnode = None  # the Const whose value cacc holds, while there is one
    # first-seen order of bases; keys are `base` for integer powers,
    # ("a", base) for |base|^q and ("g", base) for sgn(base)
    pows: dict = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if (tf := type(f)) is Product:
            stack.extend(reversed(f.factors))
            continue
        if tf is Const:
            if f is ZERO:
                return ZERO
            if cacc is _C1:
                cacc, cnode = f.coeff, f
            else:
                cacc, cnode = cmul(cacc, f.coeff), None
        elif tf is IntPow:
            pows[f.base] = pows.get(f.base, 0) + f.k
        elif tf is AbsPow:
            key = ("a", f.base)
            pows[key] = pows.get(key, 0) + f.q
        elif tf is Sign:
            key = ("g", f.base)
            pows[key] = pows.get(key, 0) + 1
        else:
            pows[f] = pows.get(f, 0) + 1

    out: list[Expr] = []
    for key, k in pows.items():
        if type(key) is not tuple:
            piece = key if k == 1 else int_pow(key, k)
        elif key[0] == "a":
            piece = abs_pow(key[1], k)
        else:
            piece = sign_of(key[1]) if k % 2 else ONE
        if type(piece) is Const:
            cacc, cnode = cmul(cacc, piece.coeff), None
            if not cacc[0] and not cacc[2]:
                return ZERO
        elif piece is not ONE:
            out.append(piece)
    if cacc != _C1:
        out.insert(0, cnode if cnode is not None else _const(cacc))
    elif not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return _nary(Product, tuple(out))


def int_pow(base: Expr, k: int) -> Expr:
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        return _const(cpow(base.coeff, k))
    if isinstance(base, IntPow):
        return int_pow(base.base, base.k * k)
    if isinstance(base, AbsPow):
        return abs_pow(base.base, base.q * k)
    if isinstance(base, Sign):
        return sign_of(base.base) if k % 2 else ONE
    return _node(IntPow, base, k)


def abs_pow(base: Expr, q: Number) -> Expr:
    q = Fraction(q)
    if not base.is_real:
        raise ValueError("|.|^q requires a real-valued base")
    if q == 0:
        return ONE
    if isinstance(base, AbsPow):
        return abs_pow(base.base, base.q * q)
    if isinstance(base, IntPow):
        return abs_pow(base.base, base.k * q)
    if isinstance(base, Sign):
        return ONE
    if isinstance(base, Const):
        n, d = abs(base.coeff[0]), base.coeff[1]
        if not n and q < 0:
            raise ZeroDivisionError("|0|^q with negative q")
        if q.denominator == 1:
            return _const(cpow((n, d, 0, 1), q.numerator))
        if not n:
            return ZERO
        if n == d:
            return ONE
    if q.denominator == 1 and q.numerator % 2 == 0:
        return int_pow(base, q.numerator)
    return _node(AbsPow, base, q)


def sign_of(base: Expr) -> Expr:
    if not base.is_real:
        raise ValueError("sgn requires a real-valued base")
    if isinstance(base, Const):
        if not base.coeff[0]:
            raise ValueError("sgn of exact zero")
        return ONE if base.coeff[0] > 0 else MINUS_ONE
    if isinstance(base, Sign):
        return base
    if isinstance(base, AbsPow):
        return ONE
    if isinstance(base, IntPow):
        return sign_of(base.base) if base.k % 2 else ONE
    return _node(Sign, base)


# complex node -> its conjugate, kept both ways by conj_expr for every node it
# conjugates, as interned nodes are, for the life of the process
_CONJUGATES: dict[Expr, Expr] = {}


def conj_expr(e: Expr) -> Expr:
    """Complex conjugate, distributed structurally.

    Conjugation flips the flag of jet variables and wraps irreducibly complex
    function applications in a Conj node; Conj(Conj(e)) collapses to e.  Each
    complex sum, product and power is rebuilt once, children first.  Every
    conjugate is kept with its node (``_CONJUGATES``), both ways, so a later
    walk stops at a node conjugated before, or at such a conjugate: ``diff``
    through nested Conj levels conjugates each derivative once.
    """
    if e.is_real:
        return e
    known = _CONJUGATES.get(e)
    if known is not None:
        return known
    done: dict[Expr, Expr] = {}

    def enter(u):
        # a real node is its own conjugate; a complex one not walked, or
        # conjugated before, gets its conjugate here
        if u.is_real:
            return False
        got = _CONJUGATES.get(u)
        if got is not None:
            done[u] = got
            return False
        tu = type(u)
        if tu in _CONJ_WALKED:
            return True
        if tu is Const:
            rn, rd, jn, jd = u.coeff
            done[u] = _const((rn, rd, -jn, jd))
        elif tu is Var:
            done[u] = var(conj_var(u.vid))
        else:
            done[u] = u.arg if tu is Conj else _node(Conj, u)
        return False

    out = _rebuild(e, done, enter)
    for u, c in done.items():
        _CONJUGATES[u] = c
        _CONJUGATES[c] = u
    return out


def im_part(e: Expr) -> Expr:
    return _const((0, 1, -1, 2)) * (e - conj_expr(e))


# ---------------------------------------------------------------------------
# differentiation / substitution
# ---------------------------------------------------------------------------

# the node types the diff walk enters: not Sign, whose derivative is zero
_DIFF_WALKED = frozenset((Var, Sum, Product, IntPow, AbsPow, Conj, FuncApp))
# the node types conj_expr rebuilds from their children's conjugates; any other
# complex node is conjugated where the walk meets it
_CONJ_WALKED = frozenset((Sum, Product, IntPow))


def diff(e: Expr, v: VarId) -> Expr:
    """Partial derivative of e with respect to the variable v.

    All VarIds are treated as independent; derivatives of function
    applications raise the slot multi-index via the chain rule.  Each
    derivative is kept on its node, so a walk computes only those of the
    nodes that contain v and lack one, children first.
    """
    bit = VARIABLES.bits.get(v)  # None if no node holds v
    if bit is None or not e.vmask & bit or type(e) is Sign:
        return ZERO
    ds = e._diffs
    if ds is not None:
        if type(ds) is tuple:
            if ds[0] == bit:
                return ds[1]
        elif bit in ds:
            return ds[bit]
    # one explicit-stack post-order walk from a sentinel entry whose child is
    # e, entering only the nodes that hold their variable, are of a walked
    # type and lack its derivative (a node met again is skipped by the
    # derivative kept on it).  An entry carries its children's variable and
    # bit: under a Conj, the conjugate's (bit 0 if no node holds it)
    stack = [(None, iter((e,)), v, bit)]
    while True:
        node, kids, v, bit = stack[-1]
        for c in kids:
            if (c.vmask & bit and type(c) in _DIFF_WALKED
                    and ((cd := c._diffs) is None
                         or (cd[0] != bit if type(cd) is tuple else bit not in cd))):
                if type(c) is Conj:
                    cv = conj_var(v)
                    stack.append((c, iter(c.children()), cv, VARIABLES.bits.get(cv, 0)))
                else:
                    stack.append((c, iter(c.children()), v, bit))
                break
        else:
            stack.pop()
            if node is None:
                return d  # e's: it is the walk's last node
            if type(node) is Conj:  # its own variable is its parent's children's
                v, bit = stack[-1][2:]
            d = _diff(node, v)
            ds = node._diffs
            if ds is None:
                node._diffs = (bit, d)
            elif type(ds) is tuple:
                node._diffs = {ds[0]: ds[1], bit: d}
            else:
                ds[bit] = d


def _diff(e: Expr, v: VarId) -> Expr:
    """e's derivative by the rule of its type; diff of a child is a lookup.
    A product or chain rule that yields one term returns it as sum_ would."""
    if isinstance(e, Var):
        return ONE  # only v itself is entered
    if isinstance(e, Sum):
        return sum_([diff(tm, v) for tm in e.terms])
    if isinstance(e, Product):
        fs = e.factors
        terms = []
        for i, f in enumerate(fs):
            d = diff(f, v)
            if d is ZERO:
                continue
            nf = fs[:i] + (d,) + fs[i + 1:]
            if (type(d) is Sum or type(d) is FuncApp) and not any(
                    g is d or (type(g) is IntPow and g.base is d)
                    for j, g in enumerate(fs) if j != i):
                # d is a new base of power 1 in f's place, so nf is already
                # the normal form prod(nf) would build
                terms.append(_nary(Product, nf))
            else:
                terms.append(prod(nf))
        return _sum_of(terms)
    if isinstance(e, IntPow):
        return prod((const(e.k), int_pow(e.base, e.k - 1), diff(e.base, v)))
    if isinstance(e, AbsPow):
        return prod((const(e.q), abs_pow(e.base, e.q - 1), sign_of(e.base), diff(e.base, v)))
    if isinstance(e, Conj):
        # conj(f)' is conj(f') by v with its jet flag flipped, which the walk
        # made first
        return conj_expr(diff(e.arg, conj_var(v)))
    terms = []
    for s in range(e.sym.arity):  # a FuncApp
        d = diff(e.args[s], v)
        if d is ZERO:
            continue
        didx = list(e.didx)
        didx[s] += 1
        terms.append(prod((func_app(e.sym, e.args, didx), d)))
    return _sum_of(terms)


def _sum_of(terms: list) -> Expr:
    """sum_(terms), without its walk when the one term is its own sum: a
    normal term that is neither a Sum nor a Const times a Sum, which sum_
    would take apart and build again."""
    if len(terms) == 1:
        tm = terms[0]
        if type(tm) is not Sum and not (type(tm) is Product and len(tm.factors) == 2
                                        and type(tm.factors[1]) is Sum
                                        and type(tm.factors[0]) is Const):
            return tm
    return sum_(terms)


def total_derivative(e: Expr, direction: int) -> Expr:
    """Total derivative D_t (direction 0) or D_a (direction a in 1..n).

    Differentiates explicit t/x dependence and raises jet multi-indices.
    """
    base = T_VAR if direction == 0 else x_var(direction)
    out = diff(e, base)
    for j in sorted(e.jet_vars, key=lambda v: (v.alpha, v.conj)):
        d = diff(e, j)
        if d is ZERO:
            continue
        out = out + d * var(raise_jet(j, direction))
    return out


class _Pending(Exception):
    """A Conj met by ``subst`` before its image is made."""


def subst(e: Expr, mapping: Mapping[VarId, Expr]) -> Expr:
    """Replace variables by expressions (nothing is captured: vars are global).
    An entry mapping a variable to itself is dropped, and e is returned when
    none is left, so substituting t for t rebuilds nothing.

    A Conj node is a function of the conjugates of the jets its argument
    holds (as ``diff`` takes it), so one that holds a mapped variable becomes
    the conjugate of its argument under the conjugate map: each key swapped
    for its conjugate (t and x are their own) and each value conjugated.
    Every Conj of the call shares that one map, made at the first, so the
    two maps' ``done`` dicts serve any nesting.  A rebuild that meets a Conj
    without an image stops before it builds anything, and the arguments of
    its Conjs are rebuilt first, on an explicit stack, so nesting has no
    depth limit.
    """
    mapping = {v: x for v, x in mapping.items() if x is not var(v)}
    if not mapping:
        return e
    sides: list = []  # (done, mask) of the map, then of the conjugate map
    stack = [(e, 0, None)]  # (node, side of its map, the Conj it is the argument of)
    while True:
        u, k, c = stack[-1]
        if k == len(sides):
            m = mapping if k == 0 else {conj_var(v): conj_expr(x) for v, x in mapping.items()}
            done = {var(v): x for v, x in m.items()}
            mask = 0
            for w in done:
                mask |= w.vmask
            sides.append((done, mask))
        done, mask = sides[k]

        def enter(w, pending=None):
            if not w.vmask & mask:
                return False
            if type(w) is not Conj:
                return True
            if w not in done:
                if pending is None:
                    raise _Pending
                pending.append(w)
            return False

        try:
            out = _rebuild(u, done, enter)
        except _Pending:
            pending: list = []
            post_order(u, lambda w: enter(w, pending))
            stack += [(w.arg, 1 - k, w) for w in pending]
            continue
        stack.pop()
        if c is None:
            return out
        sides[1 - k][0][c] = conj_expr(out)


def inline(e: Expr, defs: Mapping[FunctionSymbol, Expr]) -> Expr:
    """Replace each application f(t) of a symbol f that defs defines by f's
    definition, an expression in t.  ValueError where a defined symbol is
    left applied otherwise (at another argument, or differentiated)."""
    done = {func_app(f, [t()]): d for f, d in defs.items()}
    mask = 0
    for u in done:
        mask |= u.smask
    out = _rebuild(e, done, lambda u: u not in done and u.smask & mask)
    left = sorted(f.name for f in SYMBOLS.members_of(out.smask & mask))
    if left:
        raise ValueError(f"{', '.join(left)} applied other than at t")
    return out


def _rebuild(e: Expr, done: dict, enter) -> Expr:
    """e with each node for which `enter` holds rebuilt from its children's
    images, children first.  `done` comes holding the images the rebuild
    starts from (of each variable `enter` admits, and of each node it
    keeps out whose image is not itself) and gets the rebuilt nodes'."""
    get = done.get
    for u in post_order(e, enter):
        if isinstance(u, Sum):
            out = sum_([get(tm, tm) for tm in u.terms])
        elif isinstance(u, Product):
            out = prod([get(f, f) for f in u.factors])
        elif isinstance(u, IntPow):
            out = int_pow(get(u.base, u.base), u.k)
        elif isinstance(u, AbsPow):
            out = abs_pow(get(u.base, u.base), u.q)
        elif isinstance(u, Sign):
            out = sign_of(get(u.base, u.base))
        elif isinstance(u, Conj):
            out = conj_expr(get(u.arg, u.arg))
        elif isinstance(u, FuncApp):
            out = func_app(u.sym, [get(a, a) for a in u.args], u.didx)
        else:
            continue  # a variable, whose image done holds
        done[u] = out
    return get(e, e)


def depends_only_on_t(e: Expr) -> bool:
    return not e.vmask & ~VARIABLES.bits.get(T_VAR, 0)


def has_complex_symbols(e: Expr) -> bool:
    return bool(e.smask & SYMBOLS.marked)
