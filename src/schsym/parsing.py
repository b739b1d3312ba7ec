"""Expression grammar: parser and printer.

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := atom ['^' exponent]
    exponent := ['-'] (INT | FLOAT) | '(' ratio ')'
    ratio    := ['-'] (INT ['/' INT] | FLOAT) | '(' ratio ')'
    atom     := NUMBER | 'i' | 'pi' | '|' expr '|' | '(' expr ')'
              | 'conj' '(' expr ')' | 'sgn' '(' expr ')'
              | 'D' '(' expr (',' VAR)+ ')'
              | IDENT '[' INT {',' INT} ']' '(' args ')'
              | IDENT '(' args ')' | IDENT

Reserved identifiers: t, x1..xn, psi plus jet suffixes (psi_t, psi_1,
psi_11, conj(psi_..) for conjugates), i, pi, conj, sgn, D.  A fractional
power on a real base denotes |base|^q and is written in parentheses,
t^(2/3) or t^(-1/2), so t^3/3 is (t^3)/3; `D(e, v, ...)` differentiates at
parse time; `f[k1,..,km](args)` is the formal slot-derivative of f.  An
exponent above MAX_POWER in size, or a power of an exact constant whose
value could exceed MAX_POWER_BITS bits, is a parse error, and so is a
number of more than MAX_DIGITS digits.

The rules run on one explicit stack, so nesting depth has no limit, and
print -> parse is the identity on the expression DAG.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional

from . import schema
from .expr import (
    AbsPow,
    Conj,
    Const,
    Expr,
    FuncApp,
    I_UNIT,
    IntPow,
    Product,
    Sign,
    Sum,
    SymbolTable,
    T_VAR,
    Var,
    VarId,
    abs_pow,
    conj_expr,
    const,
    diff,
    func_app,
    int_pow,
    jet_var,
    post_order,
    sign_of,
    var,
    x_var,
)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ParseError):
    pass


# a larger power is a parse error: the size of the exponent, and |exponent|
# times the bit length of an exact constant base, which bounds the size of
# the power's exact value
MAX_POWER = 100_000
MAX_POWER_BITS = 2 ** 18
# a longer numeric literal is a parse error: Python's default limit on
# int-string conversion, which Fraction enforces on integers
MAX_DIGITS = 4300


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


class _Parser:
    def __init__(self, text: str, table: SymbolTable, n: int):
        self.text = text
        self.pos = 0
        self.table = table
        self.n = n

    # -- lexing helpers

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, expected: str):
        self._skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ParseError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def try_take(self, expected: str) -> bool:
        self._skip_ws()
        if self.text.startswith(expected, self.pos):
            self.pos += len(expected)
            return True
        return False

    def _number(self) -> Fraction:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos == start or self.text[start] == ".":
            raise ParseError("expected a number", start)
        literal = self.text[start:self.pos]
        digits = len(literal) - literal.count(".")
        if digits > MAX_DIGITS:
            raise ParseError(f"number of {digits} digits exceeds {MAX_DIGITS}", start)
        return Fraction(literal)

    def _ident(self) -> tuple[str, int]:
        self._skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not _is_ident_start(self.text[self.pos]):
            raise ParseError("expected an identifier", self.pos)
        while self.pos < len(self.text) and _is_ident_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos], start

    @staticmethod
    def _build(pos: int, op, *args):
        """op(*args), raising its ValueError or exact division by zero as a
        ParseError at pos."""
        try:
            return op(*args)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseError(str(err), pos) from None

    # -- grammar

    def parse(self) -> Expr:
        # each rule is a generator that yields the rule of a nested phrase
        # and is sent back its result, so nesting depth costs no Python frames
        stack = [self.expr()]
        value = None
        while stack:
            try:
                rule = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(rule())
                value = None
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return value

    def expr(self):
        neg = self.try_take("-")
        e = yield self.term
        if neg:
            e = -e
        while True:
            if self.try_take("+"):
                e = e + (yield self.term)
            elif self.try_take("-"):
                e = e - (yield self.term)
            else:
                return e

    def term(self):
        e = yield self.factor
        while True:
            if self.try_take("*"):
                e = e * (yield self.factor)
            elif self.try_take("/"):
                pos = self.pos
                e = self._build(pos, operator.truediv, e, (yield self.factor))
            else:
                return e

    def factor(self):
        e = yield self.atom
        if self.try_take("^"):
            pos = self.pos
            q = self.exponent()
            if abs(q) > MAX_POWER:
                raise ParseError(f"exponent {q} exceeds {MAX_POWER} in size", pos)
            if type(e) is Const:
                bits = max(n.bit_length() for n in e.coeff)
                if abs(q) * bits > MAX_POWER_BITS:
                    raise ParseError(f"exponent {q} of a {bits}-bit constant exceeds "
                                     f"{MAX_POWER_BITS} bits", pos)
            if q.denominator == 1:
                return self._build(pos, int_pow, e, q.numerator)
            return self._build(pos, abs_pow, e, q)
        return e

    def exponent(self) -> Fraction:
        depth = 0
        while self.try_take("("):
            depth += 1
        neg = self.try_take("-")
        q = self._number()
        # a ratio only inside parentheses: t^3/3 is (t^3)/3, not t^(3/3)
        if depth and self.try_take("/"):
            q = self._build(self.pos, operator.truediv, q, self._number())
        for _ in range(depth):
            self.take(")")
        return -q if neg else q

    def atom(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        c = self.text[self.pos]
        if c.isdigit() or c == ".":
            return const(self._number())
        if c == "(":
            self.take("(")
            e = yield self.expr
            self.take(")")
            return e
        if c == "|":
            self.take("|")
            e = yield self.expr
            self.take("|")
            return self._build(self.pos, abs_pow, e, Fraction(1))
        name, start = self._ident()
        if name == "i":
            return I_UNIT
        if name == "conj":
            self.take("(")
            e = yield self.expr
            self.take(")")
            return conj_expr(e)
        if name == "sgn":
            self.take("(")
            e = yield self.expr
            self.take(")")
            return self._build(start, sign_of, e)
        if name == "D":
            self.take("(")
            e = yield self.expr
            vs = []
            while self.try_take(","):
                vs.append(self._varid())
            self.take(")")
            if not vs:
                raise ParseError("D(...) needs at least one variable", start)
            for v in vs:
                e = diff(e, v)
            return e
        if name == "t":
            return var(T_VAR)
        v = self._try_varid_name(name, start)
        if v is not None:
            return var(v)
        sym = self.table.get(name)
        if sym is None:
            raise UnknownSymbolError(f"unknown symbol {name!r}", start)
        didx: Optional[list[int]] = None
        if self.try_take("["):
            didx = [int(self._number())]
            while self.try_take(","):
                didx.append(int(self._number()))
            self.take("]")
        if self.try_take("("):
            args = []
            if not self.try_take(")"):
                args.append((yield self.expr))
                while self.try_take(","):
                    args.append((yield self.expr))
                self.take(")")
            return self._build(start, func_app, sym, args, didx)
        if sym.arity != 0:
            raise ParseError(f"symbol {name!r} expects arguments", start)
        return func_app(sym, ())

    def _varid(self) -> VarId:
        name, start = self._ident()
        if name == "t":
            return T_VAR
        v = self._try_varid_name(name, start)
        if v is None:
            raise ParseError(f"expected a variable, got {name!r}", start)
        return v

    def _try_varid_name(self, name: str, start: int) -> Optional[VarId]:
        if name.startswith("x") and name[1:].isdigit():
            a = int(name[1:])
            if not 1 <= a <= self.n:
                raise ParseError(f"space index out of range: {name}", start)
            return x_var(a)
        if name == "psi":
            return jet_var((0,) * (self.n + 1))
        if name.startswith("psi_"):
            suffix = name[4:]
            alpha = [0] * (self.n + 1)
            for ch in suffix:
                if ch == "t":
                    alpha[0] += 1
                elif ch.isdigit() and 1 <= int(ch) <= self.n:
                    alpha[int(ch)] += 1
                else:
                    raise ParseError(f"bad jet suffix in {name!r}", start)
            if not suffix:
                raise ParseError(f"bad jet suffix in {name!r}", start)
            return jet_var(alpha)
        return None


def parse(text: str, table: Optional[SymbolTable] = None, n: int = 2) -> Expr:
    """Parse an expression; unknown function symbols raise UnknownSymbolError."""
    return _Parser(text, table or SymbolTable(), n).parse()


_DECLARATION = {
    "name": (lambda v: schema.string(v) and v != "", "a non-empty string"),
    "arity": (lambda v: schema.integer(v) and v >= 0, "a non-negative integer"),
    "codomain": (lambda v: v in ("real", "complex"), "'real' or 'complex'"),
}


def load_declarations(decls, table: SymbolTable) -> list:
    """Declare symbols from a JSON list of {name, arity, codomain}.

    Every entry is checked before any symbol is declared; a malformed one
    raises ValueError naming the entry and the field.
    """
    if type(decls) is not list:
        raise ValueError("declarations must be a JSON list of {name, arity, codomain} objects")
    for i, d in enumerate(decls):
        schema.check(d, _DECLARATION, required=_DECLARATION, name=f"declaration {i}")
    return [table.declare(d["name"], d["arity"], d["codomain"]) for d in decls]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_SUM = 1
_PREC_TERM = 2
_PREC_POW = 3
_PREC_ATOM = 4


def var_name(v: VarId) -> str:
    if v.kind == "t":
        return "t"
    if v.kind == "x":
        return f"x{v.a}"
    suffix = "t" * v.alpha[0] + "".join(str(a) * v.alpha[a] for a in range(1, len(v.alpha)))
    name = "psi" if not suffix else f"psi_{suffix}"
    return f"conj({name})" if v.conj else name


def _ratio_text(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _frac(q: Fraction) -> str:
    return _ratio_text(q.numerator, q.denominator)


def _const_text(e: Const) -> tuple[str, int]:
    rn, rd, jn, jd = e.coeff
    if not jn:
        prec = _PREC_ATOM if rn >= 0 and rd == 1 else (_PREC_SUM if rn < 0 else _PREC_TERM)
        return _ratio_text(rn, rd), prec
    unit = jd == 1 and abs(jn) == 1  # the imaginary part is +-1
    if not rn:
        if unit:
            return ("i", _PREC_ATOM) if jn > 0 else ("-i", _PREC_SUM)
        return f"{_ratio_text(jn, jd)}*i", _PREC_SUM if jn < 0 else _PREC_TERM
    real = _ratio_text(rn, rd)
    if jn > 0:
        return f"({real} + {'i' if unit else _ratio_text(jn, jd) + '*i'})", _PREC_ATOM
    return f"({real} - {_ratio_text(-jn, jd)}*i)", _PREC_ATOM


def _wrap(s: str, prec: int, context: int) -> str:
    return f"({s})" if prec < context else s


def _text(e: Expr, done: dict) -> tuple[str, int]:
    """(text, precedence) of e, given its children's in `done`."""
    if isinstance(e, Const):
        return _const_text(e)
    if isinstance(e, Var):
        return var_name(e.vid), _PREC_ATOM
    if isinstance(e, Sum):
        parts = []
        for i, tm in enumerate(e.terms):
            s, p = done[tm]
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s if p > _PREC_SUM else '(' + s + ')'}")
        return "".join(parts), _PREC_SUM
    if isinstance(e, Product):
        parts = [_wrap(*done[f], _PREC_TERM) for f in e.factors]
        head = e.factors[0]
        if isinstance(head, Const) and not head.coeff[2] and head.coeff[0] < 0:
            # pull the sign out so sums can print "a - b"
            rn, rd = head.coeff[:2]
            if rn == -1 and rd == 1:
                del parts[0]
            else:
                parts[0] = _ratio_text(-rn, rd)
            return "-" + "*".join(parts), _PREC_SUM
        return "*".join(parts), _PREC_TERM
    if isinstance(e, IntPow):
        b, p = done[e.base]
        exp = str(e.k) if e.k >= 0 else f"(-{-e.k})"
        return f"{_wrap(b, p, _PREC_ATOM)}^{exp}", _PREC_POW
    if isinstance(e, AbsPow):
        b, _ = done[e.base]
        if e.q == 1:
            return f"|{b}|", _PREC_ATOM
        q = e.q
        if q.denominator == 1 and q >= 0:
            exp = str(q.numerator)
        else:
            exp = f"({_frac(q)})"
        return f"|{b}|^{exp}", _PREC_POW
    if isinstance(e, Sign):
        return f"sgn({done[e.base][0]})", _PREC_ATOM
    if isinstance(e, Conj):
        return f"conj({done[e.arg][0]})", _PREC_ATOM
    if isinstance(e, FuncApp):
        name = e.sym.name
        if any(e.didx):
            name += "[" + ",".join(str(k) for k in e.didx) + "]"
        if e.sym.arity == 0:
            return name, _PREC_ATOM
        args = ", ".join(done[a][0] for a in e.args)
        return f"{name}({args})", _PREC_ATOM
    raise TypeError(f"cannot print {type(e).__name__}")


def to_text(e: Expr) -> str:
    """Render an expression in the grammar; reparsing gives the same DAG.

    A node's text is dropped once the last of its distinct parents has
    printed, so a chain whose every level holds the text of the one below
    keeps two levels' texts, not all of them."""
    order = post_order(e)
    parents: dict = {}  # node -> distinct parents still to print
    for u in order:
        for c in set(u.children()):
            parents[c] = parents.get(c, 0) + 1
    done: dict = {}
    for u in order:
        done[u] = _text(u, done)
        for c in set(u.children()):
            parents[c] -= 1
            if not parents[c]:
                del done[c]
    return done[e][0]
