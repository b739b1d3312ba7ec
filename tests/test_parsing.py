"""Grammar coverage and parse diagnostics."""
import pytest

from schsym.expr import Const, SymbolTable, const, jet_var, var
from schsym.parsing import ParseError, UnknownSymbolError, load_declarations, parse, to_text


@pytest.fixture
def table():
    tbl = SymbolTable()
    load_declarations([{"name": "U", "arity": 1, "codomain": "complex"},
                       {"name": "g", "arity": 1, "codomain": "real"},
                       {"name": "b", "arity": 0, "codomain": "real"}], tbl)
    return tbl


def test_numbers_and_rationals(table):
    assert parse("3/4", table) is const(3, 0) / 4
    assert parse("1.25", table) is const(5, 0) / 4
    assert parse("2^(-2)", table) is const(1, 0) / 4


def test_reserved_names(table):
    assert parse("pi", table).sym.name == "pi"
    assert parse("i*i", table) is const(-1)
    assert parse("psi_t11", table) is var(jet_var((1, 2, 0)))


def test_jet_suffix_out_of_range(table):
    with pytest.raises(ParseError):
        parse("psi_3", table, n=2)
    with pytest.raises(ParseError):
        parse("x3", table, n=2)
    assert parse("x3", table, n=3) is var(__import__("schsym.expr", fromlist=["x_var"]).x_var(3))


def test_unknown_symbol_has_position(table):
    with pytest.raises(UnknownSymbolError) as err:
        parse("x1 + nope(t)", table)
    assert err.value.pos == 5


def test_syntax_error_position(table):
    with pytest.raises(ParseError) as err:
        parse("x1 + ", table)
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse("x1 ) x2", table)
    with pytest.raises(ParseError):
        parse("b(t)", table)  # arity-0 symbol applied to arguments


def test_fractional_power_needs_real_base(table):
    with pytest.raises(ParseError):
        parse("(i*x1)^(1/2)", table)
    ok = parse("(x1^2 + 1)^(1/2)", table)
    assert to_text(ok) == "|1 + x1^2|^(1/2)"


def test_derivative_form(table):
    assert parse("D(g(t),t)", table) is parse("g[1](t)", table)
    assert parse("D(x1^2, x1, x1)", table) is const(2)
    with pytest.raises(ParseError):
        parse("D(x1)", table)


def test_abs_and_sgn(table):
    e = parse("sgn(t)*|t|^(3/2)", table)
    assert parse(to_text(e), table) is e
    # sgn of even powers folds away
    assert parse("sgn(t^2)", table) is parse("1", table)


def test_division_folds_constants(table):
    assert parse("t/2", table) is parse("1/2*t", table)


def test_arity_mismatch(table):
    with pytest.raises(ParseError):
        parse("U(t, x1)", table)


def test_declarations_reject_conflicts(table):
    with pytest.raises(ValueError):
        load_declarations([{"name": "U", "arity": 2, "codomain": "complex"}], table)


def test_ratio_after_a_power_divides(table):
    # an unparenthesized ratio after '^' used to be read as the exponent
    assert parse("t^3/3", table) is parse("(t^3)/3", table)
    assert parse("2^3/4", table) is parse("(2^3)/4", table) is const(2)
    assert parse("t^2/3 + 1", table) is parse("((t^2)/3) + 1", table)
    assert parse("t^-1/2", table) is parse("(t^(-1))/2", table)


def test_parenthesized_exponents_unchanged(table):
    assert to_text(parse("t^(2/3)", table)) == "|t|^(2/3)"
    assert to_text(parse("t^(-1/2)", table)) == "|t|^(-1/2)"
    assert to_text(parse("t^((2/3))", table)) == "|t|^(2/3)"
    assert to_text(parse("t^-1", table)) == "t^(-1)"
    assert parse("t^-1", table) is parse("t^(-1)", table)


def test_rational_powers_round_trip(table):
    for text in ("t^(2/3)", "(1 + t^2)^(-3/2)*g(t)^(5/7)", "x1^(1/3)/3 + |t|^(4/3)",
                 "t^(3/2)/2", "t^1.5"):
        e = parse(text, table)
        assert parse(to_text(e), table) is e, text


def test_exact_zero_divisor_is_a_positioned_parse_error(table):
    # these used to escape as ZeroDivisionError
    for text, pos in (("1/0", 2), ("t/0", 2), ("0^(-1)", 2), ("t^(1/0)", 5),
                      ("|0|^(-1/2)", 4)):
        with pytest.raises(ParseError) as err:
            parse(text, table)
        assert err.value.pos == pos, text


def test_exponent_bound_is_a_positioned_parse_error(table):
    # (3/2)^10000000 used to take seconds and then fail to print
    for text, pos in (("(3/2)^100001", 6), ("t^-100001", 2), ("t^(200001/2)", 2),
                      ("((3/2)^100000)^2", 15)):
        with pytest.raises(ParseError) as err:
            parse(text, table)
        assert err.value.pos == pos, text
    assert parse("t^-100000", table) is parse("t^(-100000)", table)


def test_literal_length_bound_is_a_positioned_parse_error(table):
    # an integer this long used to escape as Python's int-string limit error
    for literal in ("1" * 4301, "1" * 4000 + "." + "1" * 301):
        with pytest.raises(ParseError) as err:
            parse("t + " + literal, table)
        assert err.value.pos == 4, literal[:8]
        assert str(err.value) == "number of 4301 digits exceeds 4300 (at position 4)"
    assert parse("1" * 4300, table) is const(int("1" * 4300))
    assert type(parse("0." + "5" * 4299, table)) is Const
