import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from entrodim.core import eval_slack
from entrodim.distributions import JointDistribution, exact_entropy_vector
from entrodim.dsl import (
    InequalityParseError,
    ZeroInequalityError,
    _tokenize,
    format_inequality,
    parse_inequality,
    parse_with_names,
)
from entrodim.linear import LinearInequality, mask_positions, rational_text, subsets


def test_parse_basic_entropy_terms():
    ineq, names = parse_with_names("2 H(x,y,z) <= H(x,y) + H(x,z) + H(y,z)")
    assert names == ("x", "y", "z")
    assert ineq.m == 3
    assert ineq.coeffs == {
        3: Fraction(1),
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-2),
    }


def test_parse_mutual_information():
    ineq = parse_inequality("I(x;y) >= 0")
    assert ineq.coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)}


def test_parse_conditional_sugar():
    # H(y,z|x) <= H(y|x) + H(z|x) with an explicit variable order
    ineq = parse_inequality(
        "H(y,z|x) <= H(y|x) + H(z|x)", declared_vars=("x", "y", "z")
    )
    assert ineq.coeffs == {
        1: Fraction(-1),
        3: Fraction(1),
        5: Fraction(1),
        7: Fraction(-1),
    }
    # conditional mutual information expands to the four-term form
    a = parse_inequality("I(x;y|z) >= 0", declared_vars=("x", "y", "z"))
    assert a.coeffs == {
        4: Fraction(-1),
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-1),
    }


def test_first_appearance_binding():
    text = "H(y,z|x) <= H(y|x) + H(z|x)"
    ineq, names = parse_with_names(text)
    assert names == ("y", "z", "x")
    # same text as test_parse_conditional_sugar but y,z,x get positions 1,2,3
    assert ineq.coeffs == {
        4: Fraction(-1),
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-1),
    }


def test_rational_coefficients():
    ineq = parse_inequality("1/2 H(x) + 1/2 H(y) >= 1/2 H(x,y)")
    assert ineq.coeffs == {
        1: Fraction(1, 2),
        2: Fraction(1, 2),
        3: Fraction(-1, 2),
    }
    star = parse_inequality("3 * H(x) >= H(x)")
    assert star.coeffs == {1: Fraction(2)}


def test_zero_and_constant_terms():
    ineq = parse_inequality("0 <= I(x;y)")
    assert ineq.coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)}
    with pytest.raises(InequalityParseError) as err:
        parse_inequality("H(x) >= 1")
    assert "constant" in str(err.value)


def test_parse_errors():
    with pytest.raises(ZeroInequalityError):
        parse_inequality("H(x) <= H(x)")
    with pytest.raises(InequalityParseError) as err:
        parse_inequality("H(x <= H(y)")
    assert err.value.position >= 0
    with pytest.raises(InequalityParseError):
        parse_inequality("H() >= 0")
    with pytest.raises(InequalityParseError):
        parse_inequality("H(x) >= 0 extra")
    with pytest.raises(InequalityParseError):
        parse_inequality("H(x) < H(y)")
    with pytest.raises(InequalityParseError):
        parse_inequality("H(x) >= H(q)", declared_vars=("x", "y"))
    with pytest.raises(InequalityParseError):
        parse_inequality("1/0 H(x) >= 0")
    with pytest.raises(InequalityParseError):
        parse_inequality("")


_REFUSALS = [
    # (text, declared names, message, position)
    ("H(x) < H(y)", None, "unexpected character '<'", 5),
    ("H(x,) >= 0", None, "expected a variable name, found ')'", 4),
    ("H(x) >= H(q)", ("x", "y"), "unknown variable 'q'", 10),
    ("1/x H(x) >= 0", None, "expected denominator digits", 2),
    ("1/0 H(x) >= 0", None, "zero denominator", 2),
    ("2 H(x) <= 3", None, "nonzero constant term", 10),
    ("G(x) >= 0", None, "expected H(...) or I(...), found 'G'", 0),
    ("", None, "expected H(...) or I(...), found 'end of input'", 0),
    ("H() >= 0", None, "empty H()", 2),
    ("I() >= 0", None, "empty I()", 2),
    ("I(x;y) <= I(x|y)", None, "expected ';', found '|'", 13),
    ("H(x|y|z) >= 0", None, "expected ')', found '|'", 5),
    ("H(x) <= H(x,y", None, "expected ')', found 'end of input'", 13),
    ("H(x) + H(y)", None, "expected '<=' or '>=', found 'end of input'", 11),
    ("H(x) >= 0 )", None, "trailing input ')'", 10),
    ("H(x <= H(y)", None, "expected ')', found '<='", 4),
    ("H(x) >= 0 extra", None, "expected H(...) or I(...), found 'extra'", 10),
]


@pytest.mark.parametrize("text, declared, message, position", _REFUSALS)
def test_every_refusal_keeps_its_text_and_position(text, declared, message, position):
    with pytest.raises(InequalityParseError) as err:
        parse_with_names(text, declared)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("declared", [None, ("x",)])
def test_a_text_with_no_atom_says_nothing(declared):
    with pytest.raises(ZeroInequalityError):
        parse_with_names("0 <= 0", declared)


def test_declared_names_must_be_distinct():
    with pytest.raises(ValueError) as err:
        parse_with_names("H(x) >= 0", ("x", "x"))
    assert str(err.value) == "declared variable names must be distinct"


def test_a_too_long_number_names_its_position():
    # int() refuses a number of more than sys.get_int_max_str_digits() digits
    # (4300 by default) with a ValueError; the parser names the number
    long = "9" * 5000
    for text, position in ((f"{long} H(x) >= 0", 0),
                           (f"H(x) <= 1/{long} H(x,y)", 10),
                           (f"H(x) <= H(x,y) + {long}", 17)):
        with pytest.raises(InequalityParseError, match="number of 5000 digits is too long") as err:
            parse_inequality(text)
        assert err.value.position == position
    # a number the limit allows is read in full
    q = parse_inequality(f"{'9' * 4000} H(x) <= {'9' * 4000}/7 H(x,y)")
    assert q.coeffs == {1: -Fraction(int("9" * 4000)), 3: Fraction(int("9" * 4000), 7)}


def test_format_examples():
    ineq = LinearInequality(2, {1: -1, 3: 1})
    assert format_inequality(ineq, ("x", "y")) == "1 H(x) <= 1 H(x,y)"
    eq1 = LinearInequality(3, {3: 1, 5: 1, 6: 1, 7: -2})
    assert (
        format_inequality(eq1, ("x", "y", "z"))
        == "2 H(x,y,z) <= 1 H(x,y) + 1 H(x,z) + 1 H(y,z)"
    )


def test_format_errors():
    ineq = LinearInequality(2, {1: -1, 3: 1})
    with pytest.raises(ValueError):
        format_inequality(ineq, ("x",))
    with pytest.raises(ValueError):
        format_inequality(ineq, ("x", "x"))
    # a name the parser would not read back as one name token
    for names, bad in ((("a b", "c"), "a b"), (("1x", "y"), "1x"), (("", "y"), "")):
        with pytest.raises(ValueError, match=re.escape(f"variable name {bad!r} is not one name token")):
            format_inequality(ineq, names)


def test_round_trip_random():
    rng = random.Random(20260814)
    names = ("a", "b", "c", "d")
    for _ in range(200):
        m = rng.randint(1, 4)
        coeffs = {}
        for s in subsets(m):
            if rng.random() < 0.6:
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if q:
                    coeffs[s] = q
        if not coeffs:
            coeffs = {1: Fraction(1)}
        ineq = LinearInequality(m, coeffs)
        text = format_inequality(ineq, names[:m])
        back = parse_inequality(text, declared_vars=names[:m])
        assert back == ineq


_BIG = 2**80
_COEFFICIENTS = st.one_of(
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


@st.composite
def _coefficient_maps(draw):
    """m and a map of int and Fraction coefficients, zeros included, with
    one nonzero coefficient at least."""
    m = draw(st.integers(1, 4))
    coeffs = draw(st.dictionaries(st.sampled_from(subsets(m)), _COEFFICIENTS, min_size=1))
    assume(any(coeffs.values()))
    return m, coeffs


@settings(max_examples=300, deadline=None)
@given(_coefficient_maps())
def test_integer_form_holds_and_round_trips(case):
    m, coeffs = case
    q = LinearInequality(m, coeffs)
    assert q.den > 0 and math.gcd(q.den, *q.nums.values()) == 1
    assert list(q.nums) == sorted(q.nums) and all(q.nums.values())
    assert q.coeffs == {mask: Fraction(c) for mask, c in coeffs.items() if c}
    # the same values given in other forms: ints as Fractions and back,
    # zeros on every other mask, the masks in reverse order
    other = {mask: Fraction(0) for mask in subsets(m)}
    for mask, c in sorted(coeffs.items(), reverse=True):
        other[mask] = int(c) if Fraction(c).denominator == 1 else Fraction(c)
    assert LinearInequality(m, other) == q
    with pytest.raises(TypeError):
        q.nums[1] = 1
    with pytest.raises(TypeError):
        q.coeffs[1] = Fraction(1)
    names = ("a", "b", "c", "d")[:m]
    assert parse_inequality(format_inequality(q, names), names) == q


@settings(max_examples=200, deadline=None)
@given(_coefficient_maps(), st.one_of(st.integers(1, 60), st.integers(1, _BIG)))
def test_a_given_denominator_divides_every_coefficient(case, den):
    # the parser's path: integer numerators over one running denominator
    m, coeffs = case
    q = LinearInequality(m, coeffs, den)
    assert q == LinearInequality(m, {mask: Fraction(c) / den for mask, c in coeffs.items()})
    assert q.den > 0 and math.gcd(q.den, *q.nums.values()) == 1
    for bad, error in ((0, ValueError), (-6, ValueError), (1.5, TypeError), (Fraction(2), TypeError)):
        with pytest.raises(error):
            LinearInequality(m, coeffs, bad)


def _random_distribution(rng, m):
    npts = rng.randint(2, 6)
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randrange(3) for _ in range(m)))
    weights = [rng.randint(1, 9) for _ in range(npts)]
    total = sum(weights)
    atoms = tuple(
        (p, Fraction(w, total)) for p, w in zip(sorted(pts), weights)
    )
    return JointDistribution(m, atoms)


def test_sugar_matches_direct_entropies():
    # I(x;y|z) >= 0 evaluated through the parser must equal the textbook
    # combination of marginal entropies on genuine distributions.
    rng = random.Random(5)
    ineq = parse_inequality("I(x;y|z) >= 0", declared_vars=("x", "y", "z"))
    for _ in range(40):
        d = _random_distribution(rng, 3)
        v = exact_entropy_vector(d)
        got = eval_slack(ineq, v)
        want = v[0b101] + v[0b110] - v[0b111] - v[0b100]
        assert (got - want).sign() == 0
        assert got.sign() >= 0


# -- the parser against a reference expansion of each atom ---------------------

_NAMES = ("x", "y", "z", "w")


def _reference_terms(kind, sets):
    """The textbook expansion of one atom as (set of names, +1 or -1) pairs."""
    if kind == "H":
        (a,) = sets
        return [(a, 1)]
    if kind == "H|":
        a, b = sets
        return [(a | b, 1), (b, -1)]  # H(A|B) = H(A,B) - H(B)
    if kind == "I":
        a, b = sets
        return [(a, 1), (b, 1), (a | b, -1)]  # I(A;B) = H(A) + H(B) - H(A,B)
    a, b, c = sets  # I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)
    return [(a | c, 1), (b | c, 1), (a | b | c, -1), (c, -1)]


_ATOM_SHAPES = {"H": "H({})", "H|": "H({}|{})", "I": "I({};{})", "I|": "I({};{}|{})"}


@st.composite
def _terms(draw):
    """(text, sign, coefficient, atom) for one term; atom is None for the
    bare zero, else (kind, list of name lists in the order written)."""
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.integers(0, 9)) == 0:
        return "0", sign, Fraction(0), None
    kind = draw(st.sampled_from(sorted(_ATOM_SHAPES)))
    arity = _ATOM_SHAPES[kind].count("{}")
    lists = [draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3))
             for _ in range(arity)]
    atom = _ATOM_SHAPES[kind].format(*(",".join(v) for v in lists))
    style = draw(st.sampled_from(("none", "int", "star", "ratio")))
    if style == "none":
        return atom, sign, Fraction(1), (kind, lists)
    num = draw(st.one_of(st.integers(0, 12), st.integers(0, _BIG)))
    if style == "ratio":
        # small, sharing factors (so the running denominator rescales), or big
        den = draw(st.one_of(st.integers(1, 7), st.sampled_from((6, 10, 15)),
                             st.integers(1, _BIG)))
        return f"{num}/{den} {atom}", sign, Fraction(num, den), (kind, lists)
    text = f"{num} * {atom}" if style == "star" else f"{num} {atom}"
    return text, sign, Fraction(num), (kind, lists)


def _side(terms):
    text = terms[0][0]
    for t, sign, _, _ in terms[1:]:
        text += (" + " if sign > 0 else " - ") + t
    return text


@settings(max_examples=300, deadline=None)
@given(st.lists(_terms(), min_size=1, max_size=4),
       st.lists(_terms(), min_size=1, max_size=4),
       st.sampled_from(("<=", ">=")),
       st.booleans(),
       st.booleans())
def test_parser_matches_the_reference_expansion(lhs, rhs, rel, declared, echo):
    if echo:
        # the left side's first term again on the right cancels it
        text, _, coeff, atom = lhs[0]
        rhs = rhs + [(text, 1, coeff, atom)]
    text = f"{_side(lhs)} {rel} {_side(rhs)}"
    order = list(_NAMES) if declared else []
    want: dict[int, Fraction] = {}
    # right side minus left side for "<=", the negation for ">="
    flip = 1 if rel == "<=" else -1
    for side_sign, terms in ((-flip, lhs), (flip, rhs)):
        for i, (_, sign, coeff, atom) in enumerate(terms):
            if atom is None:
                continue
            kind, lists = atom
            sets = []
            for names in lists:
                order.extend(v for v in names if v not in order)
                sets.append(frozenset(names))
            term_sign = 1 if i == 0 else sign  # a side's first term has no sign
            for s, c in _reference_terms(kind, sets):
                mask = sum(1 << order.index(v) for v in s)
                want[mask] = want.get(mask, 0) + side_sign * term_sign * c * coeff
    want = {mask: c for mask, c in want.items() if c}
    names = tuple(_NAMES) if declared else None
    if not want:
        with pytest.raises(ZeroInequalityError):
            parse_with_names(text, names)
        return
    q, bound = parse_with_names(text, names)
    assert bound == tuple(order)
    assert q == LinearInequality(len(order), want)
    assert parse_inequality(format_inequality(q, bound), bound) == q


def _reference_format(ineq, names):
    """format_inequality as it was written with a Fraction per term."""
    def side(sign):
        parts = []
        for mask, c in ineq.coeffs.items():
            if c * sign > 0:
                vars_txt = ",".join(names[p - 1] for p in mask_positions(mask))
                parts.append(f"{c * sign} H({vars_txt})")
        return " + ".join(parts) or "0"
    return side(-1) + " <= " + side(1)


@settings(max_examples=300, deadline=None)
@given(_coefficient_maps(), st.booleans())
def test_format_matches_the_fraction_printer(case, whole):
    m, coeffs = case
    if whole:  # every coefficient an int: den == 1
        coeffs = {mask: Fraction(c).numerator for mask, c in coeffs.items()}
        assume(any(coeffs.values()))
    q = LinearInequality(m, coeffs)
    assert q.den == 1 or not whole
    names = ("a", "b", "c", "d")[:m]
    assert format_inequality(q, names) == _reference_format(q, names)


_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op><=|>=|[-+*/(),;|]))"
)


def _reference_tokenize(text):
    """The tokenizer as it was written with one match per position: the
    tokens, or the message and position of the first bad character."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            return f"unexpected character {text[bad]!r}", bad
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens + [("end", "", len(text))]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    list("HIxy_0917 (),;|/*+-<=>!.\t\n") + ["\u00a0", "\u2003", "\u0663", "\u00e9", "\u00b2", "\x1c"]),
    max_size=30))
def test_tokenizer_matches_the_one_match_per_position_scan(text):
    want = _reference_tokenize(text)
    if isinstance(want, list):
        assert _tokenize(text) == want
    else:
        with pytest.raises(InequalityParseError) as err:
            _tokenize(text)
        assert (str(err.value), err.value.position) == (f"{want[0]} (at position {want[1]})", want[1])


_LONG_INTS = [
    0, 7, -7, (1 << 2000) - 1, 1 << 2000, 10**5000, 10**5000 + 1, -(10**5000),
    7 * 10**9000 + 3, (10**6001 - 1) // 9, 3**20000,
]


# ids by bit length: a long int's repr is more than str() writes
@pytest.mark.parametrize(
    "n", _LONG_INTS, ids=[f"{i}:{n.bit_length()}bits" for i, n in enumerate(_LONG_INTS)]
)
def test_rational_text_writes_ints_of_any_length(n):
    # Decimal writes an int of any length, so it is the reference
    assert rational_text(n) == f"{Decimal(n)}"
    q = Fraction(n, 3**9000 * 7)
    den = "" if q.denominator == 1 else f"/{Decimal(q.denominator)}"
    assert rational_text(q) == f"{Decimal(q.numerator)}{den}"
