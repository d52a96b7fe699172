"""
Text front end for entropy inequalities.

Grammar (whitespace-insensitive, ``*`` optional after a coefficient):

    ineq     :=  expr ("<=" | ">=") expr
    expr     :=  term (("+" | "-") term)*
    term     :=  rational | [rational "*"?] atom
    atom     :=  "H(" vars ")" | "H(" vars "|" vars ")"
              |  "I(" vars ";" vars ["|" vars] ")"
    vars     :=  name ("," name)*
    rational :=  digits | digits "/" digits

A bare rational term must be the literal zero (entropy inequalities are
homogeneous, so a nonzero constant is rejected); it contributes nothing
and exists so that forms like "I(x;y) >= 0" parse.

Conditional entropy and mutual information are sugar:

    H(A|B)   = H(A,B) - H(B)
    I(A;B)   = H(A) + H(B) - H(A,B)
    I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)

Variables bind to positions 1..m in order of first appearance, unless an
explicit ordered name list is supplied.

The grammar has no nesting, so the parser is two loops over the tokens:
one over the terms, and one over the names of each list.  A name that is
not one name token cannot be read back, so name_texts refuses it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

from .linear import LinearInequality, rational_text, subset_texts

_NAME = r"[A-Za-z_]\w*"
_NAME_RE = re.compile(_NAME)
# every non-space character starts a token, so finditer skips only
# whitespace; one that starts no other token is "bad"
_TOKEN_RE = re.compile(rf"(?P<num>\d+)|(?P<name>{_NAME})|(?P<op><=|>=|[-+*/(),;|])|(?P<bad>\S)")


class InequalityParseError(ValueError):
    """Syntax or binding error, carrying the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroInequalityError(ValueError):
    """All coefficients cancelled; the inequality says nothing."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise InequalityParseError(f"unexpected character {value!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def parse_with_names(
    text: str, declared_vars: Sequence[str] | None = None
) -> tuple[LinearInequality, tuple[str, ...]]:
    """Parse inequality text; also return the position->name binding."""
    tokens = _tokenize(text)
    bits = {name: 1 << k for k, name in enumerate(declared_vars or ())}
    if declared_vars is not None and len(bits) != len(declared_vars):
        raise ValueError("declared variable names must be distinct")

    def expected(what: str, i: int):
        kind, value, pos = tokens[i]
        raise InequalityParseError(f"expected {what}, found {value or 'end of input'!r}", pos)

    def read_int(i: int) -> int:
        kind, digits, pos = tokens[i]
        if kind != "num":  # only a denominator: a numerator is read where its digits are
            raise InequalityParseError("expected denominator digits", pos)
        try:
            return int(digits)
        except ValueError:  # longer than int() reads: sys.get_int_max_str_digits()
            raise InequalityParseError(f"number of {len(digits)} digits is too long", pos) from None

    def read_vars(i: int) -> tuple[int, int]:
        """The name list at token i as a mask, and the index after it."""
        mask = 0
        while True:
            kind, name, pos = tokens[i]
            if kind != "name":
                expected("a variable name", i)
            bit = bits.get(name)
            if bit is None:
                if declared_vars is not None:
                    raise InequalityParseError(f"unknown variable {name!r}", pos)
                bit = bits[name] = 1 << len(bits)
            mask |= bit
            if tokens[i + 1][1] != ",":
                return mask, i + 1
            i += 2

    # the whole inequality as right side minus left side, by subset mask:
    # integer numerators over one running denominator
    coeffs: dict[int, int] = {}
    den = 1
    side = sign = -1
    rel = ""
    i = 0
    while True:
        # one term: [rational ["*"]] atom, or a bare rational
        kind, _, pos = tokens[i]
        num, d, bare = 1, 1, False
        if kind == "num":
            num = read_int(i)
            if tokens[i + 1][1] == "/":
                i += 2
                d = read_int(i)
                if d == 0:
                    raise InequalityParseError("zero denominator", tokens[i][2])
            i += 1
            if tokens[i][1] == "*":
                i += 1
            elif tokens[i][0] != "name":
                # a bare rational term: only the literal zero is meaningful
                if num != 0:
                    raise InequalityParseError("nonzero constant term", pos)
                bare = True
        if not bare:
            # the atom by the identities above, an absent condition read as
            # the empty set; its terms on mask 0 are H(empty) = 0, dropped
            kind, func, pos = tokens[i]
            if kind != "name" or func not in ("H", "I") or tokens[i + 1][1] != "(":
                expected("H(...) or I(...)", i)
            if tokens[i + 2][1] == ")":
                raise InequalityParseError(f"empty {func}()", tokens[i + 2][2])
            a, i = read_vars(i + 2)
            b = c = 0
            if func == "I":
                if tokens[i][1] != ";":
                    expected("';'", i)
                b, i = read_vars(i + 1)
            if tokens[i][1] == "|":
                c, i = read_vars(i + 1)
            if tokens[i][1] != ")":
                expected("')'", i)
            i += 1
            scale = d // math.gcd(den, d)
            if scale != 1:  # d does not divide the running denominator: take the lcm
                coeffs = {mask: n * scale for mask, n in coeffs.items()}
                den *= scale
            coeff = sign * num * (den // d)
            terms = ((a | c, 1), (c, -1)) if func == "H" else (
                (a | c, 1), (b | c, 1), (a | b | c, -1), (c, -1))
            for mask, s in terms:
                if mask:
                    coeffs[mask] = coeffs.get(mask, 0) + s * coeff
        # what follows the term: a sign, the relation, or the end
        kind, op, pos = tokens[i]
        i += 1
        if op in ("+", "-"):
            sign = side if op == "+" else -side
        elif rel:
            if kind != "end":
                raise InequalityParseError(f"trailing input {op!r}", pos)
            break
        elif op in ("<=", ">="):
            rel, side, sign = op, 1, 1
        else:
            expected("'<=' or '>='", i - 1)
    coeffs = {mask: n if rel == "<=" else -n for mask, n in coeffs.items() if n}
    if not coeffs:
        raise ZeroInequalityError("all coefficients cancel; inequality is 0 >= 0")
    return LinearInequality(len(bits), coeffs, den), tuple(bits)


def parse_inequality(
    text: str, declared_vars: Sequence[str] | None = None
) -> LinearInequality:
    """Parse inequality text into canonical "sum c_T H(T) >= 0" form."""
    return parse_with_names(text, declared_vars)[0]


def _render_side(ineq: LinearInequality, sign: int, texts: tuple[str, ...]) -> str:
    """The terms whose coefficient has this sign, as positive rationals."""
    parts = []
    for mask, a in ineq.nums.items():
        if a * sign > 0:
            coeff = a * sign if ineq.den == 1 else Fraction(a * sign, ineq.den)
            parts.append(f"{rational_text(coeff)} H({texts[mask]})")
    return " + ".join(parts) or "0"


def name_texts(names: Sequence[str], m: int) -> tuple[str, ...]:
    """The text of every subset mask over names (linear.subset_texts), for
    m names that are distinct and each one name token; ValueError else."""
    if len(names) != m:
        raise ValueError(f"need {m} variable names, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"variable name {name!r} is not one name token")
    return subset_texts(tuple(names))


def write_inequality(ineq: LinearInequality, texts: tuple[str, ...]) -> str:
    """Render the split two-sided form "sum a_I H(I) <= sum b_J H(J)" over
    the subset texts of name_texts(names, ineq.m).

    All coefficients are printed as positive rationals; a side with no
    terms is rendered as "0".
    """
    return _render_side(ineq, -1, texts) + " <= " + _render_side(ineq, 1, texts)


def format_inequality(ineq: LinearInequality, names: Sequence[str]) -> str:
    """write_inequality over names.  parse_inequality(format_inequality(q,
    ns), ns) reproduces q exactly, so every name must be one name token."""
    return write_inequality(ineq, name_texts(names, ineq.m))
