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
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

from .linear import LinearInequality, rational_text, subset_texts

# every non-space character starts a token, so finditer skips only
# whitespace; one that starts no other token is "bad"
_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op><=|>=|[-+*/(),;|])|(?P<bad>\S)")


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


class _Parser:
    def __init__(self, text: str, declared_vars: Sequence[str] | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.names: list[str] = list(declared_vars) if declared_vars else []
        if declared_vars is not None and len(set(self.names)) != len(self.names):
            raise ValueError("declared variable names must be distinct")
        self.declared = declared_vars is not None
        # the whole inequality as right side minus left side, by subset mask:
        # integer numerators over one running denominator
        self.coeffs: dict[int, int] = {}
        self.den = 1

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise InequalityParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def var_mask(self, name: str, pos: int) -> int:
        if name not in self.names:
            if self.declared:
                raise InequalityParseError(f"unknown variable {name!r}", pos)
            self.names.append(name)
        return 1 << self.names.index(name)

    def parse_vars(self) -> int:
        mask = 0
        while True:
            kind, text, pos = self.next()
            if kind != "name":
                raise InequalityParseError(
                    f"expected a variable name, found {text or 'end of input'!r}", pos
                )
            mask |= self.var_mask(text, pos)
            if self.peek()[1] != ",":
                return mask
            self.next()

    def parse_int(self) -> int:
        kind, text, pos = self.next()
        if kind != "num":  # a denominator's: parse_term saw the numerator's digits
            raise InequalityParseError("expected denominator digits", pos)
        try:
            return int(text)
        except ValueError:  # longer than int() reads: sys.get_int_max_str_digits()
            raise InequalityParseError(f"number of {len(text)} digits is too long", pos) from None

    def parse_rational(self) -> tuple[int, int]:
        """The next number as a numerator and a positive denominator."""
        num, den = self.parse_int(), 1
        if self.peek()[1] == "/":
            self.next()
            pos = self.peek()[2]
            den = self.parse_int()
            if den == 0:
                raise InequalityParseError("zero denominator", pos)
        return num, den

    def parse_atom(self) -> list[tuple[int, int]]:
        """The atom's joint-entropy terms as (mask, +1 or -1) pairs, by the
        identities above with an absent condition read as the empty set;
        terms on mask 0 are H(empty) = 0 and are dropped."""
        kind, text, pos = self.next()
        if kind != "name" or text not in ("H", "I") or self.peek()[1] != "(":
            raise InequalityParseError(
                f"expected H(...) or I(...), found {text or 'end of input'!r}", pos
            )
        func = text
        self.expect("(")
        if self.peek()[1] == ")":
            raise InequalityParseError(f"empty {func}()", self.peek()[2])
        a = self.parse_vars()
        b = c = 0
        if func == "I":
            self.expect(";")
            b = self.parse_vars()
        if self.peek()[1] == "|":
            self.next()
            c = self.parse_vars()
        self.expect(")")
        if func == "H":
            terms = ((a | c, 1), (c, -1))
        else:
            terms = ((a | c, 1), (b | c, 1), (a | b | c, -1), (c, -1))
        return [(mask, s) for mask, s in terms if mask]

    def parse_term(self, sign: int) -> None:
        """Add sign times the next term into self.coeffs, over self.den."""
        num, den = 1, 1
        if self.peek()[0] == "num":
            num_pos = self.peek()[2]
            num, den = self.parse_rational()
            if self.peek()[1] == "*":
                self.next()
            elif self.peek()[0] != "name":
                # bare rational term: only the literal zero is meaningful
                if num != 0:
                    raise InequalityParseError("nonzero constant term", num_pos)
                return
        scale = den // math.gcd(self.den, den)
        if scale != 1:
            # den does not divide the running denominator: rescale to the lcm
            for mask in self.coeffs:
                self.coeffs[mask] *= scale
            self.den *= scale
        coeff = sign * num * (self.den // den)
        for mask, s in self.parse_atom():
            self.coeffs[mask] = self.coeffs.get(mask, 0) + s * coeff

    def parse_expr(self, sign: int) -> None:
        self.parse_term(sign)
        while self.peek()[1] in ("+", "-"):
            self.parse_term(sign if self.next()[1] == "+" else -sign)

    def parse(self) -> tuple[LinearInequality, tuple[str, ...]]:
        self.parse_expr(-1)
        kind, rel, pos = self.next()
        if rel not in ("<=", ">="):
            raise InequalityParseError(
                f"expected '<=' or '>=', found {rel or 'end of input'!r}", pos
            )
        self.parse_expr(1)
        kind, text, pos = self.peek()
        if kind != "end":
            raise InequalityParseError(f"trailing input {text!r}", pos)
        flip = 1 if rel == "<=" else -1
        coeffs = {m: flip * c for m, c in self.coeffs.items() if c != 0}
        if not coeffs:
            raise ZeroInequalityError("all coefficients cancel; inequality is 0 >= 0")
        if not self.names:
            raise InequalityParseError("no variables", 0)
        return LinearInequality(len(self.names), coeffs, self.den), tuple(self.names)


def parse_with_names(
    text: str, declared_vars: Sequence[str] | None = None
) -> tuple[LinearInequality, tuple[str, ...]]:
    """Parse inequality text; also return the position->name binding."""
    return _Parser(text, declared_vars).parse()


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


def format_inequality(ineq: LinearInequality, names: Sequence[str]) -> str:
    """Render the split two-sided form "sum a_I H(I) <= sum b_J H(J)".

    All coefficients are printed as positive rationals; a side with no
    terms is rendered as "0".  parse_inequality(format_inequality(q, ns),
    ns) reproduces q exactly.
    """
    if len(names) != ineq.m:
        raise ValueError(f"need {ineq.m} variable names, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    texts = subset_texts(tuple(names))
    return _render_side(ineq, -1, texts) + " <= " + _render_side(ineq, 1, texts)
