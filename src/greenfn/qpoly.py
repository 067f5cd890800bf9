"""
Exact polynomials and rational functions in the indeterminate q.

QPoly is a dense polynomial with CycQ coefficients (constant term first);
RatFunc is a reduced fraction of two QPoly with monic denominator.  There is
no floating point anywhere: all arithmetic is exact, and an identity between
polynomials is only ever accepted coefficient-wise.

The module also implements the Phi-factorized display used for Green-function
tables: a polynomial with rational coefficients is split into a rational
scalar, a power of q, cyclotomic-polynomial factors Phi_n (n up to a
configurable bound), and a primitive integer residual, e.g.

    (4q+1)q^4Phi2^2/3

The rendering grammar round-trips bit-exactly through parse_phi_string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycQ, Rat, cyclotomic_int_coeffs

DEFAULT_PHI_BOUND = 30


def _cc(value) -> CycQ:
    return value if isinstance(value, CycQ) else CycQ(Rat(value))


class QPoly:
    """Polynomial in q over the cyclotomic rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction, CycQ)):
            coeffs = [coeffs]
        cs = [_cc(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def q(cls, power: int = 1) -> "QPoly":
        return cls([0] * power + [1])

    @classmethod
    def phi(cls, n: int) -> "QPoly":
        """The n-th cyclotomic polynomial in q."""
        return cls(list(cyclotomic_int_coeffs(n)))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> CycQ:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> CycQ:
        return self.coeffs[0] if self.coeffs else CycQ(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == CycQ(1)

    def has_rational_coeffs(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def has_integer_coeffs(self) -> bool:
        return all(c.is_integer() for c in self.coeffs)

    def has_cyclotomic_integer_coeffs(self) -> bool:
        return all(c.is_cyclotomic_integer() for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [CycQ(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        out, base = QPoly([1]), self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def __divmod__(self, other):
        other = _coerce_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.coeffs
        if len(rem) < len(dn):
            return QPoly(), self
        quo = [CycQ(0)] * (len(rem) - len(dn) + 1)
        lead_inv = dn[-1].inverse()
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + len(dn) - 1] * lead_inv
            quo[i] = c
            if not c.is_zero():
                for j, d in enumerate(dn):
                    rem[i + j] = rem[i + j] - c * d
        return QPoly(quo), QPoly(rem)

    def exact_div(self, other) -> "QPoly":
        quo, rem = divmod(self, _coerce_poly(other))
        if not rem.is_zero():
            raise ValueError(f"non-exact division: ({self}) / ({other})")
        return quo

    def divides(self, other) -> bool:
        if self.is_zero():
            return other.is_zero()
        return divmod(_coerce_poly(other), self)[1].is_zero()

    def gcd(self, other) -> "QPoly":
        a, b = self, _coerce_poly(other)
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        if a.is_zero():
            return a
        return a * RatScalar(a.leading().inverse())

    def conjugate(self) -> "QPoly":
        """Complex conjugation of coefficients (q is treated as real)."""
        return QPoly([c.conjugate() for c in self.coeffs])

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k (k >= 0)."""
        return QPoly([CycQ(0)] * k + list(self.coeffs))

    def evaluate(self, value) -> CycQ:
        out = CycQ(0)
        for c in reversed(self.coeffs):
            out = out * _cc(value) + c
        return out

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- display ------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            mono = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            if c == CycQ(1) and mono:
                term = mono
            elif c == CycQ(-1) and mono:
                term = f"-{mono}"
            else:
                cs = str(c)
                if not c.is_rational() and len(c.coeffs) - len([x for x in c.coeffs if x == 0]) > 1 and mono:
                    cs = f"({cs})"
                term = f"{cs}{mono}" if mono else cs
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"QPoly({self})"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, doc) -> "QPoly":
        return cls([CycQ.from_json(c) for c in doc])

    # -- rational-coefficient helpers ---------------------------------------

    def rational_content(self) -> tuple[Fraction, "QPoly"]:
        """Write self = content * primitive with primitive an integer
        polynomial of positive leading coefficient and gcd of coefficients 1.

        Requires rational coefficients.
        """
        if self.is_zero():
            return Fraction(0), QPoly()
        fracs = [c.as_fraction() for c in self.coeffs]
        from math import gcd, lcm

        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        ints = [int(f * den) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), QPoly([v // g for v in ints])


def _coerce_poly(value):
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction, CycQ)):
        return QPoly([value])
    return NotImplemented


def RatScalar(c: CycQ) -> QPoly:
    return QPoly([c])


class RatFunc:
    """A reduced rational function num/den in q with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = QPoly(), QPoly([1])
            return
        g = num.gcd(den)
        if not g.is_one():
            num, den = num.exact_div(g), den.exact_div(g)
        lead_inv = den.leading().inverse()
        self.num = num * RatScalar(lead_inv)
        self.den = den * RatScalar(lead_inv)

    @classmethod
    def q_power(cls, k: int) -> "RatFunc":
        """q^k for any integer k, including negative."""
        if k >= 0:
            return cls(QPoly.q(k))
        return cls(1, QPoly.q(-k))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_qpoly(self) -> QPoly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def __add__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rat(other) / self

    def inverse(self) -> "RatFunc":
        return RatFunc(1) / self

    def conjugate(self) -> "RatFunc":
        return RatFunc(self.num.conjugate(), self.den.conjugate())

    def evaluate(self, value) -> CycQ:
        d = self.den.evaluate(value)
        if d.is_zero():
            raise ZeroDivisionError(f"denominator vanishes at {value}")
        return self.num.evaluate(value) / d

    def __eq__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, doc) -> "RatFunc":
        return cls(QPoly.from_json(doc["num"]), QPoly.from_json(doc["den"]))


def _coerce_rat(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, QPoly):
        return RatFunc(value)
    if isinstance(value, (int, Fraction, CycQ)):
        return RatFunc(QPoly([value]))
    return NotImplemented


# ---------------------------------------------------------------------------
# Phi-factorized display


@dataclass(frozen=True)
class PhiFactorization:
    """scalar * q^qpow * prod Phi_n^mult * residual, an exact factorization."""

    scalar: Fraction
    qpow: int
    phis: tuple[tuple[int, int], ...]  # (n, multiplicity), ascending n
    residual: QPoly  # primitive integer polynomial, positive leading coeff

    def reassemble(self) -> QPoly:
        out = QPoly([self.scalar]).shift(self.qpow) * self.residual
        for n, mult in self.phis:
            out = out * QPoly.phi(n) ** mult
        return out


class FactorizationRefused(ValueError):
    """Raised when a polynomial has non-rational coefficients."""


def phi_factorize(poly: QPoly, bound: int = DEFAULT_PHI_BOUND) -> PhiFactorization:
    """Exact factorization into q-power, cyclotomic factors and residual.

    >>> str(phi_factorize(QPoly([1, 1])).phis)
    '((2, 1),)'
    """
    if not poly.has_rational_coeffs():
        raise FactorizationRefused(f"non-rational coefficients in {poly}")
    if poly.is_zero():
        return PhiFactorization(Fraction(0), 0, (), QPoly([1]))
    qpow = 0
    while poly.coeffs[qpow].is_zero():
        qpow += 1
    work = QPoly(poly.coeffs[qpow:])
    phis = []
    for n in range(1, bound + 1):
        phi_n = QPoly.phi(n)
        mult = 0
        while phi_n.divides(work):
            work = work.exact_div(phi_n)
            mult += 1
        if mult:
            phis.append((n, mult))
    content, primitive = work.rational_content()
    return PhiFactorization(content, qpow, tuple(phis), primitive)


def render_phi(fact: PhiFactorization, style: str = "ascii") -> str:
    """Canonical string for a factorization.

    ascii style examples: "0", "1", "(4q+1)/3", "2qPhi2/3", "(7q^2+2q-2)q/3",
    "Phi2^4Phi3Phi4Phi6^2Phi8Phi10Phi12Phi18".  The sign is carried by the
    residual when the residual is non-constant, matching table conventions.
    """
    if fact.scalar == 0:
        return "0"
    num, den = abs(fact.scalar.numerator), fact.scalar.denominator
    negative = fact.scalar < 0
    residual = fact.residual
    tokens = []
    res_token = ""
    if not residual.is_one():
        shown = -residual if negative else residual
        body = str(shown)
        res_token = f"({body})"
        negative = False
    if num != 1:
        tokens.append(str(num))
    if res_token:
        tokens.append(res_token)
    if fact.qpow:
        tokens.append("q" if fact.qpow == 1 else _pow_token("q", fact.qpow, style))
    for n, mult in fact.phis:
        base = f"Phi{n}" if style == "ascii" else f"\\Phi_{{{n}}}"
        tokens.append(base if mult == 1 else _pow_token(base, mult, style))
    if not tokens:
        tokens.append("1")
    out = "".join(tokens)
    # a lone parenthesized residual with no denominator needs no parens
    if den == 1 and len(tokens) == 1 and res_token and tokens[0] == res_token:
        out = res_token[1:-1]
    if den != 1:
        out += f"/{den}"
    return ("-" if negative else "") + out


def _pow_token(base: str, k: int, style: str) -> str:
    return f"{base}^{k}" if style == "ascii" else f"{base}^{{{k}}}"


def render_poly(poly: QPoly, bound: int = DEFAULT_PHI_BOUND) -> str:
    """Phi-factorized rendering, falling back to the raw polynomial."""
    try:
        return render_phi(phi_factorize(poly, bound))
    except FactorizationRefused:
        return str(poly)


# ---------------------------------------------------------------------------
# parser for the rendering grammar


class PhiParseError(ValueError):
    pass


def parse_phi_string(text: str) -> QPoly:
    """Parse a string of the rendering grammar back into a QPoly.

    Accepts sums of product terms; each term is a product of integers, q^k,
    Phi<n>^k and parenthesized integer polynomials, optionally divided by an
    integer.

    >>> parse_phi_string("(4q+1)q^4Phi2^2/3") == (QPoly([1,4])*QPoly.q(4)*QPoly.phi(2)**2*QPoly([Fraction(1,3)]))
    True
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_int() -> int:
        tok = take()
        if tok[0] != "int":
            raise PhiParseError(f"expected integer, got {tok}")
        return tok[1]

    def parse_exponent() -> int:
        if peek() and peek()[0] == "caret":
            take()
            return parse_int()
        return 1

    def parse_intpoly() -> QPoly:
        # signed sum of integer monomials in q
        out = QPoly()
        sign = 1
        if peek() and peek()[0] in ("plus", "minus"):
            sign = -1 if take()[0] == "minus" else 1
        while True:
            coeff = sign
            tok = peek()
            if tok and tok[0] == "int":
                coeff = sign * take()[1]
            power = 0
            if peek() and peek()[0] == "q":
                take()
                power = parse_exponent()
            out = out + QPoly([coeff]).shift(power)
            tok = peek()
            if tok and tok[0] in ("plus", "minus"):
                sign = -1 if take()[0] == "minus" else 1
            else:
                return out

    def parse_term(sign: int) -> QPoly:
        out = QPoly([sign])
        saw_factor = False
        while True:
            tok = peek()
            if tok is None or tok[0] in ("plus", "minus", "rparen"):
                break
            if tok[0] == "slash":
                take()
                divisor = parse_int()
                if divisor == 0:
                    raise PhiParseError("division by zero")
                out = out * QPoly([Fraction(1, divisor)])
                break
            saw_factor = True
            if tok[0] == "int":
                out = out * take()[1]
            elif tok[0] == "q":
                take()
                out = out * QPoly.q(parse_exponent())
            elif tok[0] == "phi":
                out = out * QPoly.phi(take()[1]) ** parse_exponent()
            elif tok[0] == "lparen":
                take()
                inner = parse_intpoly()
                if not (peek() and take()[0] == "rparen"):
                    raise PhiParseError("unbalanced parenthesis")
                out = out * inner ** parse_exponent()
            else:
                raise PhiParseError(f"unexpected token {tok}")
        if not saw_factor:
            # a bare sign/integer term like "1" or "-2" already handled via int
            pass
        return out

    result = QPoly()
    sign = 1
    if peek() and peek()[0] in ("plus", "minus"):
        sign = -1 if take()[0] == "minus" else 1
    while True:
        result = result + parse_term(sign)
        tok = peek()
        if tok is None:
            return result
        if tok[0] in ("plus", "minus"):
            sign = -1 if take()[0] == "minus" else 1
        else:
            raise PhiParseError(f"trailing input at {tok}")


def _tokenize(text: str):
    out, i = [], 0
    text = text.strip()
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
        elif text.startswith("Phi", i):
            j = i + 3
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 3:
                raise PhiParseError("Phi token without index")
            out.append(("phi", int(text[i + 3 : j])))
            i = j
        elif c == "q":
            out.append(("q", None))
            i += 1
        elif c == "^":
            out.append(("caret", None))
            i += 1
        elif c == "+":
            out.append(("plus", None))
            i += 1
        elif c == "-":
            out.append(("minus", None))
            i += 1
        elif c == "/":
            out.append(("slash", None))
            i += 1
        elif c == "(":
            out.append(("lparen", None))
            i += 1
        elif c == ")":
            out.append(("rparen", None))
            i += 1
        else:
            raise PhiParseError(f"unexpected character {c!r}")
    return out
