"""
Exact polynomials and rational functions in the indeterminate q.

QPoly is a dense polynomial with CycQ coefficients (constant term first);
RatFunc is a reduced fraction of two QPoly with monic denominator.  There is
no floating point anywhere: all arithmetic is exact, and an identity between
polynomials is only ever accepted coefficient-wise.

The denominators of Green-function computations are products
q^k * prod Phi_d^{e_d}.  A RatFunc with rational numerator keeps such a
denominator as its exponents and reduces by trial division by the Phi_d
present, which is complete because each Phi_d is irreducible over Q.  A
numerator with non-rational coefficients (over Q(zeta) a Phi_d can split) or
a denominator with another factor takes the Euclidean gcd, QPoly.gcd, and
the reduced result keeps the factorization only if its numerator is rational.

The module also implements the Phi-factorized display used for Green-function
tables: a polynomial with rational coefficients is split into a rational
scalar, a power of q, cyclotomic-polynomial factors Phi_n (n up to
DEFAULT_PHI_BOUND), and a primitive integer residual, e.g.

    (4q+1)q^4Phi2^2/3

The rendering grammar round-trips bit-exactly through parse_phi_string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclo import CycQ, Rat, cyclotomic_int_coeffs, divisors, int_poly_quotient, totient

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
    """A reduced rational function num/den in q with monic denominator.

    While num has rational coefficients and den = q^k * prod Phi_d^{e_d},
    ``_fac`` holds (k, ((d, e_d), ...)) with ascending d, and arithmetic works
    on that factorization: a product adds exponents, a sum takes the lcm, and
    common factors are found by trial division by the Phi_d present.  Over Q
    each Phi_d is irreducible, so this reduces completely.  Otherwise
    ``_fac`` is None and the Euclidean gcd (``QPoly.gcd``) reduces num/den:
    over Q(zeta) a Phi_d can split, e.g. (q - zeta_3)/Phi3 = 1/(q - zeta_3^2),
    and a denominator can keep a factor that is no Phi_d.
    """

    __slots__ = ("num", "den", "_fac")

    def __init__(self, num, den=1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        rational = num.has_rational_coeffs()
        if den.is_one():
            self.num, self.den, self._fac = num, den, ((0, ()) if rational else None)
            return
        split = _phi_split(den) if rational else None
        if split is not None:
            c, k, exps = split
            self.num, self.den, self._fac = _reduce(num, k, dict(exps), dict(exps), 1 / c)
            return
        if num.is_zero():
            self.num, self.den, self._fac = QPoly(), QPoly([1]), (0, ())
            return
        g = num.gcd(den)
        if not g.is_one():
            num, den = num.exact_div(g), den.exact_div(g)
        lead_inv = den.leading().inverse()
        self.num = num * RatScalar(lead_inv)
        self.den = den * RatScalar(lead_inv)
        # decide from the reduced num: the gcd can make a rational num
        # non-rational, Phi3 / (q (q - zeta_3)) = (q - zeta_3^2)/q
        split = _phi_split(self.den) if self.num.has_rational_coeffs() else None
        self._fac = None if split is None else split[1:]

    @classmethod
    def _factored(cls, num: QPoly, k: int, exps: dict, cancel, scale=1) -> "RatFunc":
        """num * scale / (q^k prod Phi_d^exps[d]) for rational num; only q and
        the Phi_d for d in ``cancel`` can divide num."""
        self = object.__new__(cls)
        self.num, self.den, self._fac = _reduce(num, k, exps, cancel, scale)
        return self

    @classmethod
    def q_power(cls, k: int) -> "RatFunc":
        """q^k for any integer k, including negative."""
        return cls._factored(QPoly([1]), -k, {}, ())

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
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._fac is None or other._fac is None:
            return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)
        (ka, ea), (kb, eb) = self._fac, other._fac
        if self._fac == other._fac:
            # the general case below gives the same result, but sums over one
            # denominator are common enough that skipping the lcm and the
            # products by 1 makes levi-sweep about 7% faster
            return RatFunc._factored(self.num + other.num, ka, dict(ea), dict(ea))
        ea, eb = dict(ea), dict(eb)
        k, exps = max(ka, kb), {d: max(ea.get(d, 0), eb.get(d, 0)) for d in ea.keys() | eb.keys()}
        num = self.num * _den_poly(k - ka, _quotient(exps, ea)) + other.num * _den_poly(
            k - kb, _quotient(exps, eb)
        )
        # a reduced num is prime to its own den, so only a Phi_d with equal
        # exponents on both sides can divide the sum
        return RatFunc._factored(num, k, exps, [d for d, e in ea.items() if eb.get(d) == e])

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num, out.den, out._fac = -self.num, self.den, self._fac
        return out

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
        if self._fac is None or other._fac is None:
            return RatFunc(self.num * other.num, self.den * other.den)
        (ka, ea), (kb, eb) = self._fac, other._fac
        exps = dict(ea)
        for d, e in eb:
            exps[d] = exps.get(d, 0) + e
        return RatFunc._factored(self.num * other.num, ka + kb, exps, exps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        split = None
        if self._fac is not None and other._fac is not None:
            split = _phi_split(other.num)
        if split is None:
            return RatFunc(self.num * other.den, self.den * other.num)
        # self / other = self.num * other.den / (self.den * c q^j prod Phi_d^f_d)
        c, j, f = split
        (ka, ea), (kb, eb) = self._fac, other._fac
        exps = dict(ea)
        for d, e in eb:
            exps[d] = exps.get(d, 0) - e
        for d, e in f:
            exps[d] = exps.get(d, 0) + e
        return RatFunc._factored(self.num, ka + j - kb, exps, dict(f), 1 / c)

    def __rtruediv__(self, other):
        return _coerce_rat(other) / self

    def inverse(self) -> "RatFunc":
        return RatFunc(1) / self

    def conjugate(self) -> "RatFunc":
        if self._fac is not None:
            return self  # rational coefficients throughout
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


# ---------------------------------------------------------------------------
# factored denominators: integer polynomials, constant term first


def _quotient(exps: dict, sub: dict) -> tuple:
    """The exponents of prod Phi_d^exps[d] / prod Phi_d^sub[d] (sub <= exps)."""
    return tuple((d, e - sub.get(d, 0)) for d, e in sorted(exps.items()) if e > sub.get(d, 0))


def _reduce(num: QPoly, k: int, exps: dict, cancel, scale=1):
    """num * scale / (q^k prod Phi_d^exps[d]) in lowest terms, for rational num.

    Negative exponents move to the numerator.  Returns (num, den, (k, exps))
    with exps a sorted tuple.  Only q and the Phi_d for d in ``cancel`` are tried
    as common factors.  A Phi_d divides num only if Phi_d(2) divides the
    integer num(2) (num scaled to integer coefficients), which skips most
    trial divisions that would fail.
    """
    low = tuple((d, -e) for d, e in sorted(exps.items()) if e < 0)
    if k < 0 or low:
        num = num * _den_poly(max(-k, 0), low)
        k = max(k, 0)
    if num.is_zero():
        return QPoly(), QPoly([1]), (0, ())
    cs = [c.as_fraction() for c in num.coeffs]
    if scale != 1:
        cs = [c * scale for c in cs]
    z = 0
    while z < k and not cs[z]:
        z += 1
    cs, k = cs[z:], k - z
    cancel = [d for d in cancel if exps.get(d, 0) > 0]
    if cancel:
        common = lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (common // c.denominator) for c in cs]
        at_two = _at_two(ints)
        for d in cancel:
            phi, p = cyclotomic_int_coeffs(d), _phi_at_two(d)
            while exps[d] and at_two % p == 0:
                quo = int_poly_quotient(ints, phi)
                if quo is None:
                    break
                ints, at_two, exps[d] = quo, at_two // p, exps[d] - 1
        cs = [Fraction(c, common) for c in ints]
    exps = tuple((d, e) for d, e in sorted(exps.items()) if e > 0)
    return QPoly(cs), _den_poly(k, exps), (k, exps)


@lru_cache(maxsize=4096)
def _phi_split(poly: QPoly):
    """(c, k, exps) with poly = c * q^k * prod Phi_d^e_d, exps a sorted tuple
    of (d, e_d); None if poly has a non-rational coefficient or another
    factor."""
    if not poly.has_rational_coeffs():
        return None
    cs = [c.as_fraction() for c in poly.coeffs]
    k = 0
    while not cs[k]:
        k += 1
    c = cs[-1]
    ints = [x / c for x in cs[k:]]
    if any(x.denominator != 1 for x in ints):
        return None  # a product of Phi_d is monic with integer coefficients
    ints = [int(x) for x in ints]
    at_two, exps, d = _at_two(ints), [], 1
    if not at_two:
        return None  # q - 2 divides it
    # phi(d) >= sqrt(d) for d > 6, so no Phi_d with d > max(6, deg^2) fits
    while len(ints) > 1 and d <= max(6, (len(ints) - 1) ** 2):
        e, p = 0, _phi_at_two(d)
        while at_two % p == 0 and totient(d) < len(ints):
            quo = int_poly_quotient(ints, cyclotomic_int_coeffs(d))
            if quo is None:
                break
            ints, at_two, e = quo, at_two // p, e + 1
        if e:
            exps.append((d, e))
        d += 1
    return (c, k, tuple(exps)) if len(ints) == 1 else None


@lru_cache(maxsize=4096)
def _den_poly(k: int, exps: tuple) -> QPoly:
    """q^k * prod Phi_d^e_d."""
    out = QPoly.q(k)
    for d, e in exps:
        out = out * QPoly.phi(d) ** e
    return out


@lru_cache(maxsize=None)
def _phi_at_two(d: int) -> int:
    """Phi_d(2), from 2^d - 1 = prod over m | d of Phi_m(2)."""
    out = 2**d - 1
    for m in divisors(d)[:-1]:
        out //= _phi_at_two(m)
    return out


def _at_two(ints) -> int:
    out = 0
    for c in reversed(ints):
        out = 2 * out + c
    return out


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


def phi_factorize(poly: QPoly) -> PhiFactorization:
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
    for n in range(1, DEFAULT_PHI_BOUND + 1):
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


def render_poly(poly: QPoly) -> str:
    """Phi-factorized rendering, falling back to the raw polynomial."""
    try:
        return render_phi(phi_factorize(poly))
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
