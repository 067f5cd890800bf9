"""Tests for the exact coefficient rings: CycQ, QPoly, RatFunc, Phi display."""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfn.cyclo import CycQ, cyclotomic_int_coeffs, int_poly_quotient, totient
from greenfn.linalg import mat_inverse, mat_mul, solve_linear
from greenfn.qpoly import (
    DEFAULT_PHI_BOUND,
    ArithmeticInvariantError,
    FactorizationRefused,
    PhiFactorization,
    PhiParseError,
    QPoly,
    RatFunc,
    _at_two,
    _strip_phi,
    parse_phi_string,
    phi_factorize,
    render_phi,
    render_poly,
)
from greenfn.springer import gl_springer
from greenfn.twovar import green_two_var_table

# ---------------------------------------------------------------------------
# strategies

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)

conductors = st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12])


@st.composite
def cycq_elems(draw):
    n = draw(conductors)
    deg = totient(n)
    coeffs = draw(st.lists(rationals, min_size=1, max_size=deg))
    out = CycQ(0)
    for k, c in enumerate(coeffs):
        out = out + CycQ(c) * CycQ.zeta(n) ** k
    return out


@st.composite
def qpolys(draw, max_degree=4):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return QPoly([CycQ(c) for c in coeffs])


@st.composite
def qpolys_cyc(draw, max_degree=3):
    coeffs = draw(st.lists(cycq_elems(), min_size=0, max_size=max_degree + 1))
    return QPoly(coeffs)


@st.composite
def phi_products(draw, max_factors):
    """c * q^k * prod Phi_d, with c a nonzero rational."""
    out = QPoly([draw(rationals.filter(bool))]) * QPoly.q(draw(st.integers(0, 2)))
    ds = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
    for d in draw(st.lists(ds, max_size=max_factors)):
        out = out * QPoly.phi(d)
    return out


@st.composite
def qpolys_in_field(draw, n, max_degree=2):
    """A polynomial over Q(zeta_n), not always rational."""
    z = CycQ.zeta(n)
    coeffs = draw(
        st.lists(st.tuples(rationals, rationals), min_size=1, max_size=max_degree + 1)
    )
    return QPoly([CycQ(a) + CycQ(b) * z for a, b in coeffs])


@st.composite
def phi_fractions(draw, n, max_factors=4):
    """(num, den): den a Phi product, num a polynomial over Q or over Q(zeta_n)
    sharing some Phi factors with den.  Over Q(zeta_n) with n in 3, 4, 8, 12
    some Phi_d split into linear factors."""
    base = draw(st.one_of(qpolys(max_degree=3), qpolys_in_field(n)))
    return base * draw(phi_products(max_factors)), draw(phi_products(max_factors))


fields = st.sampled_from([3, 4, 8, 12])


def reduced(num, den):
    """Reference reduction: Euclidean gcd, then a monic denominator."""
    g = num.gcd(den)
    num, den = num.exact_div(g), den.exact_div(g)
    scale = QPoly([den.leading().inverse()])
    return num * scale, den * scale


def parts(r):
    return r.num, r.den


def ref_phi_factorize(poly):
    """Reference factorization, frozen from the QPoly-level implementation
    that the integer trial division replaced: divide by QPoly.phi(n) over
    CycQ for n = 1..DEFAULT_PHI_BOUND, then take the rational content.
    It factors a QPoly or a RefQPoly, in its own class."""
    cls = type(poly)
    if not poly.has_rational_coeffs():
        raise FactorizationRefused(f"non-rational coefficients in {poly}")
    if poly.is_zero():
        return PhiFactorization(Fraction(0), 0, (), cls([1]))
    qpow = 0
    while poly.coeffs[qpow].is_zero():
        qpow += 1
    work = cls(poly.coeffs[qpow:])
    phis = []
    for n in range(1, DEFAULT_PHI_BOUND + 1):
        if totient(n) > work.degree():
            continue  # Phi_n has degree phi(n) and cannot divide
        phi_n = cls.phi(n)
        mult = 0
        while divmod(work, phi_n)[1].is_zero():
            work = work.exact_div(phi_n)
            mult += 1
        if mult:
            phis.append((n, mult))
    content, primitive = work.rational_content()
    return PhiFactorization(content, qpow, tuple(phis), primitive)


def check_factored(r):
    """A RatFunc keeps (k, exps) exactly when num is rational and den is
    q^k * prod Phi_d^exps, as the reference factorization finds them."""
    expected = None
    if r.num.has_rational_coeffs() and r.den.has_rational_coeffs():
        fact = ref_phi_factorize(r.den)
        if fact.residual == QPoly([1]):
            expected = (fact.qpow, fact.phis)
    assert r._fac == expected


def conj_reference(num, den):
    return reduced(num.conjugate(), den.conjugate())


# ---------------------------------------------------------------------------
# frozen reference kernel
#
# A copy of QPoly and RatFunc as they were when every coefficient was a CycQ,
# before rational polynomials became integers over one denominator.  It
# shares only CycQ and the integer helpers of greenfn.cyclo with the code it
# checks; Phi factors are found by ref_phi_factorize and by plain trial
# division.


def _ref_coerce_poly(value):
    if isinstance(value, RefQPoly):
        return value
    if isinstance(value, (int, Fraction, CycQ)):
        return RefQPoly([value])
    return NotImplemented


class RefQPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction, CycQ)):
            coeffs = [coeffs]
        cs = [c if isinstance(c, CycQ) else CycQ(Fraction(c)) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def phi(cls, n):
        return cls(list(cyclotomic_int_coeffs(n)))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1]

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == CycQ(1)

    def has_rational_coeffs(self):
        return all(c.is_rational() for c in self.coeffs)

    def __add__(self, other):
        other = _ref_coerce_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RefQPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RefQPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_ref_coerce_poly(other))

    def __mul__(self, other):
        other = _ref_coerce_poly(other)
        if self.is_zero() or other.is_zero():
            return RefQPoly()
        out = [CycQ(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return RefQPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = RefQPoly([1])
        for _ in range(k):
            out = out * self
        return out

    def __divmod__(self, other):
        other = _ref_coerce_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.coeffs
        if len(rem) < len(dn):
            return RefQPoly(), self
        quo = [CycQ(0)] * (len(rem) - len(dn) + 1)
        lead_inv = dn[-1].inverse()
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + len(dn) - 1] * lead_inv
            quo[i] = c
            if not c.is_zero():
                for j, d in enumerate(dn):
                    rem[i + j] = rem[i + j] - c * d
        return RefQPoly(quo), RefQPoly(rem)

    def exact_div(self, other):
        quo, rem = divmod(self, other)
        assert rem.is_zero()
        return quo

    def gcd(self, other):
        a, b = self, _ref_coerce_poly(other)
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        if a.is_zero():
            return a
        return a * RefQPoly([a.leading().inverse()])

    def __eq__(self, other):
        other = _ref_coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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

    def rational_content(self):
        if self.is_zero():
            return Fraction(0), RefQPoly()
        fracs = [c.as_fraction() for c in self.coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        ints = [int(f * den) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), RefQPoly([v // g for v in ints])


def _ref_coerce_rat(value):
    if isinstance(value, RefRatFunc):
        return value
    return RefRatFunc(_ref_coerce_poly(value))


@lru_cache(maxsize=None)
def _ref_phi_split(poly):
    if not poly.has_rational_coeffs():
        return None
    fact = ref_phi_factorize(poly)
    return (fact.scalar, fact.qpow, fact.phis) if fact.residual.is_one() else None


def _ref_den_poly(k, exps):
    out = RefQPoly([0] * k + [1])
    for d, e in exps:
        out = out * RefQPoly.phi(d) ** e
    return out


def _ref_quotient(exps, sub):
    return tuple((d, e - sub.get(d, 0)) for d, e in sorted(exps.items()) if e > sub.get(d, 0))


def _ref_reduce(num, k, exps, cancel, scale=1):
    low = tuple((d, -e) for d, e in sorted(exps.items()) if e < 0)
    if k < 0 or low:
        num = num * _ref_den_poly(max(-k, 0), low)
        k = max(k, 0)
    if num.is_zero():
        return RefQPoly(), RefQPoly([1]), (0, ())
    cs = [c.as_fraction() * scale for c in num.coeffs]
    z = 0
    while z < k and not cs[z]:
        z += 1
    cs, k = cs[z:], k - z
    common = lcm(*(c.denominator for c in cs))
    ints = [int(c * common) for c in cs]
    for d in cancel:
        while exps.get(d, 0) > 0:
            quo = int_poly_quotient(ints, cyclotomic_int_coeffs(d))
            if quo is None:
                break
            ints, exps[d] = quo, exps[d] - 1
    exps = tuple((d, e) for d, e in sorted(exps.items()) if e > 0)
    return RefQPoly([Fraction(c, common) for c in ints]), _ref_den_poly(k, exps), (k, exps)


class RefRatFunc:
    __slots__ = ("num", "den", "_fac")

    def __init__(self, num, den=1):
        num = _ref_coerce_poly(num)
        den = _ref_coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        rational = num.has_rational_coeffs()
        if den.is_one():
            self.num, self.den, self._fac = num, den, ((0, ()) if rational else None)
            return
        split = _ref_phi_split(den) if rational else None
        if split is not None:
            c, k, exps = split
            self.num, self.den, self._fac = _ref_reduce(num, k, dict(exps), dict(exps), 1 / c)
            return
        if num.is_zero():
            self.num, self.den, self._fac = RefQPoly(), RefQPoly([1]), (0, ())
            return
        g = num.gcd(den)
        if not g.is_one():
            num, den = num.exact_div(g), den.exact_div(g)
        lead_inv = RefQPoly([den.leading().inverse()])
        self.num, self.den = num * lead_inv, den * lead_inv
        split = _ref_phi_split(self.den) if self.num.has_rational_coeffs() else None
        self._fac = None if split is None else split[1:]

    @classmethod
    def _factored(cls, num, k, exps, cancel, scale=1):
        self = object.__new__(cls)
        self.num, self.den, self._fac = _ref_reduce(num, k, exps, cancel, scale)
        return self

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _ref_coerce_rat(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._fac is None or other._fac is None:
            return RefRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)
        (ka, ea), (kb, eb) = self._fac, other._fac
        ea, eb = dict(ea), dict(eb)
        k, exps = max(ka, kb), {d: max(ea.get(d, 0), eb.get(d, 0)) for d in ea.keys() | eb.keys()}
        num = self.num * _ref_den_poly(k - ka, _ref_quotient(exps, ea)) + other.num * _ref_den_poly(
            k - kb, _ref_quotient(exps, eb)
        )
        return RefRatFunc._factored(num, k, exps, [d for d, e in ea.items() if eb.get(d) == e])

    def __neg__(self):
        out = object.__new__(RefRatFunc)
        out.num, out.den, out._fac = -self.num, self.den, self._fac
        return out

    def __sub__(self, other):
        return self + (-_ref_coerce_rat(other))

    def __mul__(self, other):
        other = _ref_coerce_rat(other)
        if self._fac is None or other._fac is None:
            return RefRatFunc(self.num * other.num, self.den * other.den)
        (ka, ea), (kb, eb) = self._fac, other._fac
        exps = dict(ea)
        for d, e in eb:
            exps[d] = exps.get(d, 0) + e
        return RefRatFunc._factored(self.num * other.num, ka + kb, exps, exps)

    def __truediv__(self, other):
        other = _ref_coerce_rat(other)
        split = None
        if self._fac is not None and other._fac is not None:
            split = _ref_phi_split(other.num)
        if split is None:
            return RefRatFunc(self.num * other.den, self.den * other.num)
        c, j, f = split
        (ka, ea), (kb, eb) = self._fac, other._fac
        exps = dict(ea)
        for d, e in eb:
            exps[d] = exps.get(d, 0) - e
        for d, e in f:
            exps[d] = exps.get(d, 0) + e
        return RefRatFunc._factored(self.num, ka + j - kb, exps, dict(f), 1 / c)

    def __eq__(self, other):
        other = _ref_coerce_rat(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


def ref_render_poly(poly):
    try:
        return render_phi(ref_phi_factorize(poly))
    except FactorizationRefused:
        return str(poly)


def to_ref(p):
    return RefQPoly(p.coeffs)


def check_canonical(p):
    """The integer form QPoly documents: rational coefficients are integer
    numerators with no trailing zero over a positive denominator prime to
    them, zero is () over 1, and only irrational polynomials keep CycQ."""
    if p._num is None:
        assert any(not c.is_rational() for c in p._cyc)
        assert p._cyc and not p._cyc[-1].is_zero()
        return
    assert all(type(c) is int for c in p._num) and type(p._den) is int
    assert p._den > 0 and gcd(p._den, *p._num) == 1
    assert not p._num or p._num[-1] != 0


def assert_matches(got, want):
    """A QPoly equals the reference result in value, form, text and hash."""
    check_canonical(got)
    assert got.coeffs == want.coeffs
    assert got == QPoly(want.coeffs)
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    assert render_poly(got) == ref_render_poly(want)


def assert_ratfunc_matches(got, want):
    assert_matches(got.num, want.num)
    assert_matches(got.den, want.den)
    assert got._fac == want._fac
    assert str(got) == str(want)
    assert hash(got) == hash(want)


# ---------------------------------------------------------------------------
# CycQ


class TestCycQ:
    def test_basic_identities(self):
        # [TRIVIAL] defining relations of small roots of unity
        z3 = CycQ.zeta(3)
        assert z3**3 == CycQ(1)
        assert z3**2 + z3 + 1 == CycQ(0)
        z4 = CycQ.zeta(4)
        assert z4 * z4 == CycQ(-1)

    def test_conductor_minimization(self):
        # [TRIVIAL] zeta_12^4 is a primitive cube root of unity
        assert CycQ.zeta(12, 4) == CycQ.zeta(3)
        assert CycQ.zeta(12, 4).n == 3
        # zeta_6 = 1 + zeta_3, and the minimal conductor is never 2 mod 4
        z6 = CycQ.zeta(6)
        assert z6.n == 3
        assert z6 == CycQ(1) + CycQ.zeta(3)
        assert (CycQ.zeta(8) ** 2).n == 4

    def test_golden_ratio_relation(self):
        # [DERIVED] x = zeta_5 + zeta_5^{-1} satisfies x^2 + x - 1 = 0
        x = CycQ.zeta(5) + CycQ.zeta(5, 4)
        assert x * x + x - CycQ(1) == CycQ(0)

    @given(cycq_elems(), cycq_elems(), cycq_elems())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + CycQ(0) == a
        assert a * CycQ(1) == a

    @given(cycq_elems())
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_conjugation(self, a):
        if not a.is_zero():
            assert a * a.inverse() == CycQ(1)
        assert a.conjugate().conjugate() == a
        norm = a * a.conjugate()
        # a * conj(a) is fixed by conjugation (real)
        assert norm.conjugate() == norm

    @given(cycq_elems(), cycq_elems())
    @settings(max_examples=40, deadline=None)
    def test_conjugation_is_ring_hom(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(cycq_elems())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, a):
        assert CycQ.from_json(a.to_json()) == a

    @given(rationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_rational_fast_path_matches_fraction(self, x, y):
        a, b = CycQ(x), CycQ(y)
        for got, want in (
            (a + b, x + y),
            (a - b, x - y),
            (a * b, x * y),
            (-a, -x),
            (a + y, x + y),
            (x * b, x * y),
        ):
            assert got.n == 1 and got.coeffs == (want,)
            assert type(got.coeffs[0]) is Fraction
            assert got == CycQ(want) and hash(got) == hash(CycQ(want))
        assert a.is_zero() == (x == 0)
        assert (a - a).is_zero()

    def test_mixed_operands_still_canonicalize(self):
        z3, z4 = CycQ.zeta(3), CycQ.zeta(4)
        total = z3 + z3**2
        assert total == CycQ(-1) and total.n == 1
        square = z4 * z4
        assert square == -1 and square.n == 1
        assert hash(square) == hash(CycQ(-1))
        assert (z3 - z3).is_zero() and (z3 - z3).n == 1
        assert not z3.is_zero()

    def test_cyclotomic_polynomials(self):
        # [TRIVIAL] standard tables
        assert cyclotomic_int_coeffs(1) == (-1, 1)
        assert cyclotomic_int_coeffs(6) == (1, -1, 1)
        assert cyclotomic_int_coeffs(12) == (1, 0, -1, 0, 1)


# ---------------------------------------------------------------------------
# QPoly


class TestQPoly:
    @given(qpolys(), qpolys(), qpolys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(qpolys(), qpolys())
    @settings(max_examples=60, deadline=None)
    def test_divmod(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero() or rem.degree() < b.degree()

    @given(qpolys(), qpolys())
    @settings(max_examples=40, deadline=None)
    def test_gcd(self, a, b):
        g = a.gcd(b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert divmod(a, g)[1].is_zero() and divmod(b, g)[1].is_zero()
            assert g.leading() == CycQ(1)

    @given(qpolys_cyc())
    @settings(max_examples=40, deadline=None)
    def test_conjugate_involution(self, a):
        assert a.conjugate().conjugate() == a

    @given(qpolys(), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_hom(self, a, v):
        b = QPoly.q() + 1
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)


# ---------------------------------------------------------------------------
# RatFunc


class TestRatFunc:
    @given(qpolys(), qpolys(max_degree=2), qpolys(), qpolys(max_degree=2))
    @settings(max_examples=40, deadline=None)
    def test_field_laws(self, n1, d1, n2, d2):
        if d1.is_zero() or d2.is_zero():
            return
        a, b = RatFunc(n1, d1), RatFunc(n2, d2)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RatFunc(0)
        if not b.is_zero():
            assert (a / b) * b == a

    def test_normalization(self):
        q = QPoly.q()
        r = RatFunc(2 * (q * q - 1), 2 * (q - 1))
        assert r.is_polynomial()
        assert r.as_qpoly() == q + 1
        # denominator is monic
        s = RatFunc(1, 2 * q - 2)
        assert s.den == q - 1
        assert s.num == QPoly([Fraction(1, 2)])

    def test_q_power(self):
        assert RatFunc.q_power(-2) * RatFunc.q_power(2) == RatFunc(1)
        assert RatFunc.q_power(3) == RatFunc(QPoly.q(3))

    @given(fields.flatmap(phi_fractions))
    @settings(max_examples=80, deadline=None)
    def test_phi_denominator_matches_euclidean_reduction(self, frac):
        num, den = frac
        assert parts(RatFunc(num, den)) == reduced(num, den)

    # Q(zeta_3) and Q(i) keep the reference gcds fast; Phi3, Phi6, Phi4 split there
    @given(
        st.sampled_from([3, 4]).flatmap(
            lambda n: st.tuples(*[phi_fractions(n, max_factors=2)] * 3)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_matches_euclidean_reduction(self, xyz):
        x, y, z = xyz
        (n1, d1), (n2, d2), (n3, d3) = x, y, z
        a, b, c = RatFunc(n1, d1), RatFunc(n2, d2), RatFunc(n3, d3)
        assert parts(a + b) == reduced(n1 * d2 + n2 * d1, d1 * d2)
        assert parts(a * b) == reduced(n1 * n2, d1 * d2)
        if not n2.is_zero():
            assert parts(a / b) == reduced(n1 * d2, d1 * n2)
        # divisors whose numerator is a Phi product, cancelling a factor
        assert parts(a / RatFunc(d3, d2)) == reduced(n1 * d2, d1 * d3)
        assert parts((a * RatFunc(d3)) / RatFunc(d3, d2)) == reduced(n1 * d2, d1)
        # a sum whose denominator factors cancel
        assert parts((c - a) + a) == parts(c)

    def test_cyclotomic_numerator_splits_a_phi(self):
        # over Q(zeta_3), Phi3 = (q - zeta_3)(q - zeta_3^2)
        q, z = QPoly.q(), CycQ.zeta(3)
        expected = (QPoly([1]), q - z * z)
        assert parts(RatFunc(q - z, QPoly.phi(3))) == expected
        assert parts(RatFunc(q - z) / RatFunc(QPoly.phi(3))) == expected
        assert parts(RatFunc(q - z) * RatFunc(1, QPoly.phi(3))) == expected
        assert parts(RatFunc(q - z, 2 * q) * RatFunc(q, QPoly.phi(3))) == (
            QPoly([Fraction(1, 2)]),
            q - z * z,
        )

    def test_gcd_route_leaves_cyclotomic_numerator_unfactored(self):
        # Phi3 / (q (q - zeta_3)) = (q - zeta_3^2)/q: a rational numerator
        # over a split denominator reduces to a non-rational one over q
        q, z = QPoly.q(), CycQ.zeta(3)
        r = RatFunc(QPoly.phi(3), q * (q - z))
        assert parts(r) == (q - z * z, q)
        check_factored(r)
        assert parts(r.conjugate()) == (q - z, q)
        s = RatFunc(QPoly.phi(3), q) * RatFunc(1, q - z)
        assert s == r
        check_factored(s)
        assert parts(s + 1) == reduced(q - z * z + q, q)
        assert parts(s * RatFunc(1, QPoly.phi(2))) == (q - z * z, q * QPoly.phi(2))
        check_factored(RatFunc(2 * (q - z), q * (q - z)))

    # one operand's denominator has a linear factor q - r over Q(zeta_n), so
    # the result goes through the gcd and may come out rational or not
    @given(
        st.sampled_from([3, 4]).flatmap(
            lambda n: st.tuples(
                phi_fractions(n, max_factors=1),
                phi_fractions(n, max_factors=1),
                st.integers(0, n - 1).map(lambda j: CycQ.zeta(n, j)),
            )
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_results_keep_the_invariant(self, xyr):
        (n1, d1), (n2, d2), root = xyr
        d2 = d2 * (QPoly.q() - QPoly([root]))
        a, b = RatFunc(n1, d1), RatFunc(n2, d2)
        results = [(a * b, n1 * n2, d1 * d2), (a + b, n1 * d2 + n2 * d1, d1 * d2)]
        if not n2.is_zero():
            results.append((a / b, n1 * d2, d1 * n2))
        for r, num, den in results:
            num, den = reduced(num, den)
            assert parts(r) == (num, den)
            check_factored(r)
            assert parts(r.conjugate()) == conj_reference(num, den)
            assert parts(r + a) == reduced(num * d1 + n1 * den, den * d1)

    def test_residual_denominator(self):
        q = QPoly.q()
        residual = q * q + q - 1
        r = RatFunc(residual * (q + 1), residual * QPoly.phi(3) * q)
        assert parts(r) == (q + 1, QPoly.phi(3) * q)
        s = RatFunc(q + 1, residual * 3)
        assert parts(s) == reduced(q + 1, residual * 3)
        assert parts(s * RatFunc(residual, q + 1)) == (QPoly([Fraction(1, 3)]), QPoly([1]))
        assert parts(RatFunc(1) / s + s) == reduced(
            9 * residual * residual + (q + 1) * (q + 1), 3 * residual * (q + 1)
        )

    def test_sum_over_one_denominator_cancels(self):
        q, d = QPoly.q(), QPoly.phi(2) * QPoly.phi(3)
        a, b = RatFunc(q, d), RatFunc(1, d)
        assert a._fac == b._fac
        assert parts(a + b) == (QPoly([1]), QPoly.phi(3))
        assert parts(a - a) == (QPoly(), QPoly([1]))

    def test_zero_and_q_powers(self):
        assert parts(RatFunc(0, QPoly.phi(3) * QPoly.q(2))) == (QPoly(), QPoly([1]))
        assert parts(RatFunc(QPoly.phi(2), QPoly.phi(3)) * 0) == (QPoly(), QPoly([1]))
        for k in range(-3, 4):
            assert RatFunc.q_power(-k) * RatFunc.q_power(k) == RatFunc(1)
            assert parts(RatFunc.q_power(k) / RatFunc.q_power(k)) == (QPoly([1]), QPoly([1]))

    @given(qpolys(max_degree=3))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, p):
        if p.is_zero():
            return
        r = RatFunc(p)
        assert r * r.inverse() == RatFunc(1)


# ---------------------------------------------------------------------------
# the integer kernel against the frozen reference


@st.composite
def cancelling_pairs(draw):
    """(a, b) with a irrational and a + b rational: CycQ sums that cancel."""
    a = draw(fields.flatmap(qpolys_in_field).filter(lambda p: not p.has_rational_coeffs()))
    return a, draw(qpolys()) - a


# rational, cyclotomic and mixed operands; each cyclotomic polynomial lies in
# one of Q(zeta_n), n in 3, 4, 8, 12, so products stay in small fields
poly_operands = st.one_of(qpolys(), fields.flatmap(qpolys_in_field))
poly_pairs = st.one_of(st.tuples(poly_operands, poly_operands), cancelling_pairs())


@st.composite
def ratfunc_operands(draw, n):
    """(num, den) over Q or Q(zeta_n): a Phi-product denominator, or any."""
    general = st.tuples(
        st.one_of(qpolys(max_degree=2), qpolys_in_field(n)),
        qpolys(max_degree=2).filter(bool),
    )
    return draw(st.one_of(phi_fractions(n, max_factors=2), general))


class TestFrozenReference:
    @given(poly_pairs)
    @settings(max_examples=150, deadline=None)
    def test_qpoly_matches_reference(self, ab):
        a, b = ab
        ra, rb = to_ref(a), to_ref(b)
        assert_matches(a, ra)
        assert_matches(b, rb)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        assert_matches(a * b, ra * rb)
        assert_matches(-a, -ra)
        assert_matches(a + 3, ra + 3)
        assert_matches(a * Fraction(-2, 3), ra * Fraction(-2, 3))
        assert (a == b) == (ra == rb)
        if not b.is_zero():
            (quo, rem), (rquo, rrem) = divmod(a, b), divmod(ra, rb)
            assert_matches(quo, rquo)
            assert_matches(rem, rrem)
            assert_matches((a * b).exact_div(b), ra)
            if not rem.is_zero():
                with pytest.raises(ArithmeticInvariantError):
                    a.exact_div(b)
        assert_matches(a.gcd(b), ra.gcd(rb))

    @given(
        st.sampled_from([3, 4]).flatmap(
            lambda n: st.tuples(ratfunc_operands(n), ratfunc_operands(n))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ratfunc_matches_reference(self, xy):
        (n1, d1), (n2, d2) = xy
        a, b = RatFunc(n1, d1), RatFunc(n2, d2)
        ra, rb = RefRatFunc(to_ref(n1), to_ref(d1)), RefRatFunc(to_ref(n2), to_ref(d2))
        assert_ratfunc_matches(a, ra)
        assert_ratfunc_matches(b, rb)
        assert_ratfunc_matches(a + b, ra + rb)
        assert_ratfunc_matches(a - b, ra - rb)
        assert_ratfunc_matches(a * b, ra * rb)
        if not b.is_zero():
            assert_ratfunc_matches(a / b, ra / rb)

    def test_cancelling_cyclotomic_result_is_the_integer_polynomial(self):
        q, z = QPoly.q(), CycQ.zeta(3)
        # zeta_3 + zeta_3^2 = -1, coefficient by coefficient
        total = QPoly([z, 2]) + QPoly([z * z])
        built = QPoly([-1, 2])
        assert total == built and hash(total) == hash(built)
        assert total.has_integer_coeffs()
        check_canonical(total)
        # (q - zeta_3)(q - zeta_3^2) = Phi3, and the lru_cache of the Phi
        # split sees one key
        phi3 = (q - z) * (q - z * z)
        assert phi3 == QPoly.phi(3) and hash(phi3) == hash(QPoly.phi(3))
        assert {QPoly.phi(3): "Phi3"}[phi3] == "Phi3"
        assert RatFunc(1, phi3)._fac == (0, ((3, 1),))
        assert QPoly([z + z * z, CycQ(Fraction(1, 2))]) == QPoly([-1, Fraction(1, 2)])
        assert (QPoly([z]) - QPoly([z])).is_zero() and QPoly([z]) * 0 == QPoly()


# ---------------------------------------------------------------------------
# Phi factorization and the rendering grammar


class TestPhiDisplay:
    @given(qpolys(max_degree=5))
    @settings(max_examples=60, deadline=None)
    def test_factorize_reassemble(self, p):
        fact = phi_factorize(p)
        assert fact.reassemble() == p

    @given(qpolys(max_degree=5))
    @settings(max_examples=60, deadline=None)
    def test_render_parse_round_trip(self, p):
        assert parse_phi_string(render_poly(p)) == p

    def test_reference_renderings(self):
        q = QPoly.q()
        # [TRIVIAL] hand-checked canonical strings
        assert render_poly((q * q - 1) * q) == "qPhi1Phi2"
        assert render_poly(QPoly([1, 4]) * QPoly.q(4) * QPoly.phi(2) ** 2 * QPoly([Fraction(1, 3)])) == "(4q+1)q^4Phi2^2/3"
        assert render_poly(QPoly([1, 1])) == "Phi2"
        assert render_poly(QPoly()) == "0"
        assert render_poly(QPoly([Fraction(-2, 3)])) == "-2/3"

    def test_parser_rejects_zero_divisor(self):
        with pytest.raises(PhiParseError, match="division by zero"):
            parse_phi_string("1/0")

    def test_parser_accepts_bare_sums(self):
        assert parse_phi_string("4q+1") == QPoly([1, 4])
        assert parse_phi_string("q^2-2q+1") == QPoly([1, -2, 1])
        assert parse_phi_string("-Phi3/2") == QPoly([Fraction(-1, 2)]) * QPoly.phi(3)
        assert parse_phi_string("Phi1^2Phi2+1") == QPoly.phi(1) ** 2 * QPoly.phi(2) + 1

    def test_refuses_irrational_coefficients(self):
        p = QPoly([CycQ.zeta(3), CycQ(1)])
        with pytest.raises(FactorizationRefused):
            phi_factorize(p)
        # render_poly falls back to the raw polynomial string
        assert "z3" in render_poly(p)

    def test_high_order_phi(self):
        q = QPoly.q()
        p = QPoly.phi(18) * QPoly.phi(12)
        fact = phi_factorize(p)
        assert fact.phis == ((12, 1), (18, 1))
        assert fact.residual.is_one()
        # Phi_31 lies beyond the display bound: it stays in the residual
        p31 = QPoly.phi(31)
        fact2 = phi_factorize(p31)
        assert fact2.phis == ()
        assert fact2.residual == p31

    @given(
        st.one_of(
            qpolys(max_degree=5),
            phi_products(5),
            st.tuples(qpolys(max_degree=3), phi_products(4)).map(lambda ab: ab[0] * ab[1]),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_factorize_matches_reference(self, p):
        assert phi_factorize(p) == ref_phi_factorize(p)

    @pytest.mark.parametrize(
        "p",
        [
            # q - 2 divides: the value at 2 is 0 and every trial division runs
            (QPoly.q() - 2) * QPoly.phi(3),
            (QPoly.q() - 2) ** 2 * QPoly.phi(1) ** 3 * QPoly.phi(2) * QPoly.q(2),
            QPoly.phi(31),
            QPoly.phi(30) * QPoly.phi(31) * QPoly.phi(1),
            QPoly([Fraction(-7, 3)]) * QPoly.phi(30) ** 2 * QPoly.phi(12),
            QPoly([Fraction(5, 6)]) * QPoly([3, 0, -2]) * QPoly.phi(2) ** 3 * QPoly.q(4),
            QPoly([-1]) * QPoly.phi(29),
            QPoly([Fraction(-1, 2)]),
        ],
        ids=range(8),
    )
    def test_factorize_matches_reference_on_edge_cases(self, p):
        fact = phi_factorize(p)
        assert fact == ref_phi_factorize(p)
        assert fact.reassemble() == p

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda c: c[-1]),
        st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), max_size=4),
        st.sampled_from([1, 2, 3, 4, 6, 12]),
        st.one_of(st.none(), st.integers(0, 3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_strip_phi_contract(self, base, ds, d, limit):
        poly = QPoly(base)
        for m in ds:
            poly = poly * QPoly.phi(m)
        ints = [int(c.as_fraction()) for c in poly.coeffs]
        quo, at_two, e = _strip_phi(ints, _at_two(ints), d, limit)
        assert at_two == _at_two(quo)
        assert QPoly(quo) * QPoly.phi(d) ** e == poly
        if limit is None or e < limit:
            assert not divmod(QPoly(quo), QPoly.phi(d))[1].is_zero()

    @pytest.mark.parametrize("n, levi", [(5, ()), (4, (0, 2))])
    def test_table_renderings_match_reference(self, n, levi):
        tG = gl_springer(n)
        table = green_two_var_table(tG, tG.group.levi(levi))
        entries = [e for row in table.entries for e in row]
        assert len(entries) > 1
        for e in entries:
            assert render_poly(e) == render_phi(ref_phi_factorize(e))


# ---------------------------------------------------------------------------
# linear algebra


class TestLinalg:
    def test_solve_and_inverse(self):
        q = QPoly.q()
        m = [[RatFunc(q + 1), RatFunc(1)], [RatFunc(1), RatFunc(q)]]
        inv = mat_inverse(m)
        one, zero = RatFunc(1), RatFunc(0)
        assert mat_mul(m, inv) == [[one, zero], [zero, one]]
        x = solve_linear(m, [RatFunc(q * q + q + 1), RatFunc(2 * q)])
        assert x == [RatFunc(q), RatFunc(1)]

    def test_singular_raises(self):
        m = [[CycQ(1), CycQ(2)], [CycQ(2), CycQ(4)]]
        with pytest.raises(ValueError):
            solve_linear(m, [CycQ(1), CycQ(1)])
