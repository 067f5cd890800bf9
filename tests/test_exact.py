"""Tests for the exact coefficient rings: CycQ, QPoly, RatFunc, Phi display."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfn.cyclo import CycQ, cyclotomic_int_coeffs, totient
from greenfn.linalg import mat_inverse, mat_mul, solve_linear
from greenfn.qpoly import (
    DEFAULT_PHI_BOUND,
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
    CycQ for n = 1..DEFAULT_PHI_BOUND, then take the rational content."""
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
