"""Tests for the brute-force oracles over tiny finite fields."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from greenfn import oracle
from greenfn.characters import partitions
from greenfn.cyclo import CycQ
from greenfn.oracle import (
    FiniteGL,
    OracleError,
    _conjugate,
    _det,
    _elementary,
    _mat_mul,
    generators,
    gl1_characters,
    gl2_characters,
    green_polynomial,
    jordan_matrix,
    jordan_type,
    kostka_foulkes,
)
from greenfn.qpoly import QPoly

q = QPoly.q()

SUPPORTED = [(n, p) for n in (1, 2, 3) for p in (2, 3)]


def _compositions(n):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in _compositions(n - k)]


def _elements(G):
    """Every invertible n x n matrix over F_q, for scans of the whole group."""
    rows = list(product(range(G.q), repeat=G.n))
    return [m for m in product(rows, repeat=G.n) if _det(m, G.q)]


def _hc_two_var_by_scan(G, composition, u_partition, v_partitions):
    """Reference count: conjugate u by every element of G."""
    ident = jordan_matrix((1,) * G.n, G.n, G.q)
    elements = _elements(G)
    inverse = {}
    for x in elements:
        prev, power = ident, x
        while power != ident:  # x^k = 1, so x^{-1} = x^{k-1}
            prev, power = power, G.mul(power, x)
        inverse[x] = prev
    u = jordan_matrix(u_partition, G.n, G.q)
    v = G.levi_embed(
        [jordan_matrix(lam, s, G.q) for lam, s in zip(v_partitions, composition)],
        composition,
    )
    radical = G.radical_elements(composition)
    target = {G.mul(v, r) for r in radical}
    count = sum(1 for x in elements if G.mul(G.mul(inverse[x], u), x) in target)
    levi_order = math.prod(FiniteGL(s, G.q).order for s in composition)
    return Fraction(count, levi_order * len(radical))


class TestGroups:
    @pytest.mark.parametrize(
        "n,p,order",
        [(2, 2, 6), (2, 3, 48), (3, 2, 168), (1, 3, 2)],
    )
    def test_orders(self, n, p, order):
        # [DERIVED] |GL_n(F_q)| = prod (q^n - q^k)
        assert FiniteGL(n, p).order == order

    @pytest.mark.parametrize("n,p", SUPPORTED)
    def test_order_counts_the_invertible_matrices(self, n, p):
        G = FiniteGL(n, p)
        assert G.order == len(_elements(G))
        # every composition's Levi: the product of its blocks' orders
        for comp in _compositions(n):
            assert G.levi_order(comp) == math.prod(
                len(_elements(FiniteGL(s, p))) for s in comp
            )

    def test_jordan_round_trip(self):
        for p in (2, 3):
            for lam in [(3,), (2, 1), (1, 1, 1)]:
                assert jordan_type(jordan_matrix(lam, 3, p), p) == lam

    def test_unipotent_class_sizes(self):
        # [DERIVED] GL3(F2): 1 + 21 + 42 = 2^6 unipotent elements
        sizes = FiniteGL(3, 2).unipotent_class_sizes()
        assert sizes == {(3,): 42, (2, 1): 21, (1, 1, 1): 1}
        sizes2 = FiniteGL(2, 3).unipotent_class_sizes()
        assert sizes2 == {(2,): 8, (1, 1): 1}
        # [DERIVED] GL3(F3), |G| = 11232: the regular class has centralizer
        # q^2 (q - 1) = 18 and (2, 1) has q^3 (q - 1)^2 = 108, so the sizes
        # are 11232 / 18 = 624 and 11232 / 108 = 104, and 624 + 104 + 1 = 3^6
        sizes3 = FiniteGL(3, 3).unipotent_class_sizes()
        assert sizes3 == {(3,): 624, (2, 1): 104, (1, 1, 1): 1}


class TestConjugacyClasses:
    @pytest.mark.parametrize("n,p", SUPPORTED)
    def test_generators_generate_the_group(self, n, p):
        # the orbit under conjugation by the generators is then the class
        G = FiniteGL(n, p)
        ident = jordan_matrix((1,) * n, n, p)
        gens = [s for s, _ in generators(n, p)]
        for s, s_inv in generators(n, p):
            assert G.mul(s, s_inv) == ident
        closure = set(gens)
        frontier = list(gens)
        while frontier:
            c = frontier.pop()
            for s in gens:
                d = G.mul(c, s)
                if d not in closure:
                    closure.add(d)
                    frontier.append(d)
        assert closure == set(_elements(G))

    @pytest.mark.parametrize("n,p", SUPPORTED)
    def test_conjugation_matches_matrix_product(self, n, p, monkeypatch):
        G = FiniteGL(n, p)
        pairs = generators(n, p)
        elements = _elements(G)
        for s, s_inv in pairs:
            move = _elementary(s, s_inv)
            assert [_conjugate(c, move, p) for c in elements] == [
                _mat_mul(_mat_mul(s_inv, c, p), s, p) for c in elements
            ], move
        # the orbit search conjugates each class member by every generator
        calls = []

        def counted(c, move, q):
            calls.append(move)
            return _conjugate(c, move, q)

        monkeypatch.setattr(oracle, "_conjugate", counted)
        size = sum(G.unipotent_class_sizes().values())
        assert len(calls) == size * len(pairs)
        assert len(set(calls)) == len(pairs)

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
    def test_orbit_count_matches_group_scan(self, n, p):
        G = FiniteGL(n, p)
        for comp in _compositions(n):
            for u in partitions(n):
                for vs in product(*[partitions(s) for s in comp]):
                    assert G.hc_two_var(comp, u, vs) == _hc_two_var_by_scan(
                        G, comp, u, vs
                    ), (comp, u, vs)


class TestCharacters:
    @pytest.mark.parametrize("p", [2, 3])
    def test_gl2_orthonormal(self, p):
        G = FiniteGL(2, p)
        chars = gl2_characters(p)
        assert len(chars) == {2: 3, 3: 8}[p]
        values = [[ch(g) for g in _elements(G)] for ch in chars]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                s = CycQ(0)
                for x, y in zip(a, b):
                    s = s + x * y.conjugate()
                assert s * CycQ(Fraction(1, G.order)) == CycQ(1 if i == j else 0)

    def test_gl2_degrees(self):
        # [DERIVED] degrees 1, 1, q-1 (x3), q (x2), q+1 for GL2(F3)
        ident = ((1, 0), (0, 1))
        degrees = sorted(
            next(k for k in range(1, 5) if ch(ident) == CycQ(k))
            for ch in gl2_characters(3)
        )
        assert degrees == [1, 1, 2, 2, 2, 3, 3, 4]

    def test_gl1_characters(self):
        chars = gl1_characters(3)
        assert len(chars) == 2
        assert chars[1](((2,),)) == CycQ(-1)


class TestCountedTwoVar:
    def test_reference_values(self):
        # [PAPER] GL2(F2), L = T, u = v = 1: the flag count 3
        assert FiniteGL(2, 2).hc_two_var((1, 1), (1, 1), ((1,), (1,))) == 3
        # [PAPER] GL3(F2), L = GL2 x GL1, u regular, v = ((2), (1)): 1/3
        assert FiniteGL(3, 2).hc_two_var((2, 1), (3,), ((2,), (1,))) == Fraction(1, 3)

    @pytest.mark.parametrize(
        "n,p,comp",
        [
            (2, 2, (1, 1)),
            (2, 3, (1, 1)),
            (3, 2, (1, 1, 1)),
            (3, 2, (2, 1)),
            (3, 2, (1, 2)),
        ],
    )
    def test_certified_against_harish_chandra(self, n, p, comp):
        assert FiniteGL(n, p).certify_hc(comp)

    def test_certification_needs_small_blocks(self):
        with pytest.raises(OracleError):
            FiniteGL(3, 2).certify_hc((3,))


class TestGelfandGraevOracle:
    @pytest.mark.parametrize("n,p,expect", [(2, 2, 2), (2, 3, 6), (3, 2, 4)])
    def test_norms(self, n, p, expect):
        # [DERIVED] <Gamma, Gamma> = q^{rk_ss} (q - 1) for GL_n
        assert FiniteGL(n, p).gg_inner_product() == CycQ(expect)


class TestGreenPolynomials:
    def test_reference_values(self):
        # [DERIVED] classical Green polynomials for n = 2, 3
        assert green_polynomial((1, 1), (1, 1)) == q + 1
        assert green_polynomial((1, 1), (2,)) == 1 - q
        assert green_polynomial((2,), (2,)) == QPoly([1])
        assert green_polynomial((1, 1, 1), (1, 1, 1)) == QPoly.phi(2) * QPoly.phi(3)
        assert green_polynomial((2, 1), (1, 1, 1)) == 2 * q + 1
        assert green_polynomial((2, 1), (3,)) == 1 - q

    def test_regular_column_is_trivial_character(self):
        # [DERIVED] Q^{(n)}_mu = 1 for every cycle type mu
        for mu in [(3,), (2, 1), (1, 1, 1)]:
            assert green_polynomial((3,), mu) == QPoly([1])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            green_polynomial((2,), (1, 1, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_value_at_one_counts_fixed_tabloids(self, n):
        # [TRIVIAL] Q^lam_mu(1) is the permutation character of S_n on
        # lam-tabloids, at a permutation of cycle type mu
        for lam in partitions(n):
            tabloids = {_tabloid(order, lam) for order in permutations(range(n))}
            for mu in partitions(n):
                perm = _permutation_of_type(mu)
                fixed = sum(
                    all(frozenset(perm[i] for i in row) == row for row in t)
                    for t in tabloids
                )
                assert green_polynomial(lam, mu).evaluate(1) == CycQ(fixed)


def _tabloid(order, lam):
    rows, start = [], 0
    for part in lam:
        rows.append(frozenset(order[start : start + part]))
        start += part
    return tuple(rows)


def _permutation_of_type(mu):
    perm, start = [], 0
    for k in mu:
        perm += [start + (i + 1) % k for i in range(k)]
        start += k
    return perm


class TestKostkaFoulkes:
    @pytest.mark.parametrize(
        "nu,lam,powers",
        [
            # Macdonald, Symmetric Functions and Hall Polynomials, tables of
            # K(t) at the end of III.6
            ((4,), (1, 1, 1, 1), [6]),
            ((3, 1), (1, 1, 1, 1), [3, 4, 5]),
            ((2, 2), (1, 1, 1, 1), [2, 4]),
            ((2, 1, 1), (1, 1, 1, 1), [1, 2, 3]),
            ((3, 1), (2, 1, 1), [1, 2]),
            ((4,), (2, 2), [2]),
            # content with a repeated part below the first: these fix the
            # direction in which each standard subword is extracted
            ((4, 1), (2, 2, 1), [2, 3]),
            ((3, 1, 1), (2, 2, 1), [1]),
        ],
    )
    def test_reference_values(self, nu, lam, powers):
        assert kostka_foulkes(nu, lam) == sum((q**k for k in powers), QPoly())

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka_foulkes((2,), (1, 1, 1))
