"""Tests for class functions and character tables on Weyl cosets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfn.characters import (
    CosetClassFunction,
    DataPackRequired,
    character_table,
    induce,
    inner_product,
    mn_character,
    partitions,
    restrict,
    trivial_character,
    weighted_pairing,
)
from greenfn.cyclo import CycQ
from greenfn.qpoly import QPoly
from greenfn.rootdata import (
    cartan_type,
    class_fusion,
    gl,
    relative_weyl_group,
    torus,
    torus_fixed_order,
)

q = QPoly.q()


def principal_coset(spec):
    G = cartan_type(spec)
    return G, relative_weyl_group(G, G.levi(()))


class TestMurnaghanNakayama:
    def test_s3_reference_values(self):
        # [DERIVED] Murnaghan-Nakayama / hook-length values for S3
        assert mn_character((2, 1), (1, 1, 1)) == 2
        assert mn_character((2, 1), (2, 1)) == 0
        assert mn_character((2, 1), (3,)) == -1
        # [TRIVIAL] sign of a transposition
        assert mn_character((1, 1, 1), (2, 1)) == -1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_sum_of_squares(self, n):
        degs = [mn_character(lam, tuple([1] * n)) for lam in partitions(n)]
        assert sum(d * d for d in degs) == math.factorial(n)

    def test_s4_column(self):
        # [DERIVED] column of the S4 table at the 4-cycle: 1,-1,0,1,-1
        col = [mn_character(lam, (4,)) for lam in partitions(4)]
        assert sorted(col) == [-1, -1, 0, 1, 1]
        assert mn_character((4,), (4,)) == 1
        assert mn_character((1, 1, 1, 1), (4,)) == -1


class TestTables:
    @pytest.mark.parametrize("spec", ["GL2", "GL3", "GL4", "B2ad", "G2"])
    def test_orthonormal_rows(self, spec):
        _, coset = principal_coset(spec)
        tab = character_table(coset)
        assert len(tab.characters) == len(coset.classes)
        for i, a in enumerate(tab.characters):
            for j, b in enumerate(tab.characters):
                assert inner_product(a, b) == CycQ(1 if i == j else 0)

    @pytest.mark.parametrize("spec", ["GL3", "B2ad", "G2"])
    def test_column_orthogonality(self, spec):
        # column sums of |chi|^2 equal centralizer orders
        _, coset = principal_coset(spec)
        tab = character_table(coset)
        for ci, cls in enumerate(coset.classes):
            s = sum(
                (ch.values[ci] * ch.values[ci].conjugate() for ch in tab.characters),
                CycQ(0),
            )
            assert s == CycQ(cls.centralizer_order)

    def test_levi_product_table(self):
        # W_L(T) for GL2 x GL1 in GL3 is S2 x S1
        G = gl(3)
        WL = relative_weyl_group(G.levi((0,)).as_datum(), G.levi(()))
        tab = character_table(WL)
        assert WL.structure == ("symmetric_product", (2, 1))
        assert len(tab.characters) == len(WL.classes) == 2
        assert tab.labels == (((2,), (1,)), ((1, 1), (1,)))

    def test_trivial_group(self):
        T = torus(2)
        coset = relative_weyl_group(T, T.levi(()))
        tab = character_table(coset)
        assert tab.labels == ("1",)
        assert tab.characters[0].values == (CycQ(1),)

    def test_full_gl_levi_group(self):
        G = gl(2)
        coset = relative_weyl_group(G, G.levi((0,)))
        tab = character_table(coset)
        assert tab.labels == (((1,),),)
        assert tab.characters[0].values == (CycQ(1),)

    def test_twisted_coset_needs_pack(self):
        G = cartan_type("2A2sc")
        coset = relative_weyl_group(G, G.levi(()))
        with pytest.raises(DataPackRequired):
            character_table(coset)


class TestInductionRestriction:
    def setup_method(self):
        self.G = gl(3)
        self.T = self.G.levi(())
        self.WG = relative_weyl_group(self.G, self.T)
        self.WL = relative_weyl_group(self.G.levi((0,)).as_datum(), self.T)

    def test_regular_character(self):
        # [TRIVIAL] Ind of trivial from the trivial subgroup of S2
        G2 = gl(2)
        sub = relative_weyl_group(G2.levi((0,)).as_datum(), G2.levi((0,)))
        big = relative_weyl_group(G2, G2.levi(()))
        ind = induce(trivial_character(sub), big)
        assert sorted(str(v) for v in ind.values) == ["0", "2"]

    def test_index_at_identity(self):
        ind = induce(trivial_character(self.WL), self.WG)
        ident_idx = next(
            i for i, c in enumerate(self.WG.classes) if c.size == 1
        )
        assert ind.values[ident_idx] == CycQ(
            Fraction(self.WG.order, self.WL.order)
        )

    def test_frobenius_reciprocity_tables(self):
        tabG = character_table(self.WG)
        tabL = character_table(self.WL)
        for f in tabL.characters:
            for g in tabG.characters:
                assert inner_product(induce(f, self.WG), g) == inner_product(
                    f, restrict(g, self.WL)
                )

    @given(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_frobenius_reciprocity_random(self, fv, gv):
        f = CosetClassFunction(self.WL, tuple(CycQ(v) for v in fv))
        g = CosetClassFunction(self.WG, tuple(CycQ(v) for v in gv))
        assert inner_product(induce(f, self.WG), g) == inner_product(
            f, restrict(g, self.WL)
        )

    def test_different_twists_refused(self):
        # the coset of the twisted torus gl(2).levi((), s) is the single
        # element s*phi of the class of s in W(GL2), but its representative
        # is the identity: fusing by representative would put it in the
        # class of 1, so a coset with another twist is refused
        G2 = gl(2)
        LD = G2.levi((), G2.reflection(0)).as_datum()
        sub = relative_weyl_group(LD, LD.levi(()))
        big = relative_weyl_group(G2, G2.levi(()))
        assert sub.elements[0] in big.elements and sub.twist != big.twist
        with pytest.raises(ValueError, match="different twists"):
            class_fusion(sub, big)
        with pytest.raises(ValueError, match="different twists"):
            induce(trivial_character(sub), big)
        with pytest.raises(ValueError, match="different twists"):
            restrict(trivial_character(big), sub)

    def test_transitivity(self):
        # Ind is transitive along T < L < G in the relative groups
        f = trivial_character(self.WL)
        sub_triv = relative_weyl_group(self.T.as_datum(), self.T)
        h = trivial_character(sub_triv)
        once = induce(h, self.WG)
        twice = induce(induce(h, self.WL), self.WG)
        assert once.values == twice.values


class TestWeightedPairing:
    def test_gl2_z_weight(self):
        # [DERIVED] ((q-1)^2 + (q^2-1)) / 2 = q(q-1)
        G = gl(2)
        T = G.levi(())
        W = relative_weyl_group(G, T)
        zt = CosetClassFunction(
            W, tuple(torus_fixed_order(T, cls.rep) for cls in W.classes)
        )
        triv = trivial_character(W)
        assert weighted_pairing(triv, triv, zt) == q * (q - 1)

    def test_weight_one_reduces_to_inner_product(self):
        _, W = principal_coset("GL3")
        tab = character_table(W)
        ones = trivial_character(W)
        for i, a in enumerate(tab.characters):
            for j, b in enumerate(tab.characters):
                assert weighted_pairing(a, b, ones) == inner_product(a, b)
