"""Tests for root data: Weyl groups, twisted classes, orders, centres."""

from collections import Counter
from itertools import combinations
from math import prod

import pytest

from greenfn.qpoly import QPoly
from greenfn.rootdata import (
    _cycle_type_on,
    cartan_type,
    class_fusion,
    gl,
    identity_mat,
    mat_mul_int,
    relative_weyl_group,
    smith_normal_form,
    torus,
    torus_fixed_order,
)

q = QPoly.q()


def brute_gl_order(n: int, qq: int) -> int:
    return prod(qq**n - qq**k for k in range(n))


class TestOrders:
    def test_gl_orders(self):
        # [DERIVED] product formula q^N prod(q^d - 1), degrees 1..n
        assert gl(2).group_order() == q * (q - 1) * (q * q - 1)
        assert gl(3).group_order() == QPoly.q(3) * (q - 1) * (q**2 - 1) * (q**3 - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("qq", [2, 3])
    def test_gl_orders_numeric(self, n, qq):
        # [DERIVED] counting invertible matrices over F_q column by column
        assert int(gl(n).group_order().evaluate(qq).as_fraction()) == brute_gl_order(n, qq)

    def test_classical_orders(self):
        # [PAPER]-adjacent standard orders, derived from the maximal-torus orders
        assert cartan_type("B2sc").group_order() == QPoly.q(4) * (q**2 - 1) * (q**4 - 1)
        assert cartan_type("G2").group_order() == QPoly.q(6) * (q**2 - 1) * (q**6 - 1)
        # [DERIVED] maximal tori of the order-2 twist of A2: unitary group order
        assert cartan_type("2A2sc").group_order() == QPoly.q(3) * (q**2 - 1) * (q**3 + 1)
        assert (
            cartan_type("2D4ad").group_order()
            == QPoly.q(12) * (q**2 - 1) * (q**4 - 1) * (q**4 + 1) * (q**6 - 1)
        )

    def test_twisted_e6_order(self):
        # [PAPER] the quasi-split form of E6: degrees 2,5,6,8,9,12 with signs
        # -1 exactly in degrees 5 and 9; total degree is dim E6 = 78
        o = cartan_type("2E6sc").group_order()
        expect = (
            QPoly.q(36)
            * (q**2 - 1)
            * (q**5 + 1)
            * (q**6 - 1)
            * (q**8 - 1)
            * (q**9 + 1)
            * (q**12 - 1)
        )
        assert o == expect
        assert o.degree() == 78

    def test_levi_order(self):
        L = gl(3).levi((0,)).as_datum()  # GL2 x GL1
        assert L.group_order() == q * (q - 1) * (q * q - 1) * (q - 1)


class TestTorusOrders:
    def test_split_torus(self):
        # [TRIVIAL] det(q-1) per coordinate
        T = gl(2).levi(())
        assert torus_fixed_order(T) == (q - 1) ** 2

    def test_coxeter_torus_gl2(self):
        # [TRIVIAL] characteristic polynomial of the swap is q^2 - 1
        G = gl(2)
        T = G.levi(())
        swap = next(w for w in G.weyl_elements() if w != identity_mat(2))
        assert torus_fixed_order(T, swap) == q * q - 1

    def test_rank_one_inversion(self):
        # [TRIVIAL] w*phi = -1 on a rank-1 lattice gives q+1
        T = torus(1, twist=((-1,),))
        assert torus_fixed_order(T.levi(())) == q + 1

    def test_class_function_property(self):
        # torus_fixed_order depends only on the twisted class of w
        G = gl(3)
        T = G.levi(())
        coset = relative_weyl_group(G, T)
        for cls in coset.classes:
            vals = {torus_fixed_order(T, w).coeffs for w in cls.elements}
            assert len(vals) == 1

    def test_center_torus_of_levi(self):
        # Z^0(GL2 x GL1 in GL3) is a 2-torus split by F
        G = gl(3)
        assert torus_fixed_order(G.levi((0,))) == (q - 1) ** 2
        assert G.central_torus_order() == q - 1
        # [DERIVED] |W_G(L)| = 1 for GL2 x GL1
        assert relative_weyl_group(G, G.levi((0,))).order == 1

    def test_gl_torus_orders_from_blocks(self):
        # [DERIVED] Z^0(L0) is one GL1 per block, and w permutes the blocks:
        # each cycle of length l contributes q^l - 1
        cases = 0
        for n in range(2, 6):
            G = gl(n)
            for k in range(n):
                for subset in combinations(range(n - 1), k):
                    L0 = G.levi(subset)
                    coset = relative_weyl_group(G, L0)
                    blocks, _, perms = coset.block_data
                    for w in coset.elements:
                        cycles = _cycle_type_on(perms[w], range(len(blocks)))
                        expect = prod(QPoly.q(length) - 1 for length in cycles)
                        assert torus_fixed_order(L0, w) == expect
                        cases += 1
        assert cases == 208

    @pytest.mark.parametrize(
        "spec, expect",
        [
            # [PAPER]-adjacent: Carter's tables of maximal tori
            ("B2ad", [(1, 1), (2, 2), (1, 2), (1, 2), (4,)]),
            ("G2", [(1, 1), (2, 2), (1, 2), (1, 2), (3,), (6,)]),
            ("2A2sc", [(2, 2), (1, 2), (6,)]),
        ],
    )
    def test_maximal_torus_orders(self, spec, expect):
        G = cartan_type(spec)
        T = G.levi(())
        coset = relative_weyl_group(G, T)
        got = Counter(torus_fixed_order(T, cls.rep) for cls in coset.classes)
        assert got == Counter(prod(map(QPoly.phi, ds)) for ds in expect)

    def test_non_normalizing_element_rejected(self):
        # s_2 maps the Levi's root alpha_1 to alpha_1 + alpha_2
        G = gl(3)
        with pytest.raises(ValueError):
            torus_fixed_order(G.levi((0,)), G.reflection(1))


class TestRelativeWeylGroups:
    def test_principal_case(self):
        # [TRIVIAL] W_G(T) = W = S_3
        coset = relative_weyl_group(gl(3), gl(3).levi(()))
        assert coset.order == 6
        assert coset.structure == ("symmetric_product", (3,))
        assert sum(c.size for c in coset.classes) == 6
        assert sorted(c.size for c in coset.classes) == [1, 2, 3]

    def test_gl4_two_blocks(self):
        # [DERIVED] N_W(W_I)/W_I for GL2xGL2 in GL4 has order 2
        G = gl(4)
        coset = relative_weyl_group(G, G.levi((0, 2)))
        assert coset.order == 2
        assert coset.structure == ("symmetric_product", (2,))

    def test_block_structure_on_levi_datum(self):
        # L0.subset indexes the Levi datum's own roots: index 1 of GL2 x GL2
        # is e_3 - e_4, so the blocks are (1, 1, 2) and W = S_2 x S_1
        LD = gl(4).levi((0, 2)).as_datum()
        coset = relative_weyl_group(LD, LD.levi((1,)))
        assert coset.structure == ("symmetric_product", (2, 1))

    def test_full_levi_trivial(self):
        # [TRIVIAL] N_G(G)/G = 1
        G = gl(3)
        coset = relative_weyl_group(G, G.levi((0, 1)))
        assert coset.order == 1
        assert coset.structure == ("symmetric_product", (1,))

    def test_class_size_identity(self):
        for spec in ["GL2", "GL3", "GL4", "B2ad", "G2"]:
            G = cartan_type(spec)
            coset = relative_weyl_group(G, G.levi(()))
            assert sum(c.size for c in coset.classes) == coset.order
            for c in coset.classes:
                assert c.size * c.centralizer_order == coset.order

    def test_dihedral_structures(self):
        b2 = relative_weyl_group(cartan_type("B2ad"), cartan_type("B2ad").levi(()))
        assert b2.structure == ("dihedral", 4)
        assert sorted(b2.class_labels) == ["r0", "r1", "r2", "t0", "t1"]
        g2 = relative_weyl_group(cartan_type("G2"), cartan_type("G2").levi(()))
        assert g2.structure == ("dihedral", 6)
        assert len(g2.classes) == 6

    def test_fusion_counts(self):
        # classes of W_L(T) land in classes of W_G(T); intersection counts
        # add up over the sub-classes inside a fixed big class
        G = gl(3)
        T = G.levi(())
        big = relative_weyl_group(G, T)
        sub = relative_weyl_group(G.levi((0,)).as_datum(), T)
        fus = class_fusion(sub, big)
        assert len(fus) == 2
        by_big = {}
        for (big_idx, inter), cls in zip(fus, sub.classes):
            by_big.setdefault(big_idx, [0, inter])[0] += cls.size
        for total, inter in by_big.values():
            assert total == inter

    def test_class_index_of(self):
        G = gl(4)
        coset = relative_weyl_group(G, G.levi(()))
        for i, cls in enumerate(coset.classes):
            for w in cls.elements:
                assert coset.class_index_of(w) == i
        # a Weyl element of GL4 outside W_G(L) for L = GL2 x GL1 x GL1
        small = relative_weyl_group(G, G.levi((0,)))
        outside = next(w for w in coset.elements if w not in small.elements)
        with pytest.raises(KeyError):
            small.class_index_of(outside)

    def test_twisted_classes_2a2(self):
        # order-2 twist of A2: sigma-twisted classes of S3 (three of them)
        G = cartan_type("2A2sc")
        coset = relative_weyl_group(G, G.levi(()))
        assert coset.order == 6
        assert sum(c.size for c in coset.classes) == 6
        assert len(coset.classes) == 3


class TestDatumBasics:
    def test_cartan_matrix(self):
        assert gl(3).cartan_matrix() == ((2, -1), (-1, 2))
        assert gl(4).cartan_matrix() == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
        assert cartan_type("G2").cartan_matrix() == ((2, -1), (-3, 2))

    def test_counts(self):
        G = gl(3)
        assert G.n_positive == 3
        assert G.dimension == 9
        assert G.ss_rank == 2
        assert cartan_type("E6sc").n_positive == 36

    def test_levi_codimension_even(self):
        G = gl(4)
        for subset in [(), (0,), (0, 2), (0, 1), (0, 1, 2)]:
            assert G.levi(subset).codimension_even()

    def test_bad_levi_rejected(self):
        G = cartan_type("2A2sc")
        with pytest.raises(ValueError):
            G.levi((0,))  # the twist swaps the two simple roots


class TestCenter:
    def test_gl_connected_center(self):
        for n in [2, 3, 4]:
            cc = gl(n).center_component_group()
            assert cc.invariants == ()
            assert cc.order == 1

    def test_sl_center(self):
        # [TRIVIAL] Z(SL_n) = mu_n
        assert cartan_type("A1sc").center_component_group().invariants == (2,)
        assert cartan_type("A2sc").center_component_group().invariants == (3,)
        assert cartan_type("A3sc").center_component_group().invariants == (4,)
        assert cartan_type("B2sc").center_component_group().invariants == (2,)

    def test_fixed_points(self):
        # mu_2 over F_q: both points fixed for odd q, one for q = 2
        cc = cartan_type("A1sc").center_component_group()
        assert cc.fixed_count(3) == 2
        assert cc.fixed_count(2) == 1
        # mu_3: fixed count 3 iff q = 1 mod 3
        cc3 = cartan_type("A2sc").center_component_group()
        assert cc3.fixed_count(4) == 3
        assert cc3.fixed_count(2) == 1
        assert cc3.fixed_count(7) == 3

    def test_twisted_center_action(self):
        # 2A2: the twist inverts mu_3, so F = q*phi fixes all of mu_3 when
        # q = -1 mod 3
        cc = cartan_type("2A2sc").center_component_group()
        assert cc.invariants == (3,)
        assert cc.fixed_count(2) == 3
        assert cc.fixed_count(4) == 1

    def test_smith_form(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        s, u, v = smith_normal_form(m)
        su = mat_mul_int(mat_mul_int(u, m), v)
        assert su == tuple(map(tuple, s))
        diag = [s[i][i] for i in range(3)]
        assert diag == [2, 2, 156]
        for i in range(2):
            assert diag[i + 1] % diag[i] == 0
