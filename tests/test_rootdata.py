"""Tests for root data: Weyl groups, twisted classes, orders, centres."""

from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfn.qpoly import ArithmeticInvariantError, QPoly
from greenfn.rootdata import (
    TwistedClass,
    TwistedCoset,
    _charpoly,
    _cycle_type_on,
    _gl_block_structure,
    _twisted_classes,
    cartan_type,
    class_fusion,
    gl,
    identity_mat,
    mat_inv_int,
    mat_mul_int,
    mat_order,
    mat_vec,
    relative_weyl_group,
    smith_normal_form,
    torus,
    torus_fixed_order,
)

q = QPoly.q()


def brute_gl_order(n: int, qq: int) -> int:
    return prod(qq**n - qq**k for k in range(n))


def leibniz_charpoly(a) -> QPoly:
    """det(q - a) as the signed sum over permutations of products of entries."""
    r = len(a)
    out = QPoly()
    for perm in permutations(range(r)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r))
        term = QPoly([sign])
        for i, j in enumerate(perm):
            term = term * QPoly([-a[i][j], int(i == j)])
        out = out + term
    return out


int_matrices = st.integers(0, 4).flatmap(
    lambda r: st.lists(
        st.lists(st.integers(-5, 5), min_size=r, max_size=r).map(tuple),
        min_size=r,
        max_size=r,
    ).map(tuple)
)


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
        assert cartan_type("F4").group_order() == QPoly.q(24) * prod(
            q**d - 1 for d in (2, 6, 8, 12)
        )
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
            assert vals == {cls.torus_order.coeffs}

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
        cases = classes = 0
        for n in range(2, 6):
            G = gl(n)
            for k in range(n):
                for subset in combinations(range(n - 1), k):
                    L0 = G.levi(subset)
                    coset = relative_weyl_group(G, L0)
                    orders = _ref_gl_block_torus_orders(G, L0, coset.elements)
                    for w in coset.elements:
                        assert torus_fixed_order(L0, w) == orders[w]
                        cases += 1
                    for cls in coset.classes:
                        assert cls.torus_order == orders[cls.rep]
                        classes += 1
        assert (cases, classes) == (208, 61)

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
        want = Counter(prod(map(QPoly.phi, ds)) for ds in expect)
        assert Counter(torus_fixed_order(T, cls.rep) for cls in coset.classes) == want
        assert Counter(cls.torus_order for cls in coset.classes) == want

    @given(int_matrices)
    @settings(max_examples=80, deadline=None)
    def test_charpoly_matches_leibniz(self, a):
        assert _charpoly(a) == leibniz_charpoly(a)

    @pytest.mark.parametrize("spec", ["F4", "2D4ad"])
    def test_charpoly_of_twisted_weyl_elements(self, spec):
        G = cartan_type(spec)
        elements = sorted(G.weyl_elements())
        for w in elements[:: len(elements) // 8]:
            a = mat_mul_int(w, G.twist)
            assert _charpoly(a) == leibniz_charpoly(a)

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


# ---------------------------------------------------------------------------
# frozen reference: the relative Weyl group as a scan of integer matrices
#
# This is the matrix implementation that the root-permutation one replaced,
# kept unchanged apart from names.  It includes the structure detection for
# GL_n that read every element's matrix as a permutation of the coordinates;
# the package reads only the class representatives.  The fields the package
# sets while it builds the classes come from computations of their own here:
# each torus order from the GL_n block cycles or, outside GL_n, from the
# Leibniz determinant, and the split flag from the matrix commutation test
# that character tables used to run on every element.


def _ref_generate_group(generators):
    gens = list(dict.fromkeys(generators))
    eye = identity_mat(len(gens[0]))
    seen = {eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = mat_mul_int(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return tuple(sorted(seen))


def _ref_weyl_elements(G):
    if not G.simple_roots:
        return (identity_mat(G.rank),)
    return _ref_generate_group([G.reflection(i) for i in range(len(G.simple_roots))])


def _ref_inverses(elems):
    eye = identity_mat(len(elems[0]))
    inverse = {}
    for g in elems:
        if g in inverse:
            continue
        powers = [eye]
        p = g
        while p != eye:
            powers.append(p)
            p = mat_mul_int(p, g)
        k = len(powers)
        for i, h in enumerate(powers):
            inverse[h] = powers[-i % k]
    return inverse


def _ref_twisted_classes(elements, sigma, torus_order):
    elems = sorted(elements)
    group = set(elems)
    inverse = _ref_inverses(elems)
    pairs = [(g, sigma(inverse[g])) for g in elems]
    seen = set()
    classes = []
    for x in elems:
        if x in seen:
            continue
        orbit = {mat_mul_int(mat_mul_int(g, x), s_inv) for g, s_inv in pairs}
        assert orbit <= group
        seen |= orbit
        size = len(orbit)
        rep = min(orbit)
        classes.append(
            TwistedClass(rep, frozenset(orbit), size, len(group) // size, torus_order(rep))
        )
    classes.sort(key=lambda c: c.rep)
    assert sum(c.size for c in classes) == len(group)
    return tuple(classes)


def _ref_dihedral_structure(elements, classes):
    order = len(elements)
    if order % 2 or order < 4:
        return None
    m = order // 2
    eye = identity_mat(len(elements[0]))
    for r in sorted(elements):
        if mat_order(r, order + 1) != m:
            continue
        rot = {eye}
        p = r
        while p != eye:
            rot.add(p)
            p = mat_mul_int(p, r)
        outside = [t for t in elements if t not in rot]
        r_inv = mat_inv_int(r)
        for t in sorted(outside):
            if mat_mul_int(t, t) != eye:
                continue
            if mat_mul_int(mat_mul_int(t, r), mat_inv_int(t)) != r_inv:
                continue
            if set(elements) != rot | {mat_mul_int(g, t) for g in rot}:
                continue
            labels = tuple(_ref_dihedral_label(cls, r, t, m) for cls in classes)
            return ("dihedral", m), labels, (r, t)
    return None


def _ref_dihedral_label(cls, r, t, m):
    powers = {}
    p, k = identity_mat(len(r)), 0
    while True:
        powers[p] = k
        if k == m - 1:
            break
        p = mat_mul_int(p, r)
        k += 1
    if cls.rep in powers:
        k = powers[cls.rep]
        return f"r{min(k, (m - k) % m)}"
    k = powers[mat_mul_int(cls.rep, mat_inv_int(t))]
    return "t0" if (m % 2 or k % 2 == 0) else "t1"


def _ref_cyclic_structure(elements, classes):
    order = len(elements)
    eye = identity_mat(len(elements[0]))
    for g in sorted(elements):
        if mat_order(g, order + 1) == order:
            powers = {eye: 0}
            p, k = g, 1
            while p != eye:
                powers[p] = k
                p = mat_mul_int(p, g)
                k += 1
            labels = [f"g{min(powers[e] for e in cls.elements)}" for cls in classes]
            return ("cyclic", order, g), tuple(labels), None
    return None, None, None


def _ref_gl_block_structure(G, L0, elements, classes):
    n = G.gl_size
    joined = set()
    for j in L0.subset:
        root = G.simple_roots[j]
        if sum(abs(v) for v in root) != 2 or 1 not in root:
            return None
        joined.add(root.index(1))
    blocks = []
    start = 0
    cut = set(range(n - 1)) - joined
    for i in sorted(cut):
        blocks.append(tuple(range(start, i + 1)))
        start = i + 1
    blocks.append(tuple(range(start, n)))
    sizes = [len(b) for b in blocks]
    perms = {}
    for w in elements:
        coord = _ref_as_coord_permutation(w, n)
        if coord is None:
            return None
        bp = []
        for b in blocks:
            img = tuple(sorted(coord[c] for c in b))
            if img not in blocks:
                return None
            bp.append(blocks.index(img))
        perms[w] = tuple(bp)
    if len(set(perms.values())) != len(elements):
        return None
    parent = list(range(len(blocks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bp in perms.values():
        for i, j in enumerate(bp):
            parent[find(i)] = find(j)
    orbit_of = {}
    for i in range(len(blocks)):
        orbit_of.setdefault(find(i), []).append(i)
    orbits = sorted(orbit_of.values(), key=min)
    for orbit in orbits:
        if len({sizes[i] for i in orbit}) != 1:
            return None
    if len(elements) != prod(factorial(len(o)) for o in orbits):
        return None
    labels = []
    for cls in classes:
        bp = perms[cls.rep]
        labels.append(tuple(_cycle_type_on(bp, orbit) for orbit in orbits))
    structure = ("symmetric_product", tuple(len(o) for o in orbits))
    block_data = (
        tuple(blocks),
        tuple(tuple(o) for o in orbits),
        {w: perms[w] for w in elements},
    )
    return structure, tuple(labels), block_data


def _ref_as_coord_permutation(w, n):
    out = [None] * n
    for j in range(n):
        col = [w[i][j] for i in range(n)]
        ones = [i for i, v in enumerate(col) if v == 1]
        if len(ones) != 1 or any(v not in (0, 1) for v in col):
            return None
        out[j] = ones[0]
    return tuple(out)


def _ref_is_nontrivially_twisted(elements, twist):
    """Whether the twist fails to commute with some element of the group."""
    if twist == identity_mat(len(twist)):
        return False
    return any(mat_mul_int(twist, g) != mat_mul_int(g, twist) for g in elements)


def _ref_gl_block_torus_orders(G, L0, elements):
    """|Z^0(L0)^{wF}| for each w, by blocks: Z^0(L0) is one GL1 per block of
    L0, and each cycle of length l of w on the blocks gives q^l - 1."""
    blocks, _, perms = _ref_gl_block_structure(G, L0, elements, ())[2]
    return {
        w: prod(QPoly.q(length) - 1 for length in _cycle_type_on(perms[w], range(len(blocks))))
        for w in elements
    }


def _ref_torus_order(G, L0, w):
    """|Z^0(L0)^{wF}| as det(q - w phi) by the Leibniz formula, divided by
    q^l - 1 for each cycle of length l of w phi on the simple roots of L0."""
    a = mat_mul_int(w, L0.frobenius_twist())
    roots = [G.simple_roots[i] for i in L0.subset]
    images = [roots.index(mat_vec(a, root)) for root in roots]
    out = leibniz_charpoly(a)
    for length in _cycle_type_on(images, range(len(roots))):
        out = out.exact_div(QPoly.q(length) - 1)
    return out


def _ref_relative_weyl_group(G, L0, weyl):
    roots_I = frozenset(G.simple_roots[i] for i in L0.subset)
    stab = [w for w in weyl if frozenset(mat_vec(w, a) for a in roots_I) == roots_I]
    phi = L0.frobenius_twist()
    phi_inv = mat_inv_int(phi)
    sigma = lambda g: mat_mul_int(mat_mul_int(phi, g), phi_inv)
    assert {sigma(w) for w in stab} == set(stab)
    if G.gl_size:
        torus_order = _ref_gl_block_torus_orders(G, L0, stab).__getitem__
    else:
        torus_order = lambda w: _ref_torus_order(G, L0, w)
    classes = _ref_twisted_classes(stab, sigma, torus_order)
    got = _ref_gl_block_structure(G, L0, stab, classes) if G.gl_size else None
    if got is None:
        if len(stab) == 1:
            got = ("trivial",), ("1",) * len(classes), None
        else:
            got = _ref_dihedral_structure(stab, classes) or _ref_cyclic_structure(
                stab, classes
            )
    # the third item (block data, the dihedral generators) has no counterpart
    structure, labels, _ = got
    split = not _ref_is_nontrivially_twisted(stab, phi)
    return TwistedCoset(tuple(sorted(stab)), phi, classes, split, structure, labels)


def _stable_levis(G):
    """Every standard Levi of G whose simple roots the twist permutes."""
    out = []
    for k in range(len(G.simple_roots) + 1):
        for subset in combinations(range(len(G.simple_roots)), k):
            try:
                out.append(G.levi(subset))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize(
    "spec, levis",
    [("GL2", 2), ("GL3", 4), ("GL4", 8), ("GL5", 16), ("GL6", 32)]
    + [
        ("2A2sc", 2),
        ("2A3sc", 4),
        ("2D4ad", 8),
        ("B2ad", 4),
        ("G2", 4),
        ("B3sc", 8),
        ("C3ad", 8),
    ],
)
def test_relative_weyl_group_matches_matrix_scan(spec, levis):
    G = cartan_type(spec)
    weyl = _ref_weyl_elements(G)
    assert G.weyl_elements() == weyl
    levis_of_G = _stable_levis(G)
    assert len(levis_of_G) == levis
    cosets = [relative_weyl_group(G, L0) for L0 in levis_of_G]
    for L0, coset in zip(levis_of_G, cosets):
        assert coset == _ref_relative_weyl_group(G, L0, weyl)
    # the twist acts on some coset exactly for the twisted types
    assert all(c.split for c in cosets) == (not spec.startswith("2"))


def test_split_with_a_twisted_torus():
    # gl(2).levi((), s): the twist s is not the identity, but it commutes
    # with W(GL2) = {1, s}, and with the trivial Weyl group of the Levi datum
    G = gl(2)
    T = G.levi((), G.reflection(0))
    LD = T.as_datum()
    for coset in (relative_weyl_group(G, T), relative_weyl_group(LD, LD.levi(()))):
        assert coset.twist != identity_mat(2)
        assert not _ref_is_nontrivially_twisted(coset.elements, coset.twist)
        assert coset.split
    # |Z^0(T)^{wsF}| for w = 1, s: the twisted torus q^2 - 1, then (q - 1)^2
    by_rep = {c.rep: c.torus_order for c in relative_weyl_group(G, T).classes}
    assert by_rep == {identity_mat(2): q * q - 1, G.reflection(0): (q - 1) ** 2}


class TestGlBlockStructureChecks:
    """Each check of ``_gl_block_structure`` fails on a class list built to
    break it."""

    G = gl(3)
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize(
        "subset, rep",
        [
            # s_1 swaps coordinates 1 and 2, splitting the block {0, 1}
            ((0,), G.reflection(1)),
            # not a permutation matrix: e_1 goes to e_0 + e_1
            ((), shear),
        ],
        ids=["splits-a-block", "not-a-permutation"],
    )
    def test_representative_must_permute_the_blocks(self, subset, rep):
        classes = (TwistedClass(rep, frozenset({rep}), 1, 1, _charpoly(rep)),)
        with pytest.raises(ArithmeticInvariantError, match="does not permute"):
            _gl_block_structure(self.G, self.G.levi(subset), classes)

    def test_group_order_must_match_the_orbits(self):
        # without the identity class the order reads 5, but the orbit of all
        # three blocks needs 3! = 6
        classes = relative_weyl_group(self.G, self.G.levi(())).classes
        rest = tuple(cls for cls in classes if cls.size > 1)
        assert sum(cls.size for cls in rest) == 5
        with pytest.raises(ArithmeticInvariantError, match="of order 5 is not"):
            _gl_block_structure(self.G, self.G.levi(()), rest)

    def test_labels_must_differ(self):
        # two classes of size 1 with the swap of W(GL2) as representative
        G = gl(2)
        s = G.reflection(0)
        cls = TwistedClass(s, frozenset({s}), 1, 2, _charpoly(s))
        with pytest.raises(ArithmeticInvariantError, match="one cycle type"):
            _gl_block_structure(G, G.levi(()), (cls, cls))


class TestTwistedClassChecks:
    """Each check of ``_twisted_classes`` fails on a group (root permutation
    -> matrix) and twist built to break it, here inside W(GL3) = S_3."""

    G = gl(3)
    s1, s2 = G.reflection(0), G.reflection(1)
    t = mat_mul_int(mat_mul_int(s1, s2), s1)  # the third transposition
    one = identity_mat(3)

    def classes(self, elements, twist):
        perm = self.G.root_permutation
        L0 = self.G.levi((), twist)
        return _twisted_classes(
            {perm(w): w for w in elements},
            perm(twist),
            lambda w: torus_fixed_order(L0, w),
        )

    def test_twisted_s3(self):
        got, split = self.classes(self.G.weyl_elements(), self.t)
        assert sorted(c.size for c in got) == [1, 2, 3]
        # conjugation by a transposition moves the other two
        assert not split
        assert self.classes(self.G.weyl_elements(), self.one)[1]

    def test_twist_must_normalize(self):
        with pytest.raises(ValueError, match="does not normalize the relative"):
            self.classes([self.one, self.s1], self.s2)

    def test_orbit_must_stay_in_group(self):
        with pytest.raises(ValueError, match="does not normalize the group"):
            self.classes([self.one, self.s1, self.s2], self.one)

    def test_orbit_size_must_divide_order(self):
        with pytest.raises(ValueError, match="does not divide"):
            self.classes([self.one, self.s1, self.s2, self.t], self.one)

    def test_classes_must_partition(self):
        with pytest.raises(ValueError, match="do not partition"):
            self.classes([self.s1, self.s2], self.t)
