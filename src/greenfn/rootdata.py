"""
Based root data with a Frobenius twist.

A root datum lives on a character lattice X = Z^r with chosen simple roots in
X and simple coroots in the dual lattice Y.  A finite-order automorphism phi
of X permuting the simple roots encodes the twist of the Frobenius F = q*phi.

Weyl group elements are represented as integer matrices acting on X (column
convention), so that Weyl groups of Levi subdata embed literally into the
parent group and class fusion is set intersection.  The module provides
twisted conjugacy classes, relative Weyl groups of Levi subgroups, order
polynomials of tori / centres / groups, and the component group of the
centre with its F-action.

Order polynomials come from characteristic polynomials det(q - a) of
a = w*phi on X.  For a Levi L whose simple roots a permutes,
|Z^0(L)^{wF}| is det(q - a) divided by the product over the cycles of a on
those roots of (q^len - 1).  |G^F| follows from the orders |T_w^F| of the
maximal tori and Steinberg's count q^{2N} of F-stable maximal tori (Carter,
Finite Groups of Lie Type, 3.3), unless the datum carries a degree table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .linalg import determinant, solve_linear
from .qpoly import QPoly, RatFunc

Vec = tuple
Mat = tuple  # tuple of row-tuples of ints


# ---------------------------------------------------------------------------
# integer matrix helpers


def identity_mat(r: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul_int(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_inv_int(a: Mat) -> Mat:
    """Inverse of a unimodular integer matrix (entries must come out integral)."""
    r = len(a)
    cols = []
    for j in range(r):
        rhs = [Fraction(1 if i == j else 0) for i in range(r)]
        frac_rows = [[Fraction(x) for x in row] for row in a]
        cols.append(solve_linear(frac_rows, rhs))
    out = tuple(tuple(int(cols[j][i]) for j in range(r)) for i in range(r))
    for i in range(r):
        for j in range(r):
            if cols[j][i] != out[i][j]:
                raise ValueError("matrix is not unimodular over Z")
    return out


def mat_order(a: Mat, limit: int = 10000) -> int:
    r = len(a)
    eye = identity_mat(r)
    p, k = a, 1
    while p != eye:
        p = mat_mul_int(p, a)
        k += 1
        if k > limit:
            raise ValueError("matrix order exceeds limit")
    return k


# ---------------------------------------------------------------------------
# twisted cosets


@dataclass(frozen=True)
class TwistedClass:
    """One sigma-twisted conjugacy class of a finite matrix group."""

    rep: Mat
    elements: frozenset
    size: int
    centralizer_order: int


@dataclass(frozen=True)
class TwistedCoset:
    """A finite group W with an automorphism sigma = conjugation by a twist.

    Elements are integer matrices on the ambient lattice X; ``twist`` is the
    matrix whose composition with elements gives the actual coset W*twist
    acting on X (so twisted conjugacy is g w sigma(g)^{-1} with
    sigma(g) = twist g twist^{-1}).
    """

    elements: tuple
    twist: Mat
    classes: tuple
    structure: tuple | None = None
    class_labels: tuple | None = None
    block_data: tuple | None = None  # for symmetric-product structure

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _class_index(self) -> dict:
        return {w: i for i, cls in enumerate(self.classes) for w in cls.elements}

    def class_index_of(self, w: Mat) -> int:
        try:
            return self._class_index[w]
        except KeyError:
            raise KeyError("element not in coset group") from None


def _twisted_classes(elements, sigma):
    """Partition ``elements`` into sigma-twisted conjugacy classes."""
    elems = sorted(elements)
    group = set(elems)
    inverse = _inverses(elems)
    # sigma(g)^-1 = sigma(g^-1), computed once per g
    pairs = [(g, sigma(inverse[g])) for g in elems]
    seen = set()
    classes = []
    for x in elems:
        if x in seen:
            continue
        orbit = {mat_mul_int(mat_mul_int(g, x), s_inv) for g, s_inv in pairs}
        if not orbit <= group:
            raise ValueError("twist does not normalize the group")
        seen |= orbit
        size = len(orbit)
        if len(group) % size:
            raise ValueError("orbit size does not divide group order")
        classes.append(
            TwistedClass(min(orbit), frozenset(orbit), size, len(group) // size)
        )
    classes.sort(key=lambda c: c.rep)
    total = sum(c.size for c in classes)
    if total != len(group):
        raise ValueError("twisted classes do not partition the group")
    return tuple(classes)


def _inverses(elems) -> dict:
    """The inverse of every element of a finite matrix group, read off the
    cyclic subgroup each element generates (g^-1 = g^(k-1) for g of order k)."""
    eye = identity_mat(len(elems[0]))
    inverse = {}
    for g in elems:
        if g in inverse:
            continue
        powers = [eye]
        p = g
        while p != eye:
            powers.append(p)
            if len(powers) > len(elems):
                raise ValueError("elements do not form a finite group")
            p = mat_mul_int(p, g)
        k = len(powers)
        for i, h in enumerate(powers):
            inverse[h] = powers[-i % k]
    return inverse


def generate_group(generators, limit: int = 2_000_000):
    """Closure of a set of invertible integer matrices under multiplication."""
    gens = list(dict.fromkeys(generators))
    if not gens:
        return ()
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
                    if len(seen) > limit:
                        raise ValueError("group generation limit exceeded")
        frontier = nxt
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# root data


class RootDatumF:
    """A based root datum on X = Z^r with a Frobenius twist phi.

    ``simple_roots`` are vectors in X, ``simple_coroots`` functionals on X
    (vectors in the dual lattice), paired by the dot product.
    """

    def __init__(
        self,
        rank: int,
        simple_roots,
        simple_coroots,
        twist: Mat | None = None,
        label: str = "",
        degree_data=None,
        gl_size: int | None = None,
    ):
        self.rank = rank
        self.simple_roots = tuple(tuple(v) for v in simple_roots)
        self.simple_coroots = tuple(tuple(v) for v in simple_coroots)
        self.twist = twist if twist is not None else identity_mat(rank)
        self.label = label
        self.degree_data = degree_data  # optional tuple of (degree, sign)
        self.gl_size = gl_size  # set for GL_n and its Levis
        self._validate()

    # -- construction checks -------------------------------------------------

    def _validate(self):
        n = len(self.simple_roots)
        if n != len(self.simple_coroots):
            raise ValueError("root/coroot count mismatch")
        A = self.cartan_matrix()
        for i in range(n):
            if A[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
        # twist permutes the simple roots and has finite order
        imgs = [mat_vec(self.twist, a) for a in self.simple_roots]
        if sorted(imgs) != sorted(self.simple_roots):
            raise ValueError("twist does not permute the simple roots")
        mat_order(self.twist, 100)

    def cartan_matrix(self):
        return tuple(
            tuple(_dot(a, cv) for a in self.simple_roots)
            for cv in self.simple_coroots
        )

    # -- roots and Weyl group ------------------------------------------------

    def reflection(self, i: int) -> Mat:
        a, cv = self.simple_roots[i], self.simple_coroots[i]
        r = self.rank
        return tuple(
            tuple((1 if x == y else 0) - a[x] * cv[y] for y in range(r))
            for x in range(r)
        )

    @property
    def roots(self):
        if not hasattr(self, "_roots"):
            refl = [self.reflection(i) for i in range(len(self.simple_roots))]
            roots = set(self.simple_roots)
            frontier = list(roots)
            while frontier:
                nxt = []
                for b in frontier:
                    for s in refl:
                        c = mat_vec(s, b)
                        if c not in roots:
                            roots.add(c)
                            nxt.append(c)
                frontier = nxt
            roots |= {tuple(-x for x in b) for b in roots}
            self._roots = tuple(sorted(roots))
        return self._roots

    @property
    def n_positive(self) -> int:
        return len(self.roots) // 2

    @property
    def dimension(self) -> int:
        return self.rank + len(self.roots)

    @property
    def ss_rank(self) -> int:
        return _rank_of_vectors(self.simple_roots)

    def weyl_elements(self):
        if not hasattr(self, "_weyl"):
            if not self.simple_roots:
                self._weyl = (identity_mat(self.rank),)
            else:
                self._weyl = generate_group(
                    [self.reflection(i) for i in range(len(self.simple_roots))]
                )
        return self._weyl

    def weyl_coset(self) -> TwistedCoset:
        """The full Weyl group with the twist-induced automorphism."""
        if not hasattr(self, "_weyl_coset"):
            elems = self.weyl_elements()
            tw_inv = mat_inv_int(self.twist)
            sigma = lambda g: mat_mul_int(mat_mul_int(self.twist, g), tw_inv)
            self._weyl_coset = TwistedCoset(
                elems, self.twist, _twisted_classes(elems, sigma)
            )
        return self._weyl_coset

    # -- Levi subdata ---------------------------------------------------------

    def levi(self, subset, twist_element: Mat | None = None) -> "LeviDatum":
        return LeviDatum(self, tuple(sorted(subset)), twist_element)

    # -- order polynomials ----------------------------------------------------

    def group_order(self) -> QPoly:
        """|G^F| as a polynomial in q."""
        if not hasattr(self, "_order"):
            self._order = _order_polynomial(self)
        return self._order

    def central_torus_order(self) -> QPoly:
        """|Z^0(G)^F| as a polynomial in q."""
        return _fixed_torus_order(self, range(len(self.simple_roots)), self.twist)

    def center_component_group(self) -> "CenterComponents":
        return _center_components(self)

    def __repr__(self):
        return f"RootDatumF({self.label or f'rank {self.rank}'})"


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rank_of_vectors(vecs) -> int:
    rows = [[Fraction(x) for x in v] for v in vecs]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for row in rows:
        for pcol, prow in pivots:
            factor = row[pcol]
            if factor:
                row = [a - factor * b for a, b in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            pivots.append((lead, [v / row[lead] for v in row]))
            rank += 1
    return rank


@dataclass(frozen=True)
class LeviDatum:
    """A standard Levi: subset I of simple roots with an optional twist element
    w such that w*phi stabilizes I."""

    parent: RootDatumF
    subset: tuple
    twist_element: Mat | None = None

    def __post_init__(self):
        n_simple = len(self.parent.simple_roots)
        for i in self.subset:
            if not 0 <= i < n_simple:
                raise ValueError(
                    f"Levi index {i} out of range: {self.parent.label or 'the group'} "
                    f"has {n_simple} simple roots"
                )
        if len(set(self.subset)) != len(self.subset):
            raise ValueError(f"Levi subset {list(self.subset)} repeats an index")
        phi = self.frobenius_twist()
        roots_I = {self.parent.simple_roots[i] for i in self.subset}
        if {mat_vec(phi, a) for a in roots_I} != roots_I:
            raise ValueError("Levi subset is not stable under the twist")

    def frobenius_twist(self) -> Mat:
        phi = self.parent.twist
        if self.twist_element is not None:
            phi = mat_mul_int(self.twist_element, phi)
        return phi

    def as_datum(self) -> RootDatumF:
        G = self.parent
        gl = G.gl_size
        return RootDatumF(
            G.rank,
            [G.simple_roots[i] for i in self.subset],
            [G.simple_coroots[i] for i in self.subset],
            twist=self.frobenius_twist(),
            label=f"{G.label}|{''.join(map(str, self.subset))}",
            gl_size=gl,
        )

    def codimension_even(self) -> bool:
        return (self.parent.dimension - self.as_datum().dimension) % 2 == 0


# ---------------------------------------------------------------------------
# order polynomials


def _charpoly(a: Mat) -> QPoly:
    """det(q - a) for an integer matrix a."""
    r = len(a)
    if not r:
        return QPoly([1])
    return determinant(
        [[QPoly([-a[i][j], 1 if i == j else 0]) for j in range(r)] for i in range(r)]
    )


def _order_polynomial(datum: RootDatumF) -> QPoly:
    """|G^F| via the degree table if present, else from the maximal tori.

    Steinberg: G^F has q^{2N} F-stable maximal tori, and the torus of type wF
    has |G^F| / (|T_w^F| |C_{W,F}(w)|) conjugates.  Summing over the twisted
    classes gives |G^F| = q^{2N} |W| / sum_classes |class| / |T_w^F|, with
    |T_w^F| = det(q - w*phi).
    """
    if datum.degree_data is not None:
        out = QPoly.q(datum.n_positive)
        for d, eps in datum.degree_data:
            out = out * (QPoly.q(d) - QPoly([eps]))
        return out
    coset = datum.weyl_coset()
    total = RatFunc(0)
    for cls in coset.classes:
        torus_order = _charpoly(mat_mul_int(cls.rep, datum.twist))
        total = total + RatFunc(QPoly([cls.size]), torus_order)
    order = RatFunc(QPoly.q(2 * datum.n_positive) * QPoly([coset.order])) / total
    if not order.is_polynomial():
        raise ValueError("group order from the maximal tori is not polynomial")
    return order.as_qpoly()


def _fixed_torus_order(datum: RootDatumF, subset, a: Mat) -> QPoly:
    """|Z^0(L)^{aF}| for the Levi L on the simple roots ``subset``, a = w*phi.

    The span V of L's simple roots is a-stable, and the characters of Z^0(L)
    span X_Q / V, so det(q - a) on X is |Z^0(L)^{aF}| times det(q - a) on V.
    a permutes those roots, which are linearly independent, so the latter is
    the product over the cycles of a on them of (q^len - 1).
    """
    roots = [datum.simple_roots[i] for i in subset]
    image = {root: mat_vec(a, root) for root in roots}
    if set(image.values()) != set(roots):
        raise ValueError("w*phi does not permute the simple roots of the Levi")
    out = _charpoly(a)
    seen = set()
    for root in roots:
        length = 0
        while root not in seen:
            seen.add(root)
            root = image[root]
            length += 1
        if length:
            out = out.exact_div(QPoly.q(length) - 1)
    return out


def torus_fixed_order(L0: LeviDatum, w: Mat | None = None) -> QPoly:
    """|Z^0(L0)^{wF}| for w in the relative Weyl group (w = None: w = 1)."""
    phi = L0.frobenius_twist()
    a = phi if w is None else mat_mul_int(w, phi)
    return _fixed_torus_order(L0.parent, L0.subset, a)


# ---------------------------------------------------------------------------
# relative Weyl groups


def relative_weyl_group(G: RootDatumF, L0: LeviDatum) -> TwistedCoset:
    """W_G(L0) = {w in W : w permutes the simple roots of L0}, with the
    automorphism induced by the Frobenius twist of L0."""
    roots_I = frozenset(G.simple_roots[i] for i in L0.subset)
    stab = [
        w
        for w in G.weyl_elements()
        if frozenset(mat_vec(w, a) for a in roots_I) == roots_I
    ]
    phi = L0.frobenius_twist()
    if frozenset(mat_vec(phi, a) for a in roots_I) != roots_I:
        raise ValueError("Frobenius twist does not stabilize the Levi subset")
    phi_inv = mat_inv_int(phi)
    sigma = lambda g: mat_mul_int(mat_mul_int(phi, g), phi_inv)
    stab_set = set(stab)
    for w in stab:
        if sigma(w) not in stab_set:
            raise ValueError("twist does not normalize the relative Weyl group")
    classes = _twisted_classes(stab, sigma)
    structure, labels, block_data = _detect_structure(G, L0, stab, classes)
    return TwistedCoset(
        tuple(sorted(stab)), phi, classes, structure, labels, block_data
    )


def class_fusion(sub: TwistedCoset, big: TwistedCoset):
    """For each class of ``sub``, the index of the ``big`` class containing it
    and the intersection count |(wF)^{big} ∩ sub|."""
    sub_set = set(sub.elements)
    if not sub_set <= set(big.elements):
        raise ValueError("sub coset is not contained in the big coset")
    out = []
    for cls in sub.classes:
        big_idx = big.class_index_of(cls.rep)
        inter = len(big.classes[big_idx].elements & sub_set)
        out.append((big_idx, inter))
    return out


# ---------------------------------------------------------------------------
# structure detection for character tables


def _detect_structure(G, L0, elements, classes):
    if G.gl_size is not None:
        got = _gl_block_structure(G, L0, elements, classes)
        if got is not None:
            return got
    if len(elements) == 1:
        return ("trivial",), ("1",) * len(classes), None
    dih = _dihedral_structure(elements, classes)
    if dih is not None:
        return dih
    return _cyclic_structure(elements, classes)


def _gl_block_structure(G, L0, elements, classes):
    """For GL_n and a standard Levi: the group permutes the blocks of the
    composition; it is the product over its orbits on blocks of the full
    symmetric groups of those orbits, giving partition-labeled characters."""
    n = G.gl_size
    # composition blocks: consecutive coordinate intervals.  The simple roots
    # of L0 are of the form e_a - e_{a+1}; each joins coordinates a, a+1.
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
    # each element must induce a coordinate permutation mapping blocks to blocks
    perms = {}
    for w in elements:
        coord = _as_coord_permutation(w, n)
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
    # orbits of the group on blocks, ordered by smallest block index
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
    # orbits must consist of equal-size blocks, and the group must be the
    # full product of symmetric groups on the orbits
    for orbit in orbits:
        if len({sizes[i] for i in orbit}) != 1:
            return None
    if len(elements) != math.prod(math.factorial(len(o)) for o in orbits):
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


def _as_coord_permutation(w, n):
    """If w acts on the first n coordinates as a permutation matrix, return
    the permutation (image list)."""
    out = [None] * n
    for j in range(n):
        col = [w[i][j] for i in range(n)]
        ones = [i for i, v in enumerate(col) if v == 1]
        if len(ones) != 1 or any(v not in (0, 1) for v in col):
            return None
        out[j] = ones[0]
    return tuple(out)


def _cycle_type_on(perm, idxs):
    """Cycle type of the permutation restricted to the invariant set idxs."""
    remaining = set(idxs)
    parts = []
    while remaining:
        start = min(remaining)
        length = 0
        cur = start
        while True:
            remaining.discard(cur)
            length += 1
            cur = perm[cur]
            if cur == start:
                break
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def _dihedral_structure(elements, classes):
    """Detect a dihedral group of order 2m (m >= 2): a cyclic subgroup of
    index 2 inverted by an outside involution."""
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
        if len(rot) != m:
            continue
        outside = [t for t in elements if t not in rot]
        r_inv = mat_inv_int(r)
        for t in sorted(outside):
            if mat_mul_int(t, t) != eye:
                continue
            if mat_mul_int(mat_mul_int(t, r), mat_inv_int(t)) != r_inv:
                continue
            if set(elements) != rot | {mat_mul_int(g, t) for g in rot}:
                continue
            labels = tuple(
                _dihedral_class_label(cls, r, t, m) for cls in classes
            )
            return ("dihedral", m), labels, (r, t)
    return None


def _dihedral_class_label(cls, r, t, m):
    """Class label for D_m = <r, t | r^m, t^2, trt=r^-1>: rotations "r{k}"
    with 0 <= k <= m/2, reflections "t0"/"t1" by the parity of k in r^k t
    (a single class "t0" for odd m)."""
    eye = identity_mat(len(r))
    powers = {}
    p, k = eye, 0
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


def _cyclic_structure(elements, classes):
    order = len(elements)
    eye = identity_mat(len(elements[0]))
    for g in sorted(elements):
        if mat_order(g, order + 1) == order:
            labels = []
            powers = {eye: 0}
            p, k = g, 1
            while p != eye:
                powers[p] = k
                p = mat_mul_int(p, g)
                k += 1
            for cls in classes:
                labels.append(f"g{min(powers[e] for e in cls.elements)}")
            return ("cyclic", order, g), tuple(labels), None
    return None, None, None


# ---------------------------------------------------------------------------
# centre component group


@dataclass(frozen=True)
class CenterComponents:
    """Z(G)/Z^0(G) as a finite abelian group with its F = q*phi action.

    ``invariants`` are the cyclic invariant factors (> 1).  Counting F-fixed
    points requires a value of q only through its residues modulo the
    invariant factors.
    """

    invariants: tuple
    generators_action: tuple  # matrix of phi on the invariant-factor basis

    @property
    def order(self) -> int:
        return math.prod(self.invariants)

    def fixed_count(self, q: int) -> int:
        """|(Z/Z^0)^F| for a specific prime power q (F acts by q*phi)."""
        if not self.invariants:
            return 1
        import itertools

        count = 0
        ranges = [range(d) for d in self.invariants]
        for vec in itertools.product(*ranges):
            img = [
                sum(self.generators_action[i][j] * vec[j] for j in range(len(vec)))
                * q
                % self.invariants[i]
                for i in range(len(vec))
            ]
            if all(img[i] == vec[i] for i in range(len(vec))):
                count += 1
        return count


def _center_components(datum: RootDatumF) -> CenterComponents:
    """Component group of the centre: torsion of X / (lattice of roots)."""
    if not datum.simple_roots:
        return CenterComponents((), ())
    m = [
        [datum.simple_roots[j][i] for j in range(len(datum.simple_roots))]
        for i in range(datum.rank)
    ]  # columns are the simple roots
    s, u, _ = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    tor_idx = [i for i, d in enumerate(diag) if d not in (0, 1)]
    invariants = tuple(diag[i] for i in tor_idx)
    if not invariants:
        return CenterComponents((), ())
    # in the Smith basis y = U x the quotient splits; the twist acts there by
    # U phi U^{-1}, restricted to the torsion coordinates
    act = mat_mul_int(mat_mul_int(tuple(map(tuple, u)), datum.twist), mat_inv_int(tuple(map(tuple, u))))
    action = tuple(tuple(act[i][j] for j in tor_idx) for i in tor_idx)
    return CenterComponents(invariants, action)


def smith_normal_form(matrix):
    """Smith normal form over Z with transforms: returns (S, U, V) with
    U*matrix*V = S, S diagonal with d_1 | d_2 | ..., U, V unimodular."""
    a = [list(row) for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def add_row(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in (a, v):
            for rr in row:
                rr[i] += c * rr[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t and row t
            changed = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    quo = a[i][t] // a[t][t]
                    add_row(i, t, -quo)
                    if a[i][t]:
                        swap_rows(t, i)
                        changed = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    quo = a[t][j] // a[t][t]
                    add_col(j, t, -quo)
                    if a[t][j]:
                        swap_cols(t, j)
                        changed = True
            if changed:
                continue
            # pivot must divide every remaining entry for the invariant chain
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if a[i][j] % a[t][t]
                ),
                None,
            )
            if bad is None:
                break
            add_row(t, bad[0], 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


# ---------------------------------------------------------------------------
# builders


CARTAN_TYPES = {
    "A": lambda n: _chain_cartan(n, ()),
    "B": lambda n: _chain_cartan(n, ((n - 2, n - 1, -2),)),
    "C": lambda n: _chain_cartan(n, ((n - 1, n - 2, -2),)),
    "G": lambda n: ((2, -1), (-3, 2)),
    "D": lambda n: _d_cartan(n),
    "E": lambda n: _e_cartan(n),
    "F": lambda n: ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
}


def _chain_cartan(n, overrides):
    a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    for i, j, val in overrides:
        a[i][j] = val
    return tuple(tuple(row) for row in a)


def _d_cartan(n):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        a[i][i + 1] = a[i + 1][i] = -1
    a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


def _e_cartan(n):
    # Bourbaki numbering: chain 1-3-4-5-6(-7-8), node 2 attached to 4
    chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
    edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(2, 4)]
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for x, y in edges:
        a[x - 1][y - 1] = a[y - 1][x - 1] = -1
    return tuple(tuple(row) for row in a)


DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}

TWISTED_SIGNS = {
    ("E", 6): {5: -1, 9: -1},
}

DIAGRAM_FLIPS = {
    ("E", 6): {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3},
}


def gl(n: int) -> RootDatumF:
    """GL_n: X = Z^n, roots e_i - e_j."""
    roots = [
        tuple((1 if k == i else 0) - (1 if k == i + 1 else 0) for k in range(n))
        for i in range(n - 1)
    ]
    return RootDatumF(n, roots, roots, label=f"GL{n}", gl_size=n)


def torus(r: int, twist: Mat | None = None) -> RootDatumF:
    return RootDatumF(r, [], [], twist=twist, label=f"T{r}")


def cartan_type(spec: str) -> RootDatumF:
    """Build a datum from a string like "A2", "B2ad", "G2", "2E6sc", "GL3".

    Prefix "2" requests the order-2 diagram twist; suffix "sc"/"ad" selects
    the isogeny (default "ad" for untwisted, "sc" for twisted exceptional).
    """
    text = spec.strip()
    if text.upper().startswith("GL"):
        return gl(int(text[2:]))
    twisted = False
    if text.startswith("2"):
        twisted = True
        text = text[1:]
    family = text[0].upper()
    rest = text[1:]
    isogeny = "ad"
    for suffix in ("sc", "ad"):
        if rest.endswith(suffix):
            isogeny = suffix
            rest = rest[: -len(suffix)]
    n = int(rest)
    if family not in CARTAN_TYPES:
        raise ValueError(f"unsupported Cartan family {family!r}")
    cartan = CARTAN_TYPES[family](n)
    flip = None
    if twisted:
        flip = _diagram_flip(family, n, cartan)
        if flip is None:
            raise ValueError(f"type {family}{n} has no order-2 diagram twist")
    datum = _from_cartan(cartan, isogeny, flip, label=f"{'2' if twisted else ''}{family}{n}{isogeny}")
    if (family, n) in DEGREES:
        degs = DEGREES[(family, n)]
        signs = TWISTED_SIGNS.get((family, n), {}) if twisted else {}
        datum.degree_data = tuple((d, signs.get(d, 1)) for d in degs)
    return datum


def _diagram_flip(family, n, cartan):
    if family == "A" and n >= 2:
        return {i: n - 1 - i for i in range(n)}
    if family == "D" and n >= 3:
        flip = {i: i for i in range(n)}
        flip[n - 1], flip[n - 2] = n - 2, n - 1
        return flip
    if (family, n) == ("E", 6):
        return DIAGRAM_FLIPS[("E", 6)]
    return None


def _from_cartan(cartan, isogeny, flip, label):
    n = len(cartan)
    perm = flip or {i: i for i in range(n)}
    if any(cartan[perm[i]][perm[j]] != cartan[i][j] for i in range(n) for j in range(n)):
        raise ValueError("diagram twist does not preserve the Cartan matrix")
    twist = tuple(
        tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n)
    )
    if isogeny == "sc":
        # X has the fundamental-weight basis: alpha_j = column j of the Cartan
        # matrix, coroots are the dual basis
        roots = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
        coroots = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    else:
        # X has the root basis
        roots = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
        coroots = [tuple(cartan[i][j] for j in range(n)) for i in range(n)]
    return RootDatumF(n, roots, coroots, twist=twist, label=label)
