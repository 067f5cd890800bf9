"""
Based root data with a Frobenius twist.

A root datum lives on a character lattice X = Z^r with chosen simple roots in
X and simple coroots in the dual lattice Y.  A finite-order automorphism phi
of X permuting the simple roots encodes the twist of the Frobenius F = q*phi.

A Weyl group acts faithfully on its roots, so the group is generated,
scanned and partitioned into twisted classes as permutations of the roots:
a product is tuple indexing and an inverse an argsort.  Each element's
integer matrix on X (column convention) is multiplied out once, when the
element is found, and the cosets (``TwistedCoset``) hold the matrices, so
that Weyl groups of Levi subdata embed literally into the parent group.
The matrices stay inside this module.  Other modules read a coset through
its twisted classes (a size, and the torus order |Z^0(L0)^{wF}| computed
once when the coset is built), its ``split`` flag (whether the twist fixes
every element), its structure tag and class labels, and, for a subcoset,
the class of the parent that each class fuses into (``class_fusion``).
The module provides twisted conjugacy classes, relative Weyl groups of
Levi subgroups, order polynomials of tori / centres / groups, and the
component group of the centre with its F-action.

Order polynomials come from characteristic polynomials det(q - a) of
a = w*phi on X.  For a Levi L whose simple roots a permutes,
|Z^0(L)^{wF}| is det(q - a) divided by the product over the cycles of a on
those roots of (q^len - 1).  |G^F| follows from the orders |T_w^F| of the
maximal tori and Steinberg's count q^{2N} of F-stable maximal tori (Carter,
Finite Groups of Lie Type, 3.3), unless the datum carries a degree table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul

from .linalg import solve_linear
from .qpoly import ArithmeticInvariantError, QPoly, RatFunc

Vec = tuple
Mat = tuple  # tuple of row-tuples of ints


# ---------------------------------------------------------------------------
# integer matrix helpers


def identity_mat(r: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul_int(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


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
                raise ArithmeticInvariantError("matrix is not unimodular over Z")
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
# permutations of the roots
#
# A Weyl element is determined by the permutation it induces on
# ``RootDatumF.roots``: p[i] is the index of the image of root i.


def _compose(a: tuple, b: tuple) -> tuple:
    """The permutation a∘b (first b, then a)."""
    # roots come in pairs +-alpha, so b has 0 or at least 2 entries, and
    # itemgetter of several indices returns a tuple
    return itemgetter(*b)(a) if b else ()


def _perm_inverse(p: tuple) -> tuple:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _perm_order(p: tuple) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*_cycle_type_on(p, range(len(p))))


def _perm_powers(p: tuple) -> list:
    """[1, p, p^2, ..., p^(k-1)] for p of order k."""
    one = tuple(range(len(p)))
    out, power = [one], p
    while power != one:
        out.append(power)
        power = _compose(power, p)
    return out


# ---------------------------------------------------------------------------
# twisted cosets


@dataclass(frozen=True)
class TwistedClass:
    """One sigma-twisted conjugacy class wF of a relative Weyl coset, with the
    order |Z^0(L0)^{wF}| of the torus that it twists."""

    rep: Mat
    elements: frozenset
    size: int
    centralizer_order: int
    torus_order: QPoly


@dataclass(frozen=True)
class TwistedCoset:
    """A finite group W with an automorphism sigma = conjugation by a twist.

    Elements are integer matrices on the ambient lattice X; ``twist`` is the
    matrix whose composition with elements gives the actual coset W*twist
    acting on X (so twisted conjugacy is g w sigma(g)^{-1} with
    sigma(g) = twist g twist^{-1}).  ``split`` says whether sigma fixes every
    element, so that the twisted classes are the ordinary ones.
    """

    elements: tuple
    twist: Mat
    classes: tuple
    split: bool
    structure: tuple | None
    class_labels: tuple | None

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


def _twisted_classes(group: dict, twist: tuple, torus_order):
    """Partition ``group``, a dict root permutation -> matrix, into twisted
    conjugacy classes {g x sigma(g)^-1}, sigma(g) = twist g twist^-1, each
    with ``torus_order`` of its representative matrix.  Returns the classes
    and whether sigma fixes every element."""
    twist_inv = _perm_inverse(twist)
    # sigma(g)^-1 = sigma(g^-1), computed once per g
    pairs = []
    split = True
    for g in group:
        g_inv = _perm_inverse(g)
        s = _compose(_compose(twist, g_inv), twist_inv)
        if s not in group:
            raise ValueError("twist does not normalize the relative Weyl group")
        split = split and s == g_inv
        pairs.append((g, s))
    seen = set()
    classes = []
    for x in group:
        if x in seen:
            continue
        orbit = {_compose(_compose(g, x), s) for g, s in pairs}
        if not orbit <= group.keys():
            raise ValueError("twist does not normalize the group")
        seen |= orbit
        size = len(orbit)
        if len(group) % size:
            raise ArithmeticInvariantError("orbit size does not divide group order")
        mats = frozenset(group[p] for p in orbit)
        rep = min(mats)
        classes.append(TwistedClass(rep, mats, size, len(group) // size, torus_order(rep)))
    classes.sort(key=lambda c: c.rep)
    total = sum(c.size for c in classes)
    if total != len(group):
        raise ArithmeticInvariantError("twisted classes do not partition the group")
    return tuple(classes), split


def generate_group(generators, limit: int = 2_000_000) -> dict:
    """Closure under multiplication of ``generators``, pairs (root
    permutation, matrix), as a dict root permutation -> matrix.

    The search runs on permutations, so the group must act faithfully on
    the roots, as a Weyl group does.  Each element's matrix is multiplied
    out once, when the element is first found.
    """
    gens = list(dict(generators).items())
    perm, mat = gens[0]
    group = {tuple(range(len(perm))): identity_mat(len(mat))}
    frontier = list(group)
    while frontier:
        nxt = []
        for w in frontier:
            for p, m in gens:
                wp = _compose(w, p)
                if wp not in group:
                    group[wp] = mat_mul_int(group[w], m)
                    nxt.append(wp)
                    if len(group) > limit:
                        raise ValueError("group generation limit exceeded")
        frontier = nxt
    return group


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
        self._levi_data = {}  # (subset, twist_element) -> RootDatumF
        self._cosets = {}  # LeviDatum -> TwistedCoset

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

    @cached_property
    def _root_index(self) -> dict:
        return {root: i for i, root in enumerate(self.roots)}

    def root_permutation(self, a: Mat) -> tuple:
        """The permutation of ``roots`` induced by the matrix a."""
        index = self._root_index
        try:
            return tuple(index[mat_vec(a, root)] for root in self.roots)
        except KeyError:
            raise ValueError("matrix does not permute the roots") from None

    @cached_property
    def weyl_group(self) -> dict:
        """W as a dict: root permutation -> matrix on X."""
        if not self.simple_roots:
            return {(): identity_mat(self.rank)}
        reflections = [self.reflection(i) for i in range(len(self.simple_roots))]
        return generate_group((self.root_permutation(s), s) for s in reflections)

    def weyl_elements(self):
        return tuple(sorted(self.weyl_group.values()))

    # -- Levi subdata ---------------------------------------------------------

    def levi(self, subset, twist_element: Mat | None = None) -> "LeviDatum":
        return LeviDatum(self, tuple(sorted(subset)), twist_element)

    def relative_coset(self, L0: "LeviDatum") -> TwistedCoset:
        """W_G(L0) with its twist (``relative_weyl_group``), built once per L0."""
        if L0 not in self._cosets:
            self._cosets[L0] = relative_weyl_group(self, L0)
        return self._cosets[L0]

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
        """L as a root datum of its own, built once per Levi of the parent."""
        G = self.parent
        key = (self.subset, self.twist_element)
        if key not in G._levi_data:
            G._levi_data[key] = RootDatumF(
                G.rank,
                [G.simple_roots[i] for i in self.subset],
                [G.simple_coroots[i] for i in self.subset],
                twist=self.frobenius_twist(),
                label=f"{G.label}|{''.join(map(str, self.subset))}",
                gl_size=G.gl_size,
            )
        return G._levi_data[key]


# ---------------------------------------------------------------------------
# order polynomials


def _charpoly(a: Mat) -> QPoly:
    """det(q - a) for an integer matrix a, by the Faddeev-LeVerrier recursion:
    with M_1 = 1, c_r = 1 and M_{k+1} = a M_k + c_{r-k} for k >= 1, the
    coefficient c_{r-k} of q^{r-k} is -tr(a M_k) / k, an exact integer
    division."""
    r = len(a)
    cs, m = [1], identity_mat(r)
    for k in range(1, r + 1):
        am = mat_mul_int(a, m)
        cs.append(-sum(am[i][i] for i in range(r)) // k)
        m = tuple(
            tuple(x + cs[-1] if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(am)
        )
    return QPoly(cs[::-1])


def _order_polynomial(datum: RootDatumF) -> QPoly:
    """|G^F| via the degree table if present, else from the maximal tori.

    Steinberg: G^F has q^{2N} F-stable maximal tori, and the torus of type wF
    has |G^F| / (|T_w^F| |C_{W,F}(w)|) conjugates.  Summing over the twisted
    classes gives |G^F| = q^{2N} |W| / sum_classes |class| / |T_w^F|, with
    |T_w^F| = det(q - w*phi) the torus order of the class.
    """
    if datum.degree_data is not None:
        out = QPoly.q(datum.n_positive)
        for d, eps in datum.degree_data:
            out = out * (QPoly.q(d) - QPoly([eps]))
        return out
    coset = datum.relative_coset(datum.levi(()))
    total = RatFunc(0)
    for cls in coset.classes:
        total = total + RatFunc(QPoly([cls.size]), cls.torus_order)
    order = RatFunc(QPoly.q(2 * datum.n_positive) * QPoly([coset.order])) / total
    if not order.is_polynomial():
        raise ArithmeticInvariantError("group order from the maximal tori is not polynomial")
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
    automorphism induced by the Frobenius twist of L0, and the torus order
    |Z^0(L0)^{wF}| of each twisted class."""
    roots_I = {G._root_index[G.simple_roots[i]] for i in L0.subset}
    stab = {
        p: w for p, w in G.weyl_group.items() if {p[i] for i in roots_I} == roots_I
    }
    phi = L0.frobenius_twist()
    classes, split = _twisted_classes(
        stab,
        G.root_permutation(phi),
        lambda w: _fixed_torus_order(G, L0.subset, mat_mul_int(w, phi)),
    )
    structure, labels = _detect_structure(G, L0, stab, classes)
    return TwistedCoset(tuple(sorted(stab.values())), phi, classes, split, structure, labels)


def class_fusion(sub: TwistedCoset, big: TwistedCoset):
    """For each class of ``sub``, the index of the ``big`` class containing
    its representative and the intersection count |(wF)^{big} ∩ sub|.

    With one twist for both cosets, twisted conjugacy in ``sub`` implies it
    in ``big``, so each ``big`` class meets ``sub`` in whole ``sub`` classes
    and the count is the total size of those fused into it.
    """
    if sub.twist != big.twist:
        raise ValueError("sub and big cosets have different twists")
    if not set(sub.elements) <= big._class_index.keys():
        raise ValueError("sub coset is not contained in the big coset")
    index = [big.class_index_of(cls.rep) for cls in sub.classes]
    fused = Counter()
    for i, cls in zip(index, sub.classes):
        fused[i] += cls.size
    return [(i, fused[i]) for i in index]


# ---------------------------------------------------------------------------
# structure detection for character tables


def _detect_structure(G, L0, group, classes):
    """Structure tag and class labels of ``group``, a dict root permutation
    -> matrix, for the character tables."""
    if G.gl_size is not None:
        return _gl_block_structure(G, L0, classes)
    if len(group) == 1:
        return ("trivial",), ("1",) * len(classes)
    # scan in the order of the matrices, which fixes the chosen generators
    perm_of = {w: p for p, w in sorted(group.items(), key=lambda item: item[1])}
    return _dihedral_structure(perm_of, classes) or _cyclic_structure(perm_of, classes)


def _gl_block_structure(G, L0, classes):
    """For GL_n and a standard Levi L0: the relative Weyl group permutes the
    blocks of the composition and is the product of the full symmetric
    groups of its orbits on them; a class is labeled by the cycle types of
    its representative on the orbits.  Only the representatives are read:
    permutation matrices on Z^n that together generate the group.  Any
    departure from this raises ArithmeticInvariantError."""
    # the simple roots of L0 are e_a - e_{a+1}; each joins coordinates a, a+1
    sizes = gl_block_sizes(G.gl_size, {G.simple_roots[j].index(1) for j in L0.subset})
    blocks = [range(end - s, end) for s, end in zip(sizes, accumulate(sizes))]
    block_index = {frozenset(b): k for k, b in enumerate(blocks)}
    # a permutation matrix sends e_j, its column j, to a unit vector e_i
    unit = {e: i for i, e in enumerate(identity_mat(G.gl_size))}
    perms = []
    for cls in classes:
        coord = [unit.get(col) for col in zip(*cls.rep)]
        bp = tuple(block_index.get(frozenset(coord[c] for c in b)) for b in blocks)
        if None in bp:
            raise ArithmeticInvariantError(
                "relative Weyl group element does not permute the Levi's blocks"
            )
        perms.append(bp)
    # orbits on blocks: merge along each representative's block permutation
    orbit_of = {k: {k} for k in range(len(blocks))}
    for bp in perms:
        for k, j in enumerate(bp):
            if j not in orbit_of[k]:
                merged = orbit_of[k] | orbit_of[j]
                for x in merged:
                    orbit_of[x] = merged
    orbits = sorted(map(sorted, {frozenset(o) for o in orbit_of.values()}))
    order = sum(cls.size for cls in classes)
    if order != math.prod(math.factorial(len(o)) for o in orbits):
        raise ArithmeticInvariantError(
            f"relative Weyl group of order {order} is not the product of the "
            "symmetric groups of its orbits on the Levi's blocks"
        )
    labels = tuple(tuple(_cycle_type_on(bp, o) for o in orbits) for bp in perms)
    if len(set(labels)) != len(labels):
        raise ArithmeticInvariantError("two relative Weyl classes have one cycle type")
    return ("symmetric_product", tuple(len(o) for o in orbits)), labels


def gl_block_sizes(n, subset):
    """Block sizes of the GL_n Levi whose simple roots are ``subset``: the
    root e_a - e_{a+1} for each a in ``subset`` joins coordinates a, a+1."""
    sizes = []
    start = 0
    cut = set(range(n - 1)) - set(subset)
    for i in sorted(cut):
        sizes.append(i + 1 - start)
        start = i + 1
    sizes.append(n - start)
    return tuple(sizes)


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


def _dihedral_structure(perm_of, classes):
    """Detect a dihedral group of order 2m (m >= 2): a cyclic subgroup of
    index 2 inverted by an outside involution.  ``perm_of`` maps each
    matrix to its root permutation."""
    order = len(perm_of)
    if order % 2 or order < 4:
        return None
    m = order // 2
    for r, pr in perm_of.items():
        if _perm_order(pr) != m:
            continue
        rotations = _perm_powers(pr)
        powers = {p: k for k, p in enumerate(rotations)}
        r_inv = _perm_inverse(pr)
        for t, pt in perm_of.items():
            if pt in powers or _compose(pt, pt) != rotations[0]:
                continue
            # t is an involution, so t r t^-1 = t r t; the m rotations and
            # the m elements r^k t are then the whole group
            if _compose(_compose(pt, pr), pt) != r_inv:
                continue
            labels = tuple(
                _dihedral_class_label(perm_of[cls.rep], powers, pt, m)
                for cls in classes
            )
            return ("dihedral", m), labels
    return None


def _dihedral_class_label(rep, powers, t, m):
    """Class label for D_m = <r, t | r^m, t^2, trt=r^-1>: rotations "r{k}"
    with 0 <= k <= m/2, reflections "t0"/"t1" by the parity of k in r^k t
    (a single class "t0" for odd m).  ``powers`` maps r^k to k."""
    if rep in powers:
        k = powers[rep]
        return f"r{min(k, (m - k) % m)}"
    k = powers[_compose(rep, t)]  # rep t^-1 = rep t
    return "t0" if (m % 2 or k % 2 == 0) else "t1"


def _cyclic_structure(perm_of, classes):
    order = len(perm_of)
    for g, pg in perm_of.items():
        if _perm_order(pg) == order:
            powers = {p: k for k, p in enumerate(_perm_powers(pg))}
            labels = tuple(
                f"g{min(powers[perm_of[e]] for e in cls.elements)}" for cls in classes
            )
            return ("cyclic", order, g), labels
    return None, None


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


# the smallest rank each classical Cartan builder accepts (others: 0)
MIN_RANK = {"B": 2, "C": 2, "D": 3}

# the exceptional builders make these ranks only
EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

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
        n = int(text[2:])
        if n < 1:
            raise ValueError(f"type GL{n} needs rank at least 1")
        return gl(n)
    twisted = False
    if text.startswith("2"):
        twisted = True
        text = text[1:]
    if not text:
        raise ValueError(f"group label {spec!r} names no Cartan type")
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
    least = MIN_RANK.get(family, 0)
    if n < least:
        raise ValueError(f"type {family}{n} needs rank at least {least}")
    ranks = EXCEPTIONAL_RANKS.get(family)
    if ranks is not None and n not in ranks:
        raise ValueError(
            f"type {family}{n} does not exist "
            f"(ranks of {family}: {', '.join(map(str, ranks))})"
        )
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
