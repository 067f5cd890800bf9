"""
Brute-force oracles over tiny finite fields, independent of the solver.

FiniteGL works in GL_n(F_q) for n <= 3 and prime q in {2, 3} with explicit
matrices, without listing the group.  The two-variable function is obtained
by counting.  For the block upper-triangular parabolic P = L U of a
composition,

    Q(u, v) = (|L^F| |U^F|)^{-1} #{x in G^F : x^{-1} u x in v U^F}
            = |C_G(u)| |u^G ∩ v U^F| / (|L^F| |U^F|),

because x -> x^{-1} u x maps G^F onto the class u^G and each fibre is a
coset of C_G(u).  The class u^G is computed as the orbit of u under
conjugation by a generating set of G^F: the transvections I + E_ij (i != j)
and diag(g, 1, ..., 1) for a generator g of F_q^*.  The test suite
enumerates the group for every supported (n, q) and checks that these
generate all of it.  Each generator is s = I + a E_ij with
s^{-1} = I + b E_ij (i = j = 0 for the diagonal one), so c -> s^{-1} c s is
applied as two elementary operations, not two matrix products: add
a (column i) to column j, then b (row j) to row i.  For a transvection
b = -a; for diag(g, 1, ..., 1) this scales column 0 by g and row 0 by
g^{-1}.  The test suite checks this against the product s^{-1} c s for
every generator and every element of each supported group.
|C_G(u)| = |G^F| / |u^G|, with |G^F| = prod_{k<n} (q^n - q^k), which the
test suite checks against the number of enumerated matrices.

The count is certified against directly computed Harish-Chandra induction:
for every irreducible character psi of L^F,

    |L^F| <psi, Q(u, .)> = (R_L^G psi)(u)
                         = |P^F|^{-1} sum_{x : x u x^{-1} in P} psi(pr_L(x u x^{-1}))
                         = |C_G(u)| |P^F|^{-1} sum_{c in u^G ∩ P} psi(pr_L(c))

using the closed-form character table of GL_2(q) (families U_alpha,
St_alpha, pi_{alpha,beta}, theta_phi) and the linear characters of GL_1(q).

The Gelfand-Graev character Gamma = Ind_U^G psi_reg, for a regular linear
character of the full unipotent radical, gives the scalar-product oracle
<Gamma, Gamma>, again summed over each unipotent class with multiplicity
|C_G(u)|.

Classical one-variable Green polynomials come from Kostka-Foulkes
polynomials, computed by the Lascoux-Schützenberger charge statistic:
K_{nu,lam}(t) = sum_T t^{charge(T)} over the semistandard tableaux T of
shape nu and content lam, and

    Q^lam_mu(q) = q^{n(lam)} sum_nu chi^nu(mu) K_{nu,lam}(q^{-1})

(Macdonald, Symmetric Functions and Hall Polynomials, III.6-7).  This uses
only tableau combinatorics and the Murnaghan-Nakayama rule, never the
Lusztig-Shoji solver it certifies.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iter_product

from .characters import mn_character, partitions
from .cyclo import CycQ
from .qpoly import QPoly
from .springer import n_of_partition, transpose_partition


class OracleError(ArithmeticError):
    """A brute-force cross-check failed."""


# ---------------------------------------------------------------------------
# tiny matrix arithmetic mod p


def _mat_mul(a, b, p):
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) % p for col in cols) for row in a
    )


def _det(m, p):
    n = len(m)
    if n == 1:
        return m[0][0] % p
    if n == 2:
        return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
    (a, b, c), (d, e, f), (g, h, i) = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def jordan_type(u, p):
    """Partition of n from the ranks of (u - 1)^k over F_p."""
    n = len(u)
    m = tuple(tuple((u[i][j] - (1 if i == j else 0)) % p for j in range(n)) for i in range(n))
    ranks = [n]
    power = _identity(n)
    for _ in range(n):
        power = _mat_mul(power, m, p)
        ranks.append(_rank(power, p))
    col = tuple(ranks[k - 1] - ranks[k] for k in range(1, n + 1))
    return transpose_partition(tuple(v for v in col if v))


def _rank(m, p):
    rows = [list(r) for r in m]
    n = len(rows)
    rank = 0
    col = 0
    while rank < n and col < n:
        piv = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def jordan_matrix(lam, n, p):
    """Unipotent n x n representative with Jordan type lam."""
    m = [[0] * n for _ in range(n)]
    pos = 0
    for part in lam:
        for k in range(part):
            m[pos + k][pos + k] = 1
            if k + 1 < part:
                m[pos + k][pos + k + 1] = 1
        pos += part
    return tuple(tuple(row) for row in m)


def generators(n, q):
    """(s, s^{-1}) for a generating set of GL_n(F_q), q prime.

    The transvections I + E_ij (i != j) generate SL_n(F_q); diag(g, 1, ..., 1)
    with g a generator of F_q^* adds every determinant.
    """
    g = next(x for x in range(1, q) if _mult_order(x, q) == q - 1)

    def with_entry(i, j, a):
        m = [list(row) for row in _identity(n)]
        m[i][j] = a
        return tuple(tuple(row) for row in m)

    pairs = [
        (with_entry(i, j, 1), with_entry(i, j, q - 1))
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    pairs.append((with_entry(0, 0, g), with_entry(0, 0, pow(g, -1, q))))
    return tuple(pairs)


def _elementary(s, s_inv):
    """(i, j, a, b) with s = I + a E_ij and s^{-1} = I + b E_ij, for a pair
    of ``generators``; the identity (diag(1) at q = 2) gives a = b = 0."""
    n = len(s)
    i, j = next(
        ((i, j) for i in range(n) for j in range(n) if s[i][j] != (i == j)),
        (0, 0),
    )
    return i, j, s[i][j] - (i == j), s_inv[i][j] - (i == j)


def _conjugate(c, move, p):
    """s^{-1} c s for the generator ``move`` = (i, j, a, b) of ``_elementary``:
    c s adds a (column i) to column j, and s^{-1} (c s) then adds b (row j)
    to row i."""
    i, j, a, b = move
    rows = [list(r) for r in c]
    for r in rows:
        r[j] = (r[j] + a * r[i]) % p
    rows[i] = [(x + b * y) % p for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# the group


def _gl_order(n, q):
    return math.prod(q**n - q**k for k in range(n))


class FiniteGL:
    """GL_n(F_q) through its matrices and generators (n <= 3, q in {2, 3})."""

    def __init__(self, n: int, q: int):
        if n > 3 or q not in (2, 3):
            raise ValueError("oracle supports n <= 3 and q in {2, 3}")
        self.n, self.q = n, q
        self._moves = tuple(_elementary(s, s_inv) for s, s_inv in generators(n, q))
        self._classes = {}  # matrix -> its conjugacy class

    @property
    def order(self) -> int:
        """|GL_n(F_q)| = prod_{k<n} (q^n - q^k), counting the choices of
        each column outside the span of the previous ones."""
        return _gl_order(self.n, self.q)

    def mul(self, a, b):
        return _mat_mul(a, b, self.q)

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_class(self, m) -> frozenset:
        """The orbit of m under conjugation, as the closure of {m} under
        conjugation by the generating set of ``generators``."""
        cls = self._classes.get(m)
        if cls is None:
            seen = {m}
            frontier = [m]
            while frontier:
                c = frontier.pop()
                for move in self._moves:
                    d = _conjugate(c, move, self.q)
                    if d not in seen:
                        seen.add(d)
                        frontier.append(d)
            cls = frozenset(seen)
            self._classes[m] = cls
        return cls

    def centralizer_order(self, m) -> int:
        return self.order // len(self.conjugacy_class(m))

    def unipotent_class_sizes(self):
        """{partition: number of unipotent elements of that Jordan type}."""
        n, q = self.n, self.q
        return {
            lam: len(self.conjugacy_class(jordan_matrix(lam, n, q)))
            for lam in partitions(n)
        }

    # -- parabolic data ------------------------------------------------------

    def _blocks(self, composition):
        if sum(composition) != self.n:
            raise ValueError("composition does not sum to n")
        spans = []
        start = 0
        for s in composition:
            spans.append(range(start, start + s))
            start += s
        return spans

    def radical_elements(self, composition):
        """The unipotent radical of the block upper-triangular parabolic."""
        spans = self._blocks(composition)
        above = [
            (i, j)
            for bi, si in enumerate(spans)
            for bj, sj in enumerate(spans)
            if bj > bi
            for i in si
            for j in sj
        ]
        out = []
        for flat in _iter_product(range(self.q), repeat=len(above)):
            m = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]
            for (i, j), v in zip(above, flat):
                m[i][j] = v
            out.append(tuple(tuple(row) for row in m))
        return tuple(out)

    def in_parabolic(self, m, composition) -> bool:
        spans = self._blocks(composition)
        block_of = {}
        for b, span in enumerate(spans):
            for i in span:
                block_of[i] = b
        return all(
            m[i][j] == 0
            for i in range(self.n)
            for j in range(self.n)
            if block_of[i] > block_of[j]
        )

    def levi_part(self, m, composition):
        spans = self._blocks(composition)
        blocks = []
        for span in spans:
            blocks.append(tuple(tuple(m[i][j] for j in span) for i in span))
        return tuple(blocks)

    def levi_order(self, composition) -> int:
        """|L^F|, the product of the orders of the blocks' GL_s(F_q)."""
        return math.prod(_gl_order(s, self.q) for s in composition)

    def levi_embed(self, blocks, composition):
        spans = self._blocks(composition)
        m = [[0] * self.n for _ in range(self.n)]
        for span, g in zip(spans, blocks):
            for a, i in enumerate(span):
                for b, j in enumerate(span):
                    m[i][j] = g[a][b]
        return tuple(tuple(row) for row in m)

    # -- the counted two-variable function -----------------------------------

    def hc_two_var(self, composition, u_partition, v_partitions) -> Fraction:
        """(|L^F| |U^F|)^{-1} #{x : x^{-1} u x in v U^F}.

        ``u_partition`` is the Jordan type of u in G; ``v_partitions`` the
        per-block Jordan types of the unipotent v in L.  The count is
        |C_G(u)| |u^G ∩ v U^F| by orbit-stabilizer.
        """
        u = jordan_matrix(u_partition, self.n, self.q)
        v = self.levi_embed(
            [jordan_matrix(lam, s, self.q) for lam, s in zip(v_partitions, composition)],
            composition,
        )
        radical = self.radical_elements(composition)
        target = {self.mul(v, r) for r in radical}
        count = self.centralizer_order(u) * len(self.conjugacy_class(u) & target)
        return Fraction(count, self.levi_order(composition) * len(radical))

    # -- certification against Harish-Chandra induction ----------------------

    def certify_hc(self, composition):
        """Check |L^F| <psi, Q(u, .)> = (R_L^G psi)(u) for all irreducible
        psi of L^F and all unipotent classes u; raise OracleError on failure.
        """
        if max(composition) > 2:
            raise OracleError("certification needs block sizes at most 2")
        spans = self._blocks(composition)
        psis = _levi_irreducibles(composition, self.q)
        radical = self.radical_elements(composition)
        parabolic_order = self.levi_order(composition) * len(radical)
        levi_unip = [
            tuple(lams)
            for lams in _iter_product(*[partitions(s) for s in composition])
        ]
        # class sizes of unipotent classes inside L^F
        levi_factors = [FiniteGL(len(s), self.q) for s in spans]
        for u_lam in partitions(self.n):
            u = jordan_matrix(u_lam, self.n, self.q)
            # Levi projections of the parabolic-valued conjugates; each
            # class member is x u x^{-1} for |C_G(u)| elements x
            projections = [
                self.levi_part(c, composition)
                for c in self.conjugacy_class(u)
                if self.in_parabolic(c, composition)
            ]
            q_values = {
                v_lams: self.hc_two_var(composition, u_lam, v_lams)
                for v_lams in levi_unip
            }
            v_sizes = {
                v_lams: math.prod(
                    f.unipotent_class_sizes()[lam]
                    for f, lam in zip(levi_factors, v_lams)
                )
                for v_lams in levi_unip
            }
            for psi in psis:
                lhs = CycQ(0)
                for v_lams in levi_unip:
                    reps = tuple(
                        jordan_matrix(lam, s, self.q)
                        for lam, s in zip(v_lams, composition)
                    )
                    lhs = lhs + psi(reps) * CycQ(
                        Fraction(v_sizes[v_lams]) * q_values[v_lams]
                    )
                rhs = CycQ(0)
                for blocks in projections:
                    rhs = rhs + psi(blocks)
                rhs = rhs * CycQ(
                    Fraction(self.centralizer_order(u), parabolic_order)
                )
                if lhs != rhs:
                    raise OracleError(
                        f"HC certification fails: composition {composition}, "
                        f"u {u_lam}: {lhs} != {rhs}"
                    )
        return True

    # -- Gelfand-Graev -------------------------------------------------------

    def gg_inner_product(self) -> CycQ:
        """<Gamma, Gamma> for Gamma = Ind_U^G of a regular character of U."""
        q = self.q
        radical = self.radical_elements(tuple([1] * self.n))

        def psi(m) -> CycQ:
            s = sum(m[i][i + 1] for i in range(self.n - 1)) % q
            return CycQ.zeta(q, s) if s else CycQ(1)

        u_set = set(radical)
        total = CycQ(0)
        for lam in partitions(self.n):
            rep = jordan_matrix(lam, self.n, q)
            cls = self.conjugacy_class(rep)
            gamma = CycQ(0)
            for c in cls:
                if c in u_set:
                    gamma = gamma + psi(c)
            gamma = gamma * CycQ(Fraction(self.centralizer_order(rep), len(radical)))
            total = total + gamma * gamma.conjugate() * CycQ(len(cls))
        return total * CycQ(Fraction(1, self.order))


# ---------------------------------------------------------------------------
# character tables of the tiny Levi factors


class _FieldExt:
    """F_{q^2} = F_q[t]/(t^2 - c1 t - c0), with discrete logarithms."""

    MODULI = {2: (1, 1), 3: (0, 2)}  # t^2 = c1 t + c0

    def __init__(self, q: int):
        self.q = q
        self.c1, self.c0 = self.MODULI[q]
        self.elements = [
            (a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)
        ]
        gen = next(g for g in self.elements if self._order(g) == q * q - 1)
        self.dlog = {}
        z = (1, 0)
        for k in range(q * q - 1):
            self.dlog[z] = k
            z = self.mul(z, gen)

    def mul(self, x, y):
        q, c1, c0 = self.q, self.c1, self.c0
        a, b = x
        c, d = y
        hi = b * d
        return ((a * c + hi * c0) % q, (a * d + b * c + hi * c1) % q)

    def _order(self, x):
        k, z = 1, x
        while z != (1, 0):
            z = self.mul(z, x)
            k += 1
        return k

    def frobenius(self, x):
        out = (1, 0)
        for _ in range(self.q):
            out = self.mul(out, x)
        return out


def gl1_characters(q: int):
    """The q - 1 linear characters of GL_1(F_q), as functions of 1x1 blocks."""
    group = sorted(x for x in range(1, q))
    gen = next(g for g in group if _mult_order(g, q) == q - 1)
    dlog = {}
    z = 1
    for k in range(q - 1):
        dlog[z] = k
        z = (z * gen) % q
    chars = []
    for j in range(q - 1):
        def chi(m, j=j, dlog=dlog, q=q):
            x = m[0][0] % q
            e = (j * dlog[x]) % (q - 1)
            return CycQ.zeta(q - 1, e) if e else CycQ(1)

        chars.append(chi)
    return chars


def _mult_order(g, q):
    k, z = 1, g % q
    while z != 1:
        z = (z * g) % q
        k += 1
    return k


def _gl2_class(m, q, ext: _FieldExt):
    tr = (m[0][0] + m[1][1]) % q
    det = _det(m, q)
    roots = [x for x in range(q) if (x * x - tr * x + det) % q == 0]
    if len(roots) == 2:
        return ("split", roots[0], roots[1])
    if len(roots) == 1:
        x = roots[0]
        scalar = m == ((x, 0), (0, x))
        return ("scalar", x) if scalar else ("nonsemisimple", x)
    for w in ext.elements:
        lhs = ext.mul(w, w)
        rhs_t = ext.mul((tr % q, 0), w)
        rhs = ((rhs_t[0] - det) % q, rhs_t[1] % q)
        if lhs == rhs:
            return ("anisotropic", w)
    raise OracleError("characteristic polynomial has no root in F_{q^2}")


def gl2_characters(q: int):
    """The closed-form irreducible characters of GL_2(F_q)."""
    ext = _FieldExt(q)
    n1 = q - 1
    n2 = q * q - 1

    def a_val(j, x):  # alpha_j(x) for x in F_q^*
        e = (j * _fq_dlog(q)[x]) % n1
        return CycQ.zeta(n1, e) if e else CycQ(1)

    def phi_val(j, w):  # phi_j(w) for w in F_{q^2}^*
        e = (j * ext.dlog[w]) % n2
        return CycQ.zeta(n2, e) if e else CycQ(1)

    def embed(x):
        return (x % q, 0)

    chars = []
    for j in range(n1):  # U_alpha: alpha(det)
        def u_alpha(m, j=j):
            kind = _gl2_class(m, q, ext)
            if kind[0] in ("scalar", "nonsemisimple"):
                return a_val(j, kind[1]) * a_val(j, kind[1])
            if kind[0] == "split":
                return a_val(j, kind[1]) * a_val(j, kind[2])
            w = kind[1]
            norm = ext.mul(w, ext.frobenius(w))
            return a_val(j, norm[0])

        chars.append(u_alpha)
    for j in range(n1):  # St tensor U_alpha, degree q
        def st_alpha(m, j=j):
            kind = _gl2_class(m, q, ext)
            if kind[0] == "scalar":
                return CycQ(q) * a_val(j, kind[1]) * a_val(j, kind[1])
            if kind[0] == "nonsemisimple":
                return CycQ(0)
            if kind[0] == "split":
                return a_val(j, kind[1]) * a_val(j, kind[2])
            w = kind[1]
            norm = ext.mul(w, ext.frobenius(w))
            return -a_val(j, norm[0])

        chars.append(st_alpha)
    for j1 in range(n1):  # principal series pi_{alpha,beta}, degree q + 1
        for j2 in range(j1 + 1, n1):
            def prin(m, j1=j1, j2=j2):
                kind = _gl2_class(m, q, ext)
                if kind[0] == "scalar":
                    return CycQ(q + 1) * a_val(j1, kind[1]) * a_val(j2, kind[1])
                if kind[0] == "nonsemisimple":
                    return a_val(j1, kind[1]) * a_val(j2, kind[1])
                if kind[0] == "split":
                    x, y = kind[1], kind[2]
                    return a_val(j1, x) * a_val(j2, y) + a_val(j1, y) * a_val(j2, x)
                return CycQ(0)

            chars.append(prin)
    seen = set()
    for j in range(n2):  # cuspidal theta_phi, degree q - 1, phi^q != phi
        jq = (j * q) % n2
        if jq == j or j in seen:
            continue
        seen.add(j)
        seen.add(jq)

        def cusp(m, j=j):
            kind = _gl2_class(m, q, ext)
            if kind[0] == "scalar":
                return CycQ(q - 1) * phi_val(j, embed(kind[1]))
            if kind[0] == "nonsemisimple":
                return -phi_val(j, embed(kind[1]))
            if kind[0] == "split":
                return CycQ(0)
            w = kind[1]
            return -(phi_val(j, w) + phi_val(j, ext.frobenius(w)))

        chars.append(cusp)
    return chars


@lru_cache(maxsize=None)
def _fq_dlog(q: int):
    gen = next(g for g in range(1, q) if _mult_order(g, q) == q - 1)
    dlog = {}
    z = 1
    for k in range(q - 1):
        dlog[z] = k
        z = (z * gen) % q
    return dlog


def _levi_irreducibles(composition, q):
    """Irreducible characters of the Levi L^F, as functions of block tuples."""
    per_block = []
    for s in composition:
        if s == 1:
            per_block.append(gl1_characters(q))
        elif s == 2:
            per_block.append(gl2_characters(q))
        else:
            raise OracleError("characters available only for blocks of size <= 2")
    out = []
    for combo in _iter_product(*per_block):
        def psi(blocks, combo=combo):
            v = CycQ(1)
            for chi, blk in zip(combo, blocks):
                v = v * chi(blk)
            return v

        out.append(psi)
    return out


# ---------------------------------------------------------------------------
# classical Green polynomials via Kostka-Foulkes charge


def _horizontal_strips(lengths, shape, k, i=0):
    """Row increments adding k boxes to the row lengths as a horizontal
    strip inside shape."""
    if i == len(shape):
        if k == 0:
            yield ()
        return
    room = shape[i] - lengths[i]
    if i:
        room = min(room, lengths[i - 1] - lengths[i])
    for a in range(min(room, k) + 1):
        for rest in _horizontal_strips(lengths, shape, k - a, i + 1):
            yield (a,) + rest


def _tableaux(shape, content):
    """Semistandard tableaux of the given shape and content, as row tuples:
    the boxes holding each letter form a horizontal strip."""
    tableaux = [tuple(() for _ in shape)]
    for letter, k in enumerate(content, 1):
        tableaux = [
            tuple(r + (letter,) * a for r, a in zip(rows, strip))
            for rows in tableaux
            for strip in _horizontal_strips([len(r) for r in rows], shape, k)
        ]
    return tableaux


def _charge(word) -> int:
    """Lascoux-Schützenberger charge of a word of partition content.

    Each standard subword takes 1, 2, ... in turn, scanning leftwards from
    the right end and cycling back to the right end when needed.  Its index
    starts at 0 and goes up by one at each cycling back; the charge is the
    sum of the indices over all subwords (see Macdonald III.6).
    """
    word = list(word)
    total = 0
    while word:
        picked = []
        pos, index, letter = len(word), 0, 1
        while letter in word:
            left = [p for p in range(pos) if word[p] == letter]
            if left:
                pos = left[-1]
            else:
                pos = max(p for p, x in enumerate(word) if x == letter)
                index += 1
            total += index
            picked.append(pos)
            letter += 1
        word = [x for p, x in enumerate(word) if p not in picked]
    return total


@lru_cache(maxsize=None)
def kostka_foulkes(nu: tuple, lam: tuple) -> QPoly:
    """K_{nu,lam}(t), as a QPoly in t: the sum of t^charge over the
    semistandard tableaux of shape nu and content lam, each read row by row
    from the bottom, left to right."""
    if sum(nu) != sum(lam):
        raise ValueError("partitions have different sizes")
    coeffs = [0] * (n_of_partition(lam) + 1)
    for rows in _tableaux(nu, lam):
        coeffs[_charge(x for row in reversed(rows) for x in row)] += 1
    return QPoly(coeffs)


@lru_cache(maxsize=None)
def green_polynomial(lam: tuple, mu: tuple) -> QPoly:
    """Q^lam_mu(q), the classical Green polynomial of GL_n:

        Q^lam_mu(q) = q^{n(lam)} sum_nu chi^nu(mu) K_{nu,lam}(q^{-1})

    (Macdonald III.7), with chi^nu(mu) by the Murnaghan-Nakayama rule.

    >>> from greenfn.qpoly import render_poly
    >>> render_poly(green_polynomial((1, 1), (1, 1)))
    'Phi2'
    """
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("partitions have different sizes")
    top = n_of_partition(lam)
    coeffs = [0] * (top + 1)
    for nu in partitions(n):
        chi = mn_character(nu, mu)
        for c, k in enumerate(kostka_foulkes(nu, lam).coeffs):
            coeffs[top - c] += chi * k
    return QPoly(coeffs)
