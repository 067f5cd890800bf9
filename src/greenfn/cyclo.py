"""
Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as a vector of rational coordinates with respect to the
power basis 1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), i.e. the basis obtained
by reducing modulo the N-th cyclotomic polynomial.  On construction the
conductor is minimized (N is never congruent to 2 mod 4 and no proper
subfield contains the element), so equality and hashing are structural.

Arithmetic between elements of different conductors promotes both to the lcm
conductor and canonicalizes the result back down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Rat = Fraction

# ---------------------------------------------------------------------------
# small number-theoretic helpers


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def int_poly_quotient(num, den) -> list[int] | None:
    """num / den for integer polynomials (dense, constant term first) with den
    monic, or None if den does not divide num."""
    num = list(num)
    out = [0] * max(0, len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = num[i + len(den) - 1]
        if c:
            for j, d in enumerate(den):
                if d:
                    num[i + j] -= c * d
    return None if any(num) else out


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    >>> cyclotomic_int_coeffs(1)
    (-1, 1)
    >>> cyclotomic_int_coeffs(6)
    (1, -1, 1)
    """
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in divisors(n):
        if d != n:
            poly = int_poly_quotient(poly, cyclotomic_int_coeffs(d))
            assert poly is not None, "non-exact polynomial division"
    return tuple(poly)


# ---------------------------------------------------------------------------


def _reduce_mod_cyclotomic(n: int, dense: list[Rat]) -> tuple[Rat, ...]:
    """Reduce a polynomial in zeta_n (dense coefficient list) mod Phi_n."""
    phi = cyclotomic_int_coeffs(n)
    deg = len(phi) - 1
    dense = list(dense)
    if len(dense) < deg:
        dense += [Rat(0)] * (deg - len(dense))
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            for j in range(deg + 1):
                dense[i - deg + j] -= c * phi[j]
    return tuple(dense[:deg])


def _poly_extended_gcd(a: list[Rat], b: list[Rat]) -> tuple[list[Rat], list[Rat]]:
    """Return (g, s) with s*a = g mod b, g a gcd of a and b, over Q."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def polydivmod(num, den):
        num = list(num)
        q = [Rat(0)] * max(0, len(num) - len(den) + 1)
        for i in range(len(q) - 1, -1, -1):
            c = num[i + len(den) - 1] / den[-1]
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
        return q, trim(num)

    r0, r1 = trim(list(a)), trim(list(b))
    s0, s1 = [Rat(1)], []
    while r1:
        q, r = polydivmod(r0, r1)
        r0, r1 = r1, r
        qs = [Rat(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                qs[i + j] += qc * sc
        ln = max(len(s0), len(qs))
        s0, s1 = s1, trim([ (s0[i] if i < len(s0) else Rat(0)) - (qs[i] if i < len(qs) else Rat(0)) for i in range(ln) ])
    return r0, s0


class CycQ:
    """An element of a cyclotomic field, in canonical (minimal-conductor) form.

    >>> CycQ.zeta(3) + CycQ.zeta(3, 2)
    CycQ(-1)
    >>> CycQ.zeta(8).conjugate() * CycQ.zeta(8)
    CycQ(1)
    """

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, value: int | Rat | "CycQ" = 0):
        if isinstance(value, CycQ):
            self.n, self.coeffs = value.n, value.coeffs
        else:
            self.n, self.coeffs = 1, (Rat(value),)
        self._hash = None

    # -- construction -------------------------------------------------------

    @classmethod
    def _make(cls, n: int, coeffs) -> "CycQ":
        """Build from reduced coordinates mod Phi_n, minimizing the conductor."""
        n, coeffs = _canonicalize(n, tuple(coeffs))
        self = object.__new__(cls)
        self.n, self.coeffs, self._hash = n, coeffs, None
        return self

    @classmethod
    def _rat(cls, value: Rat) -> "CycQ":
        """Wrap a Fraction that is already in canonical form (conductor 1)."""
        self = object.__new__(cls)
        self.n, self.coeffs, self._hash = 1, (value,), None
        return self

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CycQ":
        """The root of unity zeta_n^k = exp(2*pi*i*k/n)."""
        if n <= 0:
            raise ValueError("conductor must be positive")
        k %= n
        dense = [Rat(0)] * (k + 1)
        dense[k] = Rat(1)
        return cls._make(n, _reduce_mod_cyclotomic(n, dense))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.n == 1:
            return not self.coeffs[0]
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Rat:
        if self.n != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_cyclotomic_integer(self) -> bool:
        """Whether all coordinates in the power basis are integers."""
        return all(c.denominator == 1 for c in self.coeffs)

    # -- promotion ----------------------------------------------------------

    def _promote(self, n: int) -> tuple[Rat, ...]:
        """Coordinates of self in Q(zeta_n); requires self.n | n."""
        if n == self.n:
            return self.coeffs
        step = n // self.n
        dense = [Rat(0)] * ((len(self.coeffs) - 1) * step + 1 if self.coeffs else 1)
        for i, c in enumerate(self.coeffs):
            dense[i * step] += c
        return _reduce_mod_cyclotomic(n, dense)

    @staticmethod
    def _pair(a: "CycQ", b: "CycQ"):
        n = a.n * b.n // gcd(a.n, b.n)
        return n, a._promote(n), b._promote(n)

    # -- arithmetic ---------------------------------------------------------
    #
    # Operands that are both rational (conductor 1) are combined as Fractions
    # and wrapped directly: the result is already canonical.

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return CycQ._rat(self.coeffs[0] + other.coeffs[0])
        n, x, y = self._pair(self, other)
        return CycQ._make(n, tuple(a + b for a, b in zip(x, y)))

    __radd__ = __add__

    def __neg__(self):
        if self.n == 1:
            return CycQ._rat(-self.coeffs[0])
        return CycQ._make(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return CycQ._rat(self.coeffs[0] - other.coeffs[0])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return CycQ._rat(self.coeffs[0] * other.coeffs[0])
        n, x, y = self._pair(self, other)
        dense = [Rat(0)] * (len(x) + len(y) - 1 if x and y else 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        dense[i + j] += a * b
        return CycQ._make(n, _reduce_mod_cyclotomic(n, dense))

    __rmul__ = __mul__

    def inverse(self) -> "CycQ":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in CycQ")
        if self.n == 1:
            return CycQ(1 / self.coeffs[0])
        phi = [Rat(c) for c in cyclotomic_int_coeffs(self.n)]
        g, s = _poly_extended_gcd(list(self.coeffs), phi)
        # g is a nonzero constant since Phi_n is irreducible over Q
        inv = [c / g[0] for c in s]
        return CycQ._make(self.n, _reduce_mod_cyclotomic(self.n, inv))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = CycQ(1), self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    # -- Galois action ------------------------------------------------------

    def galois(self, a: int) -> "CycQ":
        """Apply the automorphism zeta_n -> zeta_n^a (a coprime to n)."""
        if gcd(a % self.n, self.n) != 1:
            raise ValueError("automorphism index not coprime to conductor")
        dense = [Rat(0)] * self.n
        for i, c in enumerate(self.coeffs):
            dense[(i * a) % self.n] += c
        return CycQ._make(self.n, _reduce_mod_cyclotomic(self.n, dense))

    def conjugate(self) -> "CycQ":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.coeffs))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- display ------------------------------------------------------------

    def __str__(self):
        if self.n == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            z = f"z{self.n}" if i == 1 else f"z{self.n}^{i}"
            if c == 1:
                term = z
            elif c == -1:
                term = "-" + z
            else:
                term = f"{c}*{z}"
            parts.append(term if not parts or term.startswith("-") else "+" + term)
        out = ""
        for p in parts:
            out += p if not out or p.startswith(("+", "-")) else "+" + p
        return out or "0"

    def __repr__(self):
        return f"CycQ({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        if self.n == 1:
            return str(self.coeffs[0])
        return {"conductor": self.n, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, doc) -> "CycQ":
        if isinstance(doc, (str, int)):
            return cls(Rat(doc))
        return cls._make(doc["conductor"], tuple(Rat(c) for c in doc["coeffs"]))


def _coerce(value):
    if isinstance(value, CycQ):
        return value
    if isinstance(value, (int, Fraction)):
        return CycQ(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# canonicalization: push an element into the smallest cyclotomic field


def _canonicalize(n: int, coeffs: tuple[Rat, ...]) -> tuple[int, tuple[Rat, ...]]:
    if all(c == 0 for c in coeffs[1:]):
        return 1, (coeffs[0] if coeffs else Rat(0),)
    if n % 4 == 2:
        # zeta_{2m} = -zeta_m^{(m+1)/2} for odd m; rewrite and retry
        m = n // 2
        dense = [Rat(0)] * m
        for i, c in enumerate(coeffs):
            if c:
                j = (i * ((m + 1) // 2)) % m
                dense[j] += c if i % 2 == 0 else -c
        return _canonicalize(m, _reduce_mod_cyclotomic(m, dense))
    for p in prime_factors(n):
        m = n // p
        sub = _descend(n, coeffs, m)
        if sub is not None:
            return _canonicalize(m, sub)
    return n, coeffs


def _descend(n: int, coeffs: tuple[Rat, ...], m: int):
    """Coordinates in Q(zeta_m) if the element lies there, else None (m | n)."""
    if n == 1 or m == n:
        return coeffs
    # Galois-fixedness under Gal(Q(zeta_n)/Q(zeta_m)) = {a = 1 mod m}
    for a in range(1 + m, n, m):
        if gcd(a, n) != 1:
            continue
        dense = [Rat(0)] * n
        for i, c in enumerate(coeffs):
            dense[(i * a) % n] += c
        if _reduce_mod_cyclotomic(n, dense) != coeffs:
            return None
    # express in the subfield basis: solve sum_j c_j zeta_n^(j*n/m) = element
    deg_m, deg_n, step = totient(m), totient(n), n // m
    cols = []
    for j in range(deg_m):
        dense = [Rat(0)] * (j * step + 1)
        dense[j * step] = Rat(1)
        cols.append(_reduce_mod_cyclotomic(n, dense))
    # Gaussian elimination on the deg_n x deg_m system
    aug = [[cols[j][i] for j in range(deg_m)] + [coeffs[i]] for i in range(deg_n)]
    sol = _solve_overdetermined(aug, deg_m)
    return None if sol is None else tuple(sol)


def _solve_overdetermined(aug: list[list[Rat]], ncols: int):
    rows, pivots, r = len(aug), [], 0
    for col in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][col] != 0), None)
        if piv is None:
            pivots.append(None)
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(r)
        r += 1
    for i in range(r, rows):
        if aug[i][ncols] != 0:
            return None
    sol = [Rat(0)] * ncols
    for col, piv in enumerate(pivots):
        if piv is not None:
            sol[col] = aug[piv][ncols]
        # a free column with nonzero requirement cannot occur: basis is independent
    return sol


ZERO = CycQ(0)
