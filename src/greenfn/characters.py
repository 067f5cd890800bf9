"""
Class functions and character tables on twisted Weyl cosets.

A CosetClassFunction stores one value per twisted conjugacy class of a
TwistedCoset; the Hermitian pairing is

    <f, g> = |W|^{-1} * sum_{w in W} f(wF) * conjugate(g(wF)).

Induction and restriction between cosets with one twist read only class
representatives, class sizes and the class fusion of ``rootdata``: a class
of the subcoset lies in the class of the big coset that holds its
representative.

Character tables are computed from the structure tag detected on the coset:
products of symmetric groups via the Murnaghan-Nakayama rule, dihedral and
cyclic groups from closed formulae.  For a split coset (``TwistedCoset.split``:
the twist fixes every element) these are the ordinary tables; the extension
convention to a genuinely twisted coset would have to come from a data pack,
and requesting a table in that situation raises DataPackRequired.  Nothing
here reads a Weyl element or the twist itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .cyclo import CycQ
from .rootdata import TwistedCoset, class_fusion


class DataPackRequired(ValueError):
    """Raised when a computation needs data not derivable in this build."""


# ---------------------------------------------------------------------------
# class functions


@dataclass(frozen=True)
class CosetClassFunction:
    """A class function on a twisted coset: one value per twisted class."""

    coset: TwistedCoset
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.coset.classes):
            raise ValueError("value count does not match class count")


def _same_coset(f, g):
    if f.coset is not g.coset and f.coset != g.coset:
        raise ValueError("class functions live on different cosets")


def inner_product(f: CosetClassFunction, g: CosetClassFunction):
    """<f, g> = |W|^{-1} sum_w f(w) conj(g(w)), exact."""
    return weighted_pairing(f, g, None)


def weighted_pairing(f, g, weight):
    """|W|^{-1} sum_w weight(w) f(w) conj(g(w)); weight = None means 1."""
    _same_coset(f, g)
    coset = f.coset
    total = None
    for i, cls in enumerate(coset.classes):
        term = f.values[i] * g.values[i].conjugate() * Fraction(cls.size)
        if weight is not None:
            term = term * weight.values[i]
        total = term if total is None else total + term
    return total * Fraction(1, coset.order)


def trivial_character(coset: TwistedCoset) -> CosetClassFunction:
    return CosetClassFunction(coset, tuple(CycQ(1) for _ in coset.classes))


# ---------------------------------------------------------------------------
# induction / restriction


def restrict(g: CosetClassFunction, sub: TwistedCoset) -> CosetClassFunction:
    """Restriction along an inclusion of cosets with the same twist: each
    class of ``sub`` takes the value of the class it fuses into."""
    fusion = class_fusion(sub, g.coset)
    return CosetClassFunction(sub, tuple(g.values[i] for i, _ in fusion))


def induce(f: CosetClassFunction, big: TwistedCoset) -> CosetClassFunction:
    """Coset induction: (Ind f)(C) = |W_L|^{-1} (|W_G|/|C|) sum_c |c| f(c), the
    sum over the classes c of W_L fused into C (``class_fusion``)."""
    sub = f.coset
    totals = [CycQ(0)] * len(big.classes)
    for (i, _), cls, v in zip(class_fusion(sub, big), sub.classes, f.values):
        totals[i] = totals[i] + v * Fraction(cls.size)
    return CosetClassFunction(
        big,
        tuple(
            total * Fraction(big.order, sub.order * cls.size)
            for total, cls in zip(totals, big.classes)
        ),
    )


# ---------------------------------------------------------------------------
# character tables


@dataclass(frozen=True)
class CharacterTable:
    coset: TwistedCoset
    characters: tuple  # CosetClassFunctions
    labels: tuple

    def __post_init__(self):
        if len(self.characters) != len(self.coset.classes):
            raise ValueError("table is not square")

    def character(self, label) -> CosetClassFunction:
        return self.characters[self.labels.index(label)]


def character_table(coset: TwistedCoset) -> CharacterTable:
    """Character table dispatched on the detected structure of the coset.

    Supported: trivial groups, products of symmetric groups (split cosets),
    dihedral and cyclic groups.  Anything else, or a genuinely twisted coset
    of these, needs an embedded table from a data pack.
    """
    if coset.structure is None:
        raise DataPackRequired("character table: data pack required for this coset")
    kind = coset.structure[0]
    if not coset.split:
        raise DataPackRequired(
            "character table: data pack required for a twisted coset of type "
            + kind
        )
    if kind == "trivial":
        return CharacterTable(coset, (trivial_character(coset),), ("1",))
    if kind == "symmetric_product":
        return _symmetric_product_table(coset)
    if kind == "dihedral":
        return _dihedral_table(coset)
    if kind == "cyclic":
        return _cyclic_table(coset)
    raise DataPackRequired(f"character table: unsupported structure {kind}")


# -- symmetric group products ------------------------------------------------


def partitions(n: int):
    """All partitions of n, descending parts, reverse-lexicographic order.

    >>> partitions(4)[0]
    (4,)
    """
    if n == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


@lru_cache(maxsize=None)
def mn_character(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu) for S_n by the Murnaghan-Nakayama rule."""
    if not lam and not mu:
        return 1
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    k = mu[0]
    rest = mu[1:]
    total = 0
    for stripped, height in _border_strips(lam, k):
        total += (-1) ** height * mn_character(stripped, rest)
    return total


def _border_strips(lam, k):
    """All ways to remove a border strip of size k from lam, with heights."""
    out = []
    n_rows = len(lam)
    # a border strip removal is determined by its starting row; use the
    # beta-number formulation: first-column hook lengths
    beta = [lam[i] + (n_rows - 1 - i) for i in range(n_rows)]
    beta_set = set(beta)
    for b in beta:
        if b - k >= 0 and (b - k) not in beta_set:
            new_beta = sorted((beta_set - {b}) | {b - k}, reverse=True)
            new_lam = [new_beta[i] - (n_rows - 1 - i) for i in range(n_rows)]
            if any(v < 0 for v in new_lam):
                continue
            height = sum(1 for c in beta if b - k < c < b)
            out.append((tuple(v for v in new_lam if v > 0), height))
    return out


def _symmetric_product_table(coset: TwistedCoset) -> CharacterTable:
    counts = coset.structure[1]  # orbit sizes of the block action
    irrep_labels = list(product(*[partitions(c) for c in counts]))
    chars = []
    for lam_tuple in irrep_labels:
        vals = []
        for class_label in coset.class_labels:
            v = 1
            for lam, mu in zip(lam_tuple, class_label):
                v *= mn_character(lam, mu)
            vals.append(CycQ(v))
        chars.append(CosetClassFunction(coset, tuple(vals)))
    return CharacterTable(coset, tuple(chars), tuple(irrep_labels))


# -- dihedral groups ---------------------------------------------------------


def _dihedral_table(coset: TwistedCoset) -> CharacterTable:
    """Character table of D_m (order 2m) on classes labeled r{k}, t0, t1."""
    m = coset.structure[1]
    labels_by_class = coset.class_labels
    chars, labels = [], []

    def build(fn, label):
        chars.append(
            CosetClassFunction(coset, tuple(fn(l) for l in labels_by_class))
        )
        labels.append(label)

    build(lambda l: CycQ(1), "triv")
    build(lambda l: CycQ(1) if l.startswith("r") else CycQ(-1), "sign")
    if m % 2 == 0:
        build(
            lambda l: CycQ((-1) ** int(l[1:])) if l.startswith("r") else CycQ(1 if l == "t0" else -1),
            "lin+",
        )
        build(
            lambda l: CycQ((-1) ** int(l[1:])) if l.startswith("r") else CycQ(-1 if l == "t0" else 1),
            "lin-",
        )
    for j in range(1, (m + 1) // 2 if m % 2 else m // 2):
        def two_dim(l, j=j):
            if l.startswith("t"):
                return CycQ(0)
            k = int(l[1:])
            return CycQ.zeta(m, (j * k) % m) + CycQ.zeta(m, (-j * k) % m)

        build(two_dim, f"rho{j}")
    return CharacterTable(coset, tuple(chars), tuple(labels))


# -- cyclic groups -----------------------------------------------------------


def _cyclic_table(coset: TwistedCoset) -> CharacterTable:
    n = coset.structure[1]
    chars, labels = [], []
    for j in range(n):
        vals = []
        for l in coset.class_labels:
            k = int(l[1:])
            vals.append(CycQ.zeta(n, (j * k) % n) if j * k % n else CycQ(1))
        chars.append(CosetClassFunction(coset, tuple(vals)))
        labels.append(f"chi{j}")
    return CharacterTable(coset, tuple(chars), tuple(labels))
