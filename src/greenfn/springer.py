"""
Unipotent classes, local systems and blocks: the data substrate for the
generalized Springer correspondence.

The GL_n table is generated from partition combinatorics: classes are
partitions of n in dominance order, component groups are trivial, and the
correspondence matches the trivial local system on the class of Jordan type
lambda with the irreducible character chi^lambda of S_n (regular class <->
trivial character).  Other groups are loaded from curated JSON packs and
validated against the same invariants.

Numerology for GL_n (lambda' the transpose partition, m_i multiplicities):
    dim C_lambda   = n^2 - sum lambda'_j^2
    |Z(u_lambda)^F| = q^{sum lambda'_j^2} prod_i prod_{j<=m_i} (1 - q^{-j})
    c_lambda       = n(lambda) = sum_j binom(lambda'_j, 2)
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iter_product

from .characters import DataPackRequired, character_table, partitions
from .cyclo import CycQ, totient
from .qpoly import ArithmeticInvariantError, PhiParseError, QPoly, parse_phi_string, render_poly
from .rootdata import LeviDatum, RootDatumF, cartan_type, gl, gl_block_sizes


@dataclass(frozen=True)
class UnipotentClass:
    """A geometric unipotent class with its F-rational structure."""

    label: str
    dimension: int
    below: frozenset  # labels of classes strictly smaller in closure order
    component_group: tuple  # invariant factors of A(u); () means trivial
    f_classes: tuple  # labels a of F-classes, one per twisted class of A(u)
    c0_order: QPoly  # |C^0(u_a)^F|, one polynomial for the geometric class

    def leq(self, other: "UnipotentClass") -> bool:
        """closure(self) contained in closure(other)."""
        return self.label == other.label or self.label in other.below


@dataclass(frozen=True)
class LocalSystem:
    """An F-stable local system on a unipotent class."""

    class_label: str
    chi: tuple  # chi(a) as CycQ, aligned with the class's f_classes
    block: int
    c_value: int
    irrep: object  # label of the corresponding irreducible of the block coset
    f_stable: bool = True

    @property
    def key(self):
        return (self.class_label, self.irrep)


@dataclass(frozen=True)
class Block:
    """A block of the correspondence: all systems with fixed cuspidal datum."""

    block_id: int
    levi_subset: tuple  # simple-root subset of the cuspidal Levi L0
    cuspidal_label: str
    y_normalization_assumed: bool = False


class SpringerTable:
    """Everything the Green-function solver needs about one group.

    A table also keeps what is derived from it, each built on first use:
    character tables here, the tables of its standard Levis
    (``twovar.levi_springer_table``), and the solved blocks
    (``green.solved_block``), each with its Green table.  The relative Weyl
    cosets are kept by the group's datum (``RootDatumF.relative_coset``).
    """

    def __init__(self, group: RootDatumF, classes, systems, blocks, induced_map=None):
        self.group = group
        self.classes = tuple(classes)
        self.systems = tuple(systems)
        self.blocks = tuple(blocks)
        self.induced_map = induced_map  # callable or None
        self._by_label = {c.label: c for c in self.classes}
        self._char_tables = {}
        self.levi_tables = {}  # (subset, twist_element) -> SpringerTable
        self.solutions = {}  # block_id -> BlockSolution
        _validate_table(self)

    # -- lookups -------------------------------------------------------------

    def unipotent_class(self, label: str) -> UnipotentClass:
        return self._by_label[label]

    def block_systems(self, block_id: int):
        return tuple(s for s in self.systems if s.block == block_id)

    def block_levi(self, block_id: int) -> LeviDatum:
        blk = self.blocks[block_id]
        return self.group.levi(blk.levi_subset)

    def block_coset(self, block_id: int):
        return self.group.relative_coset(self.block_levi(block_id))

    def block_character_table(self, block_id: int):
        """Character table of the block's relative Weyl coset, built once."""
        if block_id not in self._char_tables:
            self._char_tables[block_id] = character_table(self.block_coset(block_id))
        return self._char_tables[block_id]

    def centralizer_order(self, label: str) -> QPoly:
        cls = self.unipotent_class(label)
        return cls.c0_order * QPoly([math.prod(cls.component_group)])

    def class_size(self, label: str) -> QPoly:
        return self.group.group_order().exact_div(self.centralizer_order(label))

    def regular_label(self) -> str:
        maximal = [
            c for c in self.classes if not any(c.label in d.below for d in self.classes)
        ]
        if len(maximal) != 1:
            raise DataPackRequired("no unique regular class in the table")
        return maximal[0].label

    def induced_class(self, L: LeviDatum, levi_class_label: str) -> str:
        if self.induced_map is None:
            raise DataPackRequired("induced-class map unknown for this group")
        return self.induced_map(L, levi_class_label)


# ---------------------------------------------------------------------------
# validation


def _validate_table(table: SpringerTable):
    G = table.group
    labels = {c.label for c in table.classes}
    if len(labels) != len(table.classes):
        raise DataPackRequired("duplicate class labels")
    for c in table.classes:
        if not c.below <= labels:
            raise DataPackRequired(f"class {c.label}: unknown closure predecessor")
        if c.label in c.below:
            raise DataPackRequired(f"class {c.label}: closure order not strict")
        if c.dimension + c.c0_order.degree() != G.dimension:
            raise DataPackRequired(
                f"class {c.label}: dimension + centralizer degree != dim G"
            )
        # abelian A(u) with trivial F-action: one class per element
        if len(c.f_classes) != math.prod(c.component_group):
            raise DataPackRequired(
                f"class {c.label}: F-class count does not match |H^1(F, A(u))|"
            )
    # closure order: unique maximal (regular) and unique minimal (trivial)
    minimal = [c for c in table.classes if not c.below]
    if len(minimal) != 1:
        raise DataPackRequired("no unique minimal (trivial) class")
    reg = table.regular_label()
    # blocks partition the systems; correspondence is a bijection per block
    seen_keys = set()
    for s in table.systems:
        if s.key in seen_keys:
            raise DataPackRequired(f"duplicate local system {s.key}")
        seen_keys.add(s.key)
        if s.class_label not in labels:
            raise DataPackRequired(f"system on unknown class {s.class_label}")
        if s.block >= len(table.blocks):
            raise DataPackRequired(f"system {s.key}: unknown block")
        cls = table.unipotent_class(s.class_label)
        if len(s.chi) != len(cls.f_classes):
            raise DataPackRequired(f"system {s.key}: chi length mismatch")
    for blk in table.blocks:
        systems = table.block_systems(blk.block_id)
        if not systems:
            raise DataPackRequired(f"block {blk.block_id} is empty")
        reg_support = [s for s in systems if s.class_label == reg]
        if len(reg_support) > 1:
            raise DataPackRequired(
                f"block {blk.block_id}: two systems supported on the regular class"
            )
        tab = table.block_character_table(blk.block_id)
        irreps = [s.irrep for s in systems]
        if sorted(map(repr, irreps)) != sorted(map(repr, tab.labels)):
            raise DataPackRequired(
                f"block {blk.block_id}: correspondence is not a bijection onto "
                "the irreducibles of the relative Weyl group"
            )


# ---------------------------------------------------------------------------
# GL_n generator


def transpose_partition(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def dominates(lam, mu) -> bool:
    """lam >= mu in dominance order (both partitions of the same n)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def partition_label(lam) -> str:
    return "".join(str(p) for p in lam) if lam else "0"


def n_of_partition(lam) -> int:
    return sum(j * p for j, p in enumerate(lam))


def gl_centralizer_order(lam) -> QPoly:
    """|Z_{GL_n(F_q)}(u_lambda)| by the standard multiplicity formula."""
    lt = transpose_partition(lam)
    power = sum(v * v for v in lt)
    mults = {}
    for p in lam:
        mults[p] = mults.get(p, 0) + 1
    out = QPoly.q(power)
    shift = 0
    # prod (1 - q^{-j}) carried as q^{-j}(q^j - 1): collect the q-shift
    for m in mults.values():
        for j in range(1, m + 1):
            out = out * (QPoly.q(j) - 1)
            shift += j
    quo, rem = divmod(out, QPoly.q(shift))
    if not rem.is_zero():
        raise ArithmeticInvariantError("centralizer order not integral")
    return quo


@functools.lru_cache(maxsize=None)
def gl_springer(n: int) -> SpringerTable:
    """The full Springer table of GL_n: one principal block over the torus.

    One table per n is shared by the whole process, so what it keeps (solved
    blocks, Levi tables) is computed once."""
    return _gl_product_table(gl(n), (n,), _gl_induced(n))


def gl_levi_springer(L: LeviDatum) -> SpringerTable:
    """Springer table of a standard Levi of GL_n: a product of GL blocks.

    Classes are tuples of partitions, one per block, labeled by joining the
    per-block labels with commas; the single block sits over the torus and
    its relative Weyl group is the product of the block symmetric groups.
    """
    G = L.parent
    if G.gl_size is None:
        raise DataPackRequired("Levi Springer table: only generated inside GL_n")
    return _gl_product_table(L.as_datum(), gl_block_sizes(G.gl_size, L.subset), None)


def _gl_product_table(datum, sizes, induced_map) -> SpringerTable:
    """The Springer table of GL_{s_1} x ... x GL_{s_k} for the block
    ``sizes``: a class per tuple of partitions (comma-joined labels), closure
    by dominance in each block, and one principal block over the torus."""
    tuples = list(_iter_product(*[partitions(s) for s in sizes]))
    classes = []
    systems = []
    for lams in tuples:
        label = gl_levi_class_label(lams)
        dim = sum(
            s * s - sum(v * v for v in transpose_partition(lam))
            for s, lam in zip(sizes, lams)
        )
        below = frozenset(
            gl_levi_class_label(mus)
            for mus in tuples
            if mus != lams
            and all(dominates(lam, mu) for lam, mu in zip(lams, mus))
        )
        c0 = QPoly([1])
        for lam in lams:
            c0 = c0 * gl_centralizer_order(lam)
        classes.append(
            UnipotentClass(
                label=label,
                dimension=dim,
                below=below,
                component_group=(),
                f_classes=("1",),
                c0_order=c0,
            )
        )
        systems.append(
            LocalSystem(
                class_label=label,
                chi=(CycQ(1),),
                block=0,
                c_value=sum(n_of_partition(lam) for lam in lams),
                irrep=lams,
            )
        )
    blocks = (Block(0, (), "torus/trivial"),)
    return SpringerTable(datum, classes, systems, blocks, induced_map=induced_map)


def _gl_induced(n: int):
    def induced(L: LeviDatum, levi_class_label: str):
        # Levi = product of GL blocks; class label = comma-joined partitions
        sizes = gl_block_sizes(n, L.subset)
        parts = [tuple(int(ch) for ch in piece) for piece in levi_class_label.split(",")]
        if len(parts) != len(sizes) or any(
            sum(p) != s for p, s in zip(parts, sizes)
        ):
            raise ValueError(
                f"class {levi_class_label!r} does not match Levi blocks {sizes}"
            )
        depth = max((len(p) for p in parts), default=0)
        total = [sum(p[i] if i < len(p) else 0 for p in parts) for i in range(depth)]
        return partition_label(tuple(sorted(total, reverse=True)))

    return induced


def gl_levi_class_label(partitions_per_block) -> str:
    return ",".join(partition_label(p) for p in partitions_per_block)


# ---------------------------------------------------------------------------
# pack load / export

PACK_FORMAT = "greenfn-pack-v1"

# required keys of the entries of each list in a pack
_PACK_ENTRY_KEYS = {
    "classes": ("label", "dimension", "below", "c0_order"),
    "systems": ("class", "chi", "block", "c", "irrep"),
    "blocks": ("id", "levi_subset"),
}

# value type of each typed entry key, and the item type of typed lists
_PACK_VALUE_TYPES = {
    "label": str,
    "class": str,
    "c0_order": str,
    "dimension": int,
    "block": int,
    "id": int,
    "below": list,
    "chi": list,
    "levi_subset": list,
    "component_group": list,
    "f_classes": list,
}
_PACK_ITEM_TYPES = {
    "below": str,
    "levi_subset": int,
    "component_group": int,
    "f_classes": str,
}


def _has_type(value, kind) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _is_rational_json(value) -> bool:
    """An int, or a str that Fraction reads as a finite rational."""
    if _has_type(value, int):
        return True
    if not _has_type(value, str):
        return False
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _is_cyclotomic_json(value) -> bool:
    """The forms CycQ.from_json reads: a rational as str or int, or an object
    with an int 'conductor' c >= 1 and a list 'coeffs' of rationals, either
    one (a rational) or the phi(c) coordinates CycQ.to_json emits."""
    if isinstance(value, dict):
        conductor, coeffs = value.get("conductor"), value.get("coeffs")
        return (
            _has_type(conductor, int)
            and conductor >= 1
            and isinstance(coeffs, list)
            and (len(coeffs) == 1 or _is_totient(len(coeffs), conductor))
            and all(map(_is_rational_json, coeffs))
        )
    return _is_rational_json(value)


def _is_totient(k: int, c: int) -> bool:
    """k == phi(c).  phi(c) >= sqrt(c/2), so a c above 2k^2 is rejected before
    totient's trial division, which would take sqrt(c) steps."""
    return 2 * k * k >= c and k == totient(c)


def _check_pack_schema(document):
    """Reject a document without the shape load_pack reads."""
    if not isinstance(document, dict):
        raise DataPackRequired("pack must be a JSON object")
    if document.get("format") != PACK_FORMAT:
        raise DataPackRequired(f"unknown pack format {document.get('format')!r}")
    if not isinstance(document.get("group"), str):
        raise DataPackRequired("pack needs a string 'group'")
    for section, keys in _PACK_ENTRY_KEYS.items():
        entries = document.get(section)
        if not isinstance(entries, list):
            raise DataPackRequired(f"pack needs a list '{section}'")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise DataPackRequired(f"pack {section}[{i}] is not an object")
            missing = [k for k in keys if k not in entry]
            if missing:
                raise DataPackRequired(
                    f"pack {section}[{i}] lacks {', '.join(map(repr, missing))}"
                )
            for key, value in entry.items():
                kind = _PACK_VALUE_TYPES.get(key)
                if kind is None:
                    continue
                item = _PACK_ITEM_TYPES.get(key)
                if not _has_type(value, kind) or (
                    item and not all(_has_type(v, item) for v in value)
                ):
                    expected = kind.__name__ + (f" of {item.__name__}" if item else "")
                    raise DataPackRequired(
                        f"pack {section}[{i}] {key!r} must be {expected}, not {value!r}"
                    )
            bad = [v for v in entry.get("chi", ()) if not _is_cyclotomic_json(v)]
            if bad:
                raise DataPackRequired(
                    f"pack {section}[{i}] 'chi' item {bad[0]!r} must be a rational "
                    "(int or str) or an object with int 'conductor' c >= 1 and a "
                    "list 'coeffs' of 1 or phi(c) rationals"
                )


def load_pack(document) -> SpringerTable:
    """Build and validate a SpringerTable from a JSON pack document."""
    if isinstance(document, str):
        document = json.loads(document)
    _check_pack_schema(document)
    group = cartan_type(document["group"])
    classes = []
    for i, c in enumerate(document["classes"]):
        try:
            c0_order = parse_phi_string(c["c0_order"])
        except PhiParseError as exc:
            raise DataPackRequired(
                f"pack classes[{i}] 'c0_order' {c['c0_order']!r}: {exc}"
            ) from exc
        classes.append(
            UnipotentClass(
                label=c["label"],
                dimension=int(c["dimension"]),
                below=frozenset(c["below"]),
                component_group=tuple(int(d) for d in c.get("component_group", ())),
                f_classes=tuple(c.get("f_classes", ("1",))),
                c0_order=c0_order,
            )
        )
    systems = []
    for i, s in enumerate(document["systems"]):
        c_raw = s["c"]
        integral = isinstance(c_raw, int) or (
            isinstance(c_raw, float) and c_raw.is_integer()
        )
        if not integral:
            raise DataPackRequired(
                f"pack systems[{i}] 'c' must be an integer, not {c_raw!r}"
            )
        irrep = _irrep_from_json(s["irrep"])
        try:
            hash(irrep)
        except TypeError:
            raise DataPackRequired(
                f"pack systems[{i}] 'irrep' must be a label or a list of labels "
                f"or of lists of labels, not {s['irrep']!r}"
            ) from None
        systems.append(
            LocalSystem(
                class_label=s["class"],
                chi=tuple(CycQ.from_json(v) for v in s["chi"]),
                block=int(s["block"]),
                c_value=int(c_raw),
                irrep=irrep,
                f_stable=bool(s.get("f_stable", True)),
            )
        )
    blocks = []
    for b in document["blocks"]:
        blocks.append(
            Block(
                block_id=int(b["id"]),
                levi_subset=tuple(int(i) for i in b["levi_subset"]),
                cuspidal_label=b.get("cuspidal", ""),
                y_normalization_assumed=bool(b.get("y_normalization_assumed", False)),
            )
        )
    table = SpringerTable(group, classes, systems, blocks)
    order = group.group_order()
    for c in classes:
        centralizer = table.centralizer_order(c.label)
        if centralizer.is_zero() or not divmod(order, centralizer)[1].is_zero():
            raise DataPackRequired(
                f"pack class {c.label}: centralizer order {render_poly(centralizer)} "
                f"does not divide |G^F| = {render_poly(order)}"
            )
    return table


def export_pack(table: SpringerTable) -> dict:
    """Serialize a table to the JSON pack schema (inverse of load_pack)."""
    return {
        "format": PACK_FORMAT,
        "group": table.group.label.replace("|", ""),
        "classes": [
            {
                "label": c.label,
                "dimension": c.dimension,
                "below": sorted(c.below),
                "component_group": list(c.component_group),
                "f_classes": list(c.f_classes),
                "c0_order": render_poly(c.c0_order),
            }
            for c in table.classes
        ],
        "systems": [
            {
                "class": s.class_label,
                "chi": [v.to_json() for v in s.chi],
                "block": s.block,
                "c": s.c_value,
                "irrep": _irrep_to_json(s.irrep),
                "f_stable": s.f_stable,
            }
            for s in table.systems
        ],
        "blocks": [
            {
                "id": b.block_id,
                "levi_subset": list(b.levi_subset),
                "cuspidal": b.cuspidal_label,
                "y_normalization_assumed": b.y_normalization_assumed,
            }
            for b in table.blocks
        ],
    }


def _irrep_to_json(irrep):
    if isinstance(irrep, tuple):
        return [list(p) if isinstance(p, tuple) else p for p in irrep]
    return irrep


def _irrep_from_json(doc):
    if isinstance(doc, list):
        return tuple(tuple(p) if isinstance(p, list) else p for p in doc)
    return doc
