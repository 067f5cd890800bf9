"""
Two-variable Green functions attached to a Levi subgroup, by two routes.

For a Levi L of G with Springer tables tG, tL, the two-variable function
Q^G_L(u, v) on pairs of unipotent F-classes is computed either as a block
sum over the relative Weyl coset of L,

    Q^G_L(u, v) = |L^F|^{-1} sum_I sum_{w in W_L(L0)/~}
        |(wF)-class| / |W_L(L0)| * |Z^0(L0)^{wF}|
        * conj(Q^{G,I_G}_{wF}(u)) * Q^{L,I}_{wF}(v),

or through the R-matrix of the block pair,

    Q^G_L(u, v) = |v^{L^F}|^{-1} |A_L(v)|^{-1} sum_I sum_{iota, gamma}
        conj(chi_iota(a_u)) chi_gamma(a_v) R_{iota,gamma} q^{c_iota - c_gamma},

where R = B^G * conj(I) * (B^L)^{-1}, B the change of basis of the solved
blocks and I_{iota,gamma} = <Ind phi_gamma, phi_iota> the induction matrix
of coset characters.  The rescaled matrix Rt_{iota,gamma} =
q^{c_iota - c_gamma} R_{iota,gamma} must be polynomial with (cyclotomic)
integer coefficients and obey the closure support constraints.

Both routes are evaluated for every table entry and must agree exactly;
a disagreement raises CrossPathMismatch instead of producing output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import DataPackRequired, induce, inner_product
from .green import SolverError, solved_block
from .linalg import mat_inverse, mat_mul
from .qpoly import QPoly, RatFunc, render_poly
from .rootdata import LeviDatum, class_fusion
from .springer import SpringerTable, dominates, gl_levi_springer


class CrossPathMismatch(ArithmeticError):
    """The block-sum and R-matrix evaluations of an entry disagree."""


def _split_label(x):
    """Accept a class label or a (class_label, a_label) pair."""
    if isinstance(x, tuple):
        return x
    return (x, "1")


def levi_springer_table(tG: SpringerTable, L: LeviDatum) -> SpringerTable:
    """The Springer table of the Levi L, reusing tG when L is all of G.

    tG keeps the table of each standard Levi it builds."""
    if tuple(sorted(L.subset)) == tuple(range(len(tG.group.simple_roots))):
        return tG
    if tG.group.gl_size is None:
        raise DataPackRequired("Levi Springer table: data pack required outside GL_n")
    key = (L.subset, L.twist_element)
    if key not in tG.levi_tables:
        tG.levi_tables[key] = gl_levi_springer(L)
    return tG.levi_tables[key]


class _BlockPair:
    """One matched block (I, I_G): solved on both sides, with fusion data."""

    def __init__(self, tG, tL, L, block_l: int, block_g: int):
        self.tG, self.tL, self.L = tG, tL, L
        self.block_l, self.block_g = block_l, block_g
        self.sol_l = solved_block(tL, block_l)
        self.sol_g = solved_block(tG, block_g)
        self.coset_l = tL.block_coset(block_l)
        self.coset_g = tG.block_coset(block_g)
        self.fusion = class_fusion(self.coset_l, self.coset_g)
        self.greens_l = self.sol_l.greens
        self.greens_g = self.sol_g.greens
        # block-sum weight of each twisted class wF of W_L(L0):
        # |Z^0(L0)^{wF}| * |wF-class| / |W_L(L0)|
        self.weights = tuple(
            wcls.torus_order * QPoly([Fraction(wcls.size, self.coset_l.order)])
            for wcls in self.coset_l.classes
        )
        self._rtilde = None

    # -- block-sum route -----------------------------------------------------

    def blocksum_term(self, u_label, u_a, v_label, v_a) -> RatFunc:
        total = RatFunc(0)
        for wi, weight in enumerate(self.weights):
            qg = self.greens_g[self.fusion[wi][0]].values.get((u_label, u_a))
            ql = self.greens_l[wi].values.get((v_label, v_a))
            if qg is None or ql is None:
                continue
            total = total + RatFunc(qg.conjugate() * ql * weight)
        return total

    # -- R-matrix route ------------------------------------------------------

    @property
    def rtilde(self):
        """Rt_{iota,gamma} = q^{c_iota - c_gamma} R_{iota,gamma} in Z[q]."""
        if self._rtilde is None:
            self._rtilde = self._compute_rtilde(self._induction_matrix())
        return self._rtilde

    def _induction_matrix(self):
        """conj(I)_{iota,gamma} = conj(<Ind phi_gamma, phi_iota>) as RatFuncs."""
        tab_g = self.tG.block_character_table(self.block_g)
        tab_l = self.tL.block_character_table(self.block_l)
        induced = [
            induce(tab_l.character(s.irrep), self.coset_g) for s in self.sol_l.basis
        ]
        return [
            [RatFunc(QPoly([inner_product(f, phi_g).conjugate()])) for f in induced]
            for phi_g in (tab_g.character(s.irrep) for s in self.sol_g.basis)
        ]

    def _compute_rtilde(self, ind):
        """Rt from the induction matrix ``ind``: R = (B^G * conj I) * (B^L)^-1."""
        try:
            b_l_inv = mat_inverse([list(row) for row in self.sol_l.expansions])
        except ValueError as exc:
            raise SolverError(
                f"change of basis of Levi block {self.block_l} is not invertible: {exc}"
            ) from exc
        r = mat_mul(mat_mul(self.sol_g.expansions, ind), b_l_inv)
        out = []
        for i, s_g in enumerate(self.sol_g.basis):
            row = []
            for g, s_l in enumerate(self.sol_l.basis):
                scaled = r[i][g] * RatFunc.q_power(s_g.c_value - s_l.c_value)
                if not scaled.is_polynomial():
                    raise SolverError(
                        f"Rt entry ({s_g.key}, {s_l.key}) = {scaled} not polynomial"
                    )
                poly = scaled.as_qpoly()
                if not poly.has_cyclotomic_integer_coeffs():
                    raise SolverError(
                        f"Rt entry ({s_g.key}, {s_l.key}) = {poly} not integral"
                    )
                row.append(poly)
            out.append(tuple(row))
        out = tuple(out)
        self._check_support(out)
        return out

    def _check_support(self, rtilde):
        """For GL: Rt_{iota,gamma} = 0 unless the embedded class of gamma is
        below the class of iota, which is below the class induced from gamma."""
        if self.tG.group.gl_size is None or self.tG.induced_map is None:
            return
        for i, s_g in enumerate(self.sol_g.basis):
            lam = tuple(int(c) for c in s_g.class_label)
            for g, s_l in enumerate(self.sol_l.basis):
                if rtilde[i][g].is_zero():
                    continue
                pieces = [
                    tuple(int(ch) for ch in piece)
                    for piece in s_l.class_label.split(",")
                ]
                union = tuple(
                    sorted((p for piece in pieces for p in piece), reverse=True)
                )
                induced = tuple(
                    int(c) for c in self.tG.induced_class(self.L, s_l.class_label)
                )
                if not (dominates(lam, union) and dominates(induced, lam)):
                    raise SolverError(
                        f"Rt entry ({s_g.key}, {s_l.key}) nonzero outside the "
                        "closure support constraints"
                    )

    def rmatrix_term(self, u_label, u_a, v_label, v_a) -> RatFunc:
        cls_u = self.tG.unipotent_class(u_label)
        cls_v = self.tL.unipotent_class(v_label)
        ai = cls_u.f_classes.index(u_a)
        aj = cls_v.f_classes.index(v_a)
        total = RatFunc(0)
        for i, s_g in enumerate(self.sol_g.basis):
            if s_g.class_label != u_label:
                continue
            for g, s_l in enumerate(self.sol_l.basis):
                if s_l.class_label != v_label:
                    continue
                if self.rtilde[i][g].is_zero():
                    continue
                coeff = s_g.chi[ai].conjugate() * s_l.chi[aj]
                total = total + RatFunc(self.rtilde[i][g] * QPoly([coeff]))
        return total


class TwoVarEngine:
    """Shared state for evaluating Q^G_L by both routes."""

    def __init__(self, tG: SpringerTable, L: LeviDatum):
        if L.parent is not tG.group:
            raise ValueError("Levi does not belong to the table's group")
        self.tG, self.L = tG, L
        self.tL = levi_springer_table(tG, L)
        self.pairs = [
            _BlockPair(tG, self.tL, L, blk.block_id, self._match_block(blk))
            for blk in self.tL.blocks
        ]
        self._levi_order = RatFunc(self.tL.group.group_order())

    def _match_block(self, blk_l) -> int:
        matches = [
            b.block_id
            for b in self.tG.blocks
            if b.cuspidal_label == blk_l.cuspidal_label
        ]
        if len(matches) != 1:
            raise DataPackRequired(
                f"cuspidal datum {blk_l.cuspidal_label!r} does not match a "
                "unique block of the ambient group"
            )
        return matches[0]

    def blocksum(self, u, v) -> RatFunc:
        (ul, ua), (vl, va) = _split_label(u), _split_label(v)
        total = RatFunc(0)
        for pair in self.pairs:
            total = total + pair.blocksum_term(ul, ua, vl, va)
        return total / self._levi_order

    def rmatrix(self, u, v) -> RatFunc:
        (ul, ua), (vl, va) = _split_label(u), _split_label(v)
        total = RatFunc(0)
        for pair in self.pairs:
            total = total + pair.rmatrix_term(ul, ua, vl, va)
        cls_v = self.tL.unipotent_class(vl)
        denom = RatFunc(
            self.tL.class_size(vl) * QPoly([math.prod(cls_v.component_group)])
        )
        return total / denom


# ---------------------------------------------------------------------------
# assembled tables


@dataclass(frozen=True)
class GreenTable:
    """The full table of |v^{L^F}| * Q^G_L(u, v), cross-checked entries."""

    group_label: str
    levi_subset: tuple
    rows: tuple  # (class_label, a_label) for u, in table order
    cols: tuple  # (class_label, a_label) for v
    entries: tuple  # rows x cols of QPoly with rational coefficients
    assumptions: tuple  # human-readable conditional assumptions

    def entry(self, u, v) -> QPoly:
        return self.entries[self.rows.index(_split_label(u))][
            self.cols.index(_split_label(v))
        ]

    def to_json(self) -> dict:
        return {
            "group": self.group_label,
            "levi_subset": list(self.levi_subset),
            "rows": [list(r) for r in self.rows],
            "cols": [list(c) for c in self.cols],
            "entries": [[render_poly(e) for e in row] for row in self.entries],
            "assumptions": list(self.assumptions),
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["u\\v"] + [f"{c}:{a}" for c, a in self.cols])
        for (c, a), row in zip(self.rows, self.entries):
            writer.writerow([f"{c}:{a}"] + [render_poly(e) for e in row])
        return out.getvalue()


def green_two_var_table(tG: SpringerTable, L: LeviDatum) -> GreenTable:
    """Evaluate every entry by both routes, enforce the invariants, and
    return the table scaled by |v^{L^F}|."""
    engine = TwoVarEngine(tG, L)
    tL = engine.tL
    rows = tuple(
        (c.label, a) for c in tG.classes for a in c.f_classes
    )
    cols = tuple(
        (c.label, a) for c in tL.classes for a in c.f_classes
    )
    entries = []
    for u in rows:
        row = []
        for v in cols:
            by_sum = engine.blocksum(u, v)
            by_r = engine.rmatrix(u, v)
            if by_sum != by_r:
                raise CrossPathMismatch(
                    f"entry ({u}, {v}): block sum {by_sum} != R-matrix {by_r}"
                )
            scaled = by_sum * RatFunc(tL.class_size(v[0]))
            if not scaled.is_polynomial():
                raise SolverError(
                    f"entry ({u}, {v}): |v^L| * Q = {scaled} is not polynomial"
                )
            poly = scaled.as_qpoly()
            if not poly.has_rational_coeffs():
                raise SolverError(
                    f"entry ({u}, {v}): |v^L| * Q = {poly} is not rational"
                )
            a_order = math.prod(tL.unipotent_class(v[0]).component_group)
            if not (poly * QPoly([a_order])).has_integer_coeffs():
                raise SolverError(
                    f"entry ({u}, {v}): |v^L| |A(v)| Q is not in Z[q]"
                )
            _check_entry_support(tG, L, u, v, poly)
            row.append(poly)
        entries.append(tuple(row))
    assumptions = tuple(
        f"block {b.block_id}: cuspidal normalization assumed"
        for b in tG.blocks
        if b.y_normalization_assumed
    )
    return GreenTable(
        group_label=tG.group.label,
        levi_subset=tuple(L.subset),
        rows=rows,
        cols=cols,
        entries=tuple(entries),
        assumptions=assumptions,
    )


def _check_entry_support(tG, L, u, v, poly):
    """Entries vanish unless the class of u lies in the closure of the class
    induced from the class of v (checked when the induced map is known)."""
    if poly.is_zero() or tG.induced_map is None:
        return
    induced_label = tG.induced_class(L, v[0])
    induced = tG.unipotent_class(induced_label)
    if not tG.unipotent_class(u[0]).leq(induced):
        raise SolverError(
            f"entry ({u}, {v}) nonzero outside closure of the induced class"
        )
