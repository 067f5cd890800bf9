"""
One-variable generalized Green functions by the Lusztig-Shoji algorithm.

Per block, writing phi_kappa for the irreducible coset character matched to
the local system kappa by the correspondence, the solver constructs

    Qt_kappa = phi_kappa + sum over earlier gamma of c_gamma Qt_gamma

running through the F-stable systems in an order refining the *reverse* of
the closure order of supports (regular support first), subject to the Gram
constraints

    < Qt_kappa, Z Qt_gamma' > = Lambda_{kappa, gamma'}

for all earlier gamma', where Z(wF) = |Z^0(L0)^{wF}| weights the pairing and
the target Gram matrix is

    Lambda_{gamma,kappa} = 0 unless the supports coincide, and otherwise
      |A(v)|^{-1} sum_a |C^0(v_a)^F| q^{-2 c_gamma}
                   chi_gamma(a) conjugate(chi_kappa(a)).

The diagonal Gram identities are not imposed; they are theorems under the
correct normalization and are verified after solving, as are integrality and
unitriangularity of P_{kappa,iota} = q^{c_kappa - c_iota} B_{kappa,iota}
(B the change of basis from phi to Qt).  Any failure raises SolverError
rather than being absorbed: wrong conventions must surface, not be patched.

The one-variable Green function is then assembled as

    Q_{wF}(u_a) = sum over iota supported on the class of u of
                  Qt_iota(wF) * q^{c_iota} * chi_iota(a)

and must come out in Z[q].
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .characters import CosetClassFunction, weighted_pairing
from .linalg import mat_mul, solve_linear
from .qpoly import QPoly, RatFunc, render_poly
from .rootdata import torus_fixed_order
from .springer import SpringerTable


class SolverError(ValueError):
    """A post-hoc invariant of the Lusztig-Shoji solution failed."""


@dataclass(frozen=True)
class BlockSolution:
    """The solved block: basis order, change of basis, P and Lambda."""

    table: SpringerTable
    block_id: int
    basis: tuple  # LocalSystems, regular support first
    expansions: tuple  # row i: tuple of RatFunc, Qt_i = sum_j exp[i][j] phi_j
    p_matrix: tuple  # P[i][j] = q^{c_i - c_j} exp[i][j], integral polynomials
    lam: tuple  # Lambda[i][j] as RatFunc

    @property
    def coset(self):
        return self.table.block_coset(self.block_id)

    @cached_property
    def greens(self):
        """green_table of this solution, assembled on first use and kept."""
        return green_table(self)

    def qtilde_value(self, i: int, w_class: int) -> RatFunc:
        """Qt_{basis[i]} evaluated at the twisted class w_class of the coset."""
        chars = _block_characters(self.table, self.block_id, self.basis)
        total = RatFunc(0)
        for j, coeff in enumerate(self.expansions[i]):
            if not coeff.is_zero():
                total = total + coeff * chars[j].values[w_class]
        return total

    def to_json(self):
        return {
            "block": self.block_id,
            "basis": [list(map(str, s.key)) for s in self.basis],
            "P": [[render_poly(e) for e in row] for row in self.p_matrix],
            "Lambda": [[str(e) for e in row] for row in self.lam],
        }


@dataclass(frozen=True)
class GreenOneVar:
    """Q^{G,I}_{wF} on the F-classes of unipotent elements."""

    block_id: int
    w_class: int
    values: dict  # (class_label, a_label) -> QPoly

    def __call__(self, class_label: str, a_label: str = "1") -> QPoly:
        return self.values.get((class_label, a_label), QPoly())


# ---------------------------------------------------------------------------
# basis order


def _basis_order(table: SpringerTable, block_id: int, reverse_ties: bool):
    """F-stable systems of the block, topologically sorted so that larger
    closure support comes first; ties broken deterministically by
    (dimension descending, label), or reversed label for the order-independence
    check."""
    systems = [s for s in table.block_systems(block_id) if s.f_stable]
    classes = {s.key: table.unipotent_class(s.class_label) for s in systems}

    def strictly_above(a, b):  # support of a strictly contains support of b
        ca, cb = classes[a.key], classes[b.key]
        return ca.label != cb.label and cb.leq(ca)

    indeg = {s.key: 0 for s in systems}
    for a in systems:
        for b in systems:
            if strictly_above(a, b):
                indeg[b.key] += 1

    def tie_key(s):
        label_key = tuple(-ord(c) for c in s.class_label) if reverse_ties else s.class_label
        return (-classes[s.key].dimension, label_key, repr(s.irrep))

    heap = [(tie_key(s), s.key) for s in systems if indeg[s.key] == 0]
    heapq.heapify(heap)
    by_key = {s.key: s for s in systems}
    out = []
    while heap:
        _, key = heapq.heappop(heap)
        s = by_key[key]
        out.append(s)
        for b in systems:
            if strictly_above(s, b):
                indeg[b.key] -= 1
                if indeg[b.key] == 0:
                    heapq.heappush(heap, (tie_key(b), b.key))
    if len(out) != len(systems):
        raise SolverError("closure order on supports is not a partial order")
    return tuple(out)


def _block_characters(table: SpringerTable, block_id: int, basis):
    tab = table.block_character_table(block_id)
    return [tab.character(s.irrep) for s in basis]


def _phi_gram(table: SpringerTable, block_id: int, basis):
    """Pairings <phi_i, Z phi_j> of the raw characters against Z."""
    chars = _block_characters(table, block_id, basis)
    zw = _z_weight(table, block_id)
    return [
        [RatFunc(weighted_pairing(ci, cj, zw)) for cj in chars] for ci in chars
    ]


def _z_weight(table: SpringerTable, block_id: int) -> CosetClassFunction:
    coset = table.block_coset(block_id)
    L0 = table.block_levi(block_id)
    return CosetClassFunction(
        coset, tuple(torus_fixed_order(L0, cls.rep) for cls in coset.classes)
    )


def _lambda_target(table: SpringerTable, gamma, kappa) -> RatFunc:
    """The closed-form Gram target; zero unless the supports coincide."""
    if gamma.class_label != kappa.class_label:
        return RatFunc(0)
    cls = table.unipotent_class(gamma.class_label)
    total = RatFunc(0)
    for ai in range(len(cls.f_classes)):
        term = RatFunc(cls.c0_order) * (gamma.chi[ai] * kappa.chi[ai].conjugate())
        total = total + term
    return (
        total
        * RatFunc(QPoly([Fraction(1, math.prod(cls.component_group))]))
        * RatFunc.q_power(-2 * gamma.c_value)
    )


# ---------------------------------------------------------------------------
# the solver


def lusztig_shoji_solve(
    table: SpringerTable, block_id: int, reverse_ties: bool = False
) -> BlockSolution:
    basis = _basis_order(table, block_id, reverse_ties)
    n = len(basis)
    lam = [[_lambda_target(table, basis[i], basis[j]) for j in range(n)] for i in range(n)]
    phi_gram = _phi_gram(table, block_id, basis)

    expansions = []  # expansions[i][j]: coefficient of phi_j in Qt_i
    for idx in range(n):
        row = [RatFunc(0)] * n
        row[idx] = RatFunc(1)
        if idx:
            # <phi_idx, Z Qt_{g'}> for each earlier g'
            rhs = []
            for gp in range(idx):
                pairing = RatFunc(0)
                for j in range(idx + 1):
                    coeff = expansions[gp][j]
                    if not coeff.is_zero():
                        pairing = pairing + coeff.conjugate() * phi_gram[idx][j]
                rhs.append(lam[idx][gp] - pairing)
            gram = [[lam[g][gp] for g in range(idx)] for gp in range(idx)]
            try:
                coeffs = solve_linear(gram, rhs)
            except ValueError as exc:
                raise SolverError(
                    f"singular Gram system at {basis[idx].key}: {exc}"
                ) from exc
            for g, c in enumerate(coeffs):
                if c.is_zero():
                    continue
                for j in range(n):
                    if not expansions[g][j].is_zero():
                        row[j] = row[j] + c * expansions[g][j]
        expansions.append(tuple(row))

    solution = BlockSolution(
        table,
        block_id,
        basis,
        tuple(expansions),
        _p_matrix(basis, expansions),
        tuple(tuple(r) for r in lam),
    )
    _verify(solution, phi_gram)
    return solution


def solved_block(table: SpringerTable, block_id: int) -> BlockSolution:
    """The table's solution of a block, solved and verified on first use and
    then kept by the table, so every caller in the process shares it."""
    if block_id not in table.solutions:
        table.solutions[block_id] = lusztig_shoji_solve(table, block_id)
    return table.solutions[block_id]


def _p_matrix(basis, expansions):
    out = []
    for i, kappa in enumerate(basis):
        row = []
        for j, iota in enumerate(basis):
            coeff = expansions[i][j]
            scaled = coeff * RatFunc.q_power(kappa.c_value - iota.c_value)
            if not scaled.is_polynomial():
                raise SolverError(
                    f"P entry ({kappa.key}, {iota.key}) = {scaled} is not in Z[q]"
                )
            poly = scaled.as_qpoly()
            if not poly.has_integer_coeffs():
                raise SolverError(
                    f"P entry ({kappa.key}, {iota.key}) = {poly} is not integral"
                )
            row.append(poly)
        out.append(tuple(row))
    return tuple(out)


def _verify(sol: BlockSolution, phi_gram):
    table, basis = sol.table, sol.basis
    n = len(basis)
    # diagonal 1 and support unitriangularity
    for i, kappa in enumerate(basis):
        if sol.p_matrix[i][i] != QPoly([1]):
            raise SolverError(f"P diagonal at {kappa.key} is {sol.p_matrix[i][i]}, not 1")
        ck = table.unipotent_class(kappa.class_label)
        for j, iota in enumerate(basis):
            if i == j or sol.p_matrix[i][j].is_zero():
                continue
            ci = table.unipotent_class(iota.class_label)
            if not ck.leq(ci):
                raise SolverError(
                    f"P entry ({kappa.key}, {iota.key}) nonzero outside the "
                    "closure support condition"
                )
    # full Gram identity <Qt_g, Z Qt_k> = Lambda_{g,k}, including the diagonal:
    # the matrix E * Phi * conj(E)^T, with E the expansions
    exp = sol.expansions
    conj_t = [[exp[k][b].conjugate() for k in range(n)] for b in range(n)]
    gram = mat_mul(exp, mat_mul(phi_gram, conj_t))
    for g in range(n):
        for k in range(n):
            if gram[g][k] != sol.lam[g][k]:
                raise SolverError(
                    f"Gram identity fails at ({basis[g].key}, {basis[k].key}): "
                    f"{gram[g][k]} != {sol.lam[g][k]}"
                )


# ---------------------------------------------------------------------------
# assembling Green functions


def one_var_green(sol: BlockSolution, w_class: int) -> GreenOneVar:
    table = sol.table
    values = {}
    qt = [sol.qtilde_value(i, w_class) for i in range(len(sol.basis))]
    for cls in table.classes:
        for ai, a_label in enumerate(cls.f_classes):
            total = RatFunc(0)
            for i, s in enumerate(sol.basis):
                if s.class_label != cls.label:
                    continue
                total = total + qt[i] * RatFunc.q_power(s.c_value) * s.chi[ai]
            if not total.is_polynomial():
                raise SolverError(
                    f"Green value at ({cls.label}, {a_label}) is not polynomial: {total}"
                )
            poly = total.as_qpoly()
            if not poly.is_zero():
                values[(cls.label, a_label)] = poly
    return GreenOneVar(sol.block_id, w_class, values)


def green_table(sol: BlockSolution):
    """One GreenOneVar per twisted class of the block's relative coset."""
    return tuple(one_var_green(sol, w) for w in range(len(sol.coset.classes)))


# ---------------------------------------------------------------------------
# orthogonality suite


def green_orthogonality(table: SpringerTable, block_id: int, sol=None):
    """Verify the orthogonality relations of the one-variable functions:

    sum_u |C(u)^F|^{-1} Q_{wF}(u) conj(Q_{w'F}(u))
        = delta_{wF ~ w'F} |C_W(wF)| / |Z^0(L0)^{wF}|.

    Checks the table's kept solution unless ``sol`` is given.  Returns True;
    raises SolverError with the offending pair otherwise.
    """
    sol = sol or solved_block(table, block_id)
    greens = sol.greens
    coset = sol.coset
    L0 = table.block_levi(block_id)
    inverse_orders = {
        (cls.label, a_label): RatFunc(1) / RatFunc(table.centralizer_order(cls.label))
        for cls in table.classes
        for a_label in cls.f_classes
    }
    for wi, wcls in enumerate(coset.classes):
        for wj, wcls2 in enumerate(coset.classes):
            total = RatFunc(0)
            for key, inverse_order in inverse_orders.items():
                qa = greens[wi].values.get(key)
                qb = greens[wj].values.get(key)
                if qa is None or qb is None:
                    continue
                total = total + RatFunc(qa * qb.conjugate()) * inverse_order
            if wi == wj:
                expect = RatFunc(QPoly([wcls.centralizer_order])) / RatFunc(
                    torus_fixed_order(L0, wcls.rep)
                )
            else:
                expect = RatFunc(0)
            if total != expect:
                raise SolverError(
                    f"orthogonality fails at twisted classes ({wi}, {wj}): "
                    f"{total} != {expect}"
                )
    return True
