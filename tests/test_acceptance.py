"""Acceptance gate: the end-to-end criteria, with their runtime budgets.

Criteria 1-7 run on generated GL data and the brute-force oracles.
Criterion 8 exercises a curated data pack for the twisted group 2E6 and is
skipped when no pack is present.
"""

import time
from itertools import product
from pathlib import Path

import pytest

from greenfn.characters import partitions
from greenfn.cyclo import CycQ
from greenfn.gelfand import gg_norm, induced_gg_norm, y_norm
from greenfn.green import green_orthogonality, green_table, lusztig_shoji_solve
from greenfn.oracle import FiniteGL, green_polynomial
from greenfn.qpoly import QPoly, RatFunc, parse_phi_string, render_poly
from greenfn.rootdata import gl
from greenfn.springer import (
    gl_block_sizes,
    gl_levi_class_label,
    gl_levi_springer,
    gl_springer,
    partition_label,
)
from greenfn.twovar import TwoVarEngine, green_two_var_table

q = QPoly.q()


def all_subsets(n):
    out = []
    for mask in range(2 ** (n - 1)):
        out.append(tuple(i for i in range(n - 1) if mask >> i & 1))
    return out


def test_criterion_1_cross_path_all_levis_under_10s():
    """Both evaluation routes agree symbolically for every Levi of GL2, GL3."""
    start = time.monotonic()
    for n in (2, 3):
        tG = gl_springer(n)
        for subset in all_subsets(n):
            green_two_var_table(tG, tG.group.levi(subset))  # asserts internally
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_criterion_2_oracle_exactness(n, p):
    """Symbolic values specialize to the brute-force counts at q in {2, 3};
    the GL3(F3) enumeration stays under 60 seconds."""
    start = time.monotonic()
    tG = gl_springer(n)
    FG = FiniteGL(n, p)
    for subset in all_subsets(n):
        comp = gl_block_sizes(n, subset)
        engine = TwoVarEngine(tG, tG.group.levi(subset))
        for u in partitions(n):
            for vs in product(*[partitions(s) for s in comp]):
                counted = FG.hc_two_var(comp, u, vs)
                symbolic = engine.blocksum(
                    partition_label(u), gl_levi_class_label(vs)
                ).evaluate(p)
                assert symbolic == CycQ(counted), (subset, u, vs)
    if (n, p) == (3, 3):
        assert time.monotonic() - start < 60.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_3_classical_green_polynomials(n):
    """The one-variable functions are the classical Green polynomials."""
    sol = lusztig_shoji_solve(gl_springer(n), 0)
    greens = green_table(sol)
    for lam in partitions(n):
        for mu in partitions(n):
            wi = sol.coset.class_labels.index((mu,))
            assert greens[wi](partition_label(lam)) == green_polynomial(lam, mu)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_4_regular_row_law(n):
    """For u regular, |v^{L^F}| Q(u, v) is 1 at the regular class of L and
    0 elsewhere."""
    tG = gl_springer(n)
    for subset in all_subsets(n):
        L = tG.group.levi(subset)
        table = green_two_var_table(tG, L)
        engine = TwoVarEngine(tG, L)
        reg = engine.tL.regular_label()
        for v, _ in table.cols:
            expect = QPoly([1]) if v == reg else QPoly()
            assert table.entry(partition_label((n,)), v) == expect


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_5_integrality_and_support(n):
    """|v^{L^F}| |A(v)| Q(u, v) lies in Z[q], vanishing outside the closure
    of the induced class."""
    tG = gl_springer(n)
    for subset in all_subsets(n):
        L = tG.group.levi(subset)
        table = green_two_var_table(tG, L)
        engine = TwoVarEngine(tG, L)
        for (u, _), row in zip(table.rows, table.entries):
            for (v, _), entry in zip(table.cols, row):
                a_order = 1
                for d in engine.tL.unipotent_class(v).component_group:
                    a_order *= d
                assert (entry * QPoly([a_order])).has_integer_coeffs()
                if not entry.is_zero():
                    ind = tG.unipotent_class(tG.induced_class(L, v))
                    assert tG.unipotent_class(u).leq(ind)


def test_criterion_6_orthogonality_suite():
    """Orthogonality of the one-variable functions, including Levi blocks."""
    for n in (2, 3, 4):
        assert green_orthogonality(gl_springer(n), 0)
    G3 = gl_springer(3).group
    for subset in [(), (0,), (1,)]:
        table = gl_levi_springer(G3.levi(subset))
        assert green_orthogonality(table, 0)


def test_criterion_7_gelfand_graev():
    """Norm formulae, their mutual consistency, and the counted oracle."""
    G2, G3 = gl(2), gl(3)
    assert induced_gg_norm(G2, G2.levi(())) == 2 * (q - 1) ** 2
    assert gg_norm(G2) == q * (q - 1)
    assert y_norm(G2) == RatFunc(1) / RatFunc(q * (q - 1))
    for n in (2, 3, 4):
        G = gl(n)
        assert induced_gg_norm(G, G.levi(tuple(range(n - 1)))) == gg_norm(G)
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        assert gg_norm(gl(n)).evaluate(p) == FiniteGL(n, p).gg_inner_product()


PACK_2E6 = Path(__file__).resolve().parent.parent / "packs" / "2E6sc.json"


def test_criterion_8_twisted_e6_table():
    """EXTENDED: byte-exact rendering of the curated 2E6 table (needs pack)."""
    if not PACK_2E6.exists():
        pytest.skip("no 2E6 data pack present")
    from greenfn.springer import load_pack

    table = load_pack(PACK_2E6.read_text())
    for blk in table.blocks:
        sol = lusztig_shoji_solve(table, blk.block_id)
        greens = green_table(sol)
        for g in greens:
            for value in g.values.values():
                assert parse_phi_string(render_poly(value)) == value
