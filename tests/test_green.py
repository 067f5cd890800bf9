"""Tests for the one-variable Green function solver."""

import dataclasses

import pytest

from greenfn.green import (
    SolverError,
    _phi_gram,
    _verify,
    green_orthogonality,
    green_table,
    lusztig_shoji_solve,
    one_var_green,
    solved_block,
)
from greenfn.qpoly import QPoly, RatFunc
from greenfn.springer import (
    SpringerTable,
    UnipotentClass,
    gl_levi_springer,
    gl_springer,
)

q = QPoly.q()


def w_index(sol, cycle_type):
    """Twisted class index of a cycle type in the principal coset of GL_n."""
    return sol.coset.class_labels.index((cycle_type,))


class TestGL2:
    def setup_method(self):
        self.sol = lusztig_shoji_solve(gl_springer(2), 0)

    def test_basis_order(self):
        assert [s.class_label for s in self.sol.basis] == ["2", "11"]

    def test_p_matrix(self):
        # [PAPER] the GL2 example: P = [[1, 0], [1, 1]]
        assert self.sol.p_matrix == (
            (QPoly([1]), QPoly()),
            (QPoly([1]), QPoly([1])),
        )

    def test_green_values(self):
        # [PAPER] Q_1(1) = q+1, Q_1(u) = 1, Q_s(1) = 1-q, Q_s(u) = 1
        greens = green_table(self.sol)
        g1 = greens[w_index(self.sol, (1, 1))]
        gs = greens[w_index(self.sol, (2,))]
        assert g1("11") == q + 1
        assert g1("2") == QPoly([1])
        assert gs("11") == 1 - q
        assert gs("2") == QPoly([1])

    def test_orthogonality(self):
        assert green_orthogonality(gl_springer(2), 0, self.sol)


class TestGL3:
    def setup_method(self):
        self.table = gl_springer(3)
        self.sol = lusztig_shoji_solve(self.table, 0)

    def test_p_matrix(self):
        # [DERIVED] P = [[1,0,0],[1,1,0],[1,Phi2,1]] in basis 3, 21, 111
        assert [s.class_label for s in self.sol.basis] == ["3", "21", "111"]
        assert self.sol.p_matrix == (
            (QPoly([1]), QPoly(), QPoly()),
            (QPoly([1]), QPoly([1]), QPoly()),
            (QPoly([1]), QPoly.phi(2), QPoly([1])),
        )

    def test_identity_column(self):
        # [DERIVED] values of Q_1: classical Green polynomials at mu = (1^3)
        greens = green_table(self.sol)
        g1 = greens[w_index(self.sol, (1, 1, 1))]
        assert g1("111") == QPoly.phi(2) * QPoly.phi(3)
        assert g1("21") == 2 * q + 1
        assert g1("3") == QPoly([1])

    def test_regular_row_is_one(self):
        # [DERIVED] Qt on the regular class is the constant 1
        greens = green_table(self.sol)
        for w in range(len(self.sol.coset.classes)):
            assert greens[w]("3") == QPoly([1])

    def test_order_independence(self):
        alt = lusztig_shoji_solve(self.table, 0, reverse_ties=True)
        for w in range(len(self.sol.coset.classes)):
            a = one_var_green(self.sol, w)
            b = one_var_green(alt, w)
            assert a.values == b.values

    def test_orthogonality(self):
        assert green_orthogonality(self.table, 0, self.sol)


class TestLeviBlocks:
    def test_gl2_gl1_solves_and_is_orthogonal(self):
        table = gl_levi_springer(gl_springer(3).group.levi((0,)))
        sol = lusztig_shoji_solve(table, 0)
        assert [s.class_label for s in sol.basis] == ["2,1", "11,1"]
        assert green_orthogonality(table, 0, sol)

    def test_torus_block(self):
        table = gl_levi_springer(gl_springer(2).group.levi(()))
        sol = lusztig_shoji_solve(table, 0)
        greens = green_table(sol)
        assert greens[0]("1,1") == QPoly([1])


class TestReuse:
    def test_one_table_per_n(self):
        assert gl_springer(3) is gl_springer(3)
        assert gl_springer(3) is not gl_springer(2)

    def test_block_solved_once_per_table(self):
        table = gl_springer(3)
        sol = solved_block(table, 0)
        assert solved_block(table, 0) is sol
        assert table.solutions[0] is sol
        assert sol.greens is sol.greens

    def test_kept_solution_matches_a_fresh_solve(self):
        table = gl_springer(3)
        fresh = lusztig_shoji_solve(table, 0)
        kept = solved_block(table, 0)
        assert fresh is not kept
        assert (fresh.basis, fresh.expansions) == (kept.basis, kept.expansions)
        assert green_table(fresh) == kept.greens

    def test_orthogonality_defaults_to_the_kept_solution(self):
        table = gl_springer(3)
        assert green_orthogonality(table, 0)
        assert table.solutions[0] is solved_block(table, 0)


def corrupted_gl2():
    """GL2's table with the centralizer of class 2 replaced by q(q+1): same
    degree, wrong polynomial (q(q-1) is right)."""
    table = gl_springer(2)
    bad = UnipotentClass(
        label="2",
        dimension=table.unipotent_class("2").dimension,
        below=table.unipotent_class("2").below,
        component_group=(),
        f_classes=("1",),
        c0_order=q * (q + 1),
    )
    classes = tuple(bad if c.label == "2" else c for c in table.classes)
    return SpringerTable(table.group, classes, table.systems, table.blocks)


class TestFailureModes:
    def test_corrupted_centralizer_is_caught(self):
        with pytest.raises(SolverError):
            lusztig_shoji_solve(corrupted_gl2(), 0)

    def test_corrupted_table_is_caught_after_reuse(self):
        # the kept solutions belong to the table object, not to its group
        # label: a corrupted GL2 table solves afresh and fails
        for n in (2, 3):
            solved_block(gl_springer(n), 0)
        broken = corrupted_gl2()
        assert broken.group.label == gl_springer(2).group.label
        with pytest.raises(SolverError):
            solved_block(broken, 0)
        assert broken.solutions == {}
        with pytest.raises(SolverError):
            green_orthogonality(broken, 0)

    def test_perturbed_expansion_fails_gram_identity(self):
        table = gl_springer(3)
        sol = lusztig_shoji_solve(table, 0)
        phi_gram = _phi_gram(table, 0, sol.basis)
        _verify(sol, phi_gram)  # the unperturbed solution passes
        rows = [list(row) for row in sol.expansions]
        rows[2][1] = rows[2][1] + RatFunc(1)  # off-diagonal; P is left as is
        bad = dataclasses.replace(sol, expansions=tuple(map(tuple, rows)))
        with pytest.raises(SolverError, match="Gram identity fails"):
            _verify(bad, phi_gram)
