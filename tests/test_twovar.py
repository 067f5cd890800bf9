"""Tests for the two-variable Green functions and the R-matrix route."""

import pytest

from greenfn import rootdata, twovar
from greenfn.cli import EXIT_INVARIANT, main
from greenfn.gelfand import induced_gg_norm
from greenfn.green import SolverError, green_orthogonality, solved_block
from greenfn.qpoly import QPoly, RatFunc
from greenfn.springer import gl_springer
from greenfn.twovar import (
    CrossPathMismatch,
    TwoVarEngine,
    _BlockPair,
    green_two_var_table,
    levi_springer_table,
)

q = QPoly.q()
one = QPoly([1])
zero = QPoly()


class TestGL2:
    def setup_method(self):
        self.tG = gl_springer(2)
        self.G = self.tG.group

    def test_torus_levi(self):
        # [DERIVED] Q(u, 1) over L = T equals Q_1(u) of the one-variable theory
        eng = TwoVarEngine(self.tG, self.G.levi(()))
        assert eng.blocksum("2", "1,1") == RatFunc(1)
        assert eng.blocksum("11", "1,1") == RatFunc(q + 1)

    def test_routes_agree(self):
        eng = TwoVarEngine(self.tG, self.G.levi(()))
        for u in ("2", "11"):
            assert eng.blocksum(u, "1,1") == eng.rmatrix(u, "1,1")

    def test_rtilde_values(self):
        # [DERIVED] Rt = (1, q+1)^T for L = T in basis (2), (11)
        eng = TwoVarEngine(self.tG, self.G.levi(()))
        pair = eng.pairs[0]
        assert pair.rtilde == ((one,), (q + 1,))

    def test_degenerate_levi_is_class_delta(self):
        # [DERIVED] Q^G_G(u, v) = delta_{u,v} / |u^{G^F}|
        eng = TwoVarEngine(self.tG, self.G.levi((0,)))
        for u in ("2", "11"):
            for v in ("2", "11"):
                expect = (
                    RatFunc(1) / RatFunc(self.tG.class_size(u))
                    if u == v
                    else RatFunc(0)
                )
                assert eng.blocksum(u, v) == expect

    def test_degenerate_rtilde_is_identity(self):
        eng = TwoVarEngine(self.tG, self.G.levi((0,)))
        assert eng.pairs[0].rtilde == ((one, zero), (zero, one))


class TestGL3Tables:
    def setup_method(self):
        self.tG = gl_springer(3)
        self.G = self.tG.group

    def test_torus_table(self):
        # [DERIVED] scaled entries |v^{L^F}| Q(u, v) for L = T
        table = green_two_var_table(self.tG, self.G.levi(()))
        assert table.entry("3", "1,1,1") == one
        assert table.entry("21", "1,1,1") == 2 * q + 1
        assert table.entry("111", "1,1,1") == QPoly.phi(2) * QPoly.phi(3)

    def test_gl2_gl1_table(self):
        table = green_two_var_table(self.tG, self.G.levi((0,)))
        assert table.cols == (("2,1", "1"), ("11,1", "1"))
        assert table.entry("3", "2,1") == one
        assert table.entry("3", "11,1") == zero
        assert table.entry("21", "2,1") == q
        assert table.entry("21", "11,1") == one
        assert table.entry("111", "2,1") == zero
        assert table.entry("111", "11,1") == QPoly.phi(3)

    def test_regular_row_law(self):
        # u regular: the scaled row is 1 at the regular class of L, else 0
        for subset in [(), (0,), (1,), (0, 1)]:
            table = green_two_var_table(self.tG, self.G.levi(subset))
            eng = TwoVarEngine(self.tG, self.G.levi(subset))
            reg_l = eng.tL.regular_label()
            for v, _ in table.cols:
                expect = one if v == reg_l else zero
                assert table.entry("3", v) == expect

    def test_degenerate_table_is_identity(self):
        table = green_two_var_table(self.tG, self.G.levi((0, 1)))
        for u, _ in table.rows:
            for v, _ in table.cols:
                assert table.entry(u, v) == (one if u == v else zero)

    def test_support_law(self):
        # nonzero entries only when u is in the closure of the induced class
        for subset in [(), (0,), (1,)]:
            L = self.G.levi(subset)
            table = green_two_var_table(self.tG, L)
            for u, _ in table.rows:
                for v, _ in table.cols:
                    if table.entry(u, v).is_zero():
                        continue
                    ind = self.tG.unipotent_class(self.tG.induced_class(L, v))
                    assert self.tG.unipotent_class(u).leq(ind)

    def test_blocksum_equals_rmatrix(self):
        engine = TwoVarEngine(self.tG, self.G.levi((0,)))
        assert engine.blocksum("21", "2,1") == engine.rmatrix("21", "2,1")


class TestSerialization:
    def test_csv_and_json(self):
        tG = gl_springer(2)
        table = green_two_var_table(tG, tG.group.levi(()))
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == 'u\\v,"1,1:1"'
        doc = table.to_json()
        assert doc["group"] == "GL2"
        assert doc["entries"] == [["1"], ["Phi2"]]
        # identical inputs give identical bytes
        assert table.to_csv() == green_two_var_table(tG, tG.group.levi(())).to_csv()

    def test_mismatch_exception_type(self):
        assert issubclass(CrossPathMismatch, ArithmeticError)


def perturb_induction_matrix(monkeypatch):
    """Make every engine from now on add 1 to one induction matrix entry."""
    original = _BlockPair._induction_matrix

    def perturbed(self):
        ind = original(self)
        ind[1][0] = ind[1][0] + RatFunc(1)
        return ind

    monkeypatch.setattr(_BlockPair, "_induction_matrix", perturbed)


def test_perturbed_induction_matrix_is_caught(monkeypatch):
    tG = gl_springer(3)
    L = tG.group.levi(())
    perturb_induction_matrix(monkeypatch)
    with pytest.raises((SolverError, CrossPathMismatch)):
        green_two_var_table(tG, L)


def test_perturbed_induction_matrix_is_caught_after_warm_caches(monkeypatch):
    # a full table first fills every kept solution, Levi table and Green
    # table; the R-matrix of a new engine is still computed and checked
    tG = gl_springer(3)
    L = tG.group.levi(())
    green_two_var_table(tG, L)
    perturb_induction_matrix(monkeypatch)
    with pytest.raises((SolverError, CrossPathMismatch)):
        green_two_var_table(tG, L)


def test_singular_levi_change_of_basis_exits_3(monkeypatch, capsys):
    # B^L is unitriangular, so only a corrupted solution is singular; the
    # inverse then fails inside the solver, which is an invariant (exit 3),
    # not bad input data (exit 2)
    inverse = twovar.mat_inverse

    def singular_inverse(matrix):
        zero = matrix[0][0] - matrix[0][0]
        return inverse(matrix[:-1] + [[zero] * len(matrix)])

    monkeypatch.setattr(twovar, "mat_inverse", singular_inverse)
    tG = gl_springer(3)
    with pytest.raises(SolverError, match="not invertible"):
        green_two_var_table(tG, tG.group.levi((0,)))
    assert main(["table", "GL3", "--levi", "0"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant violated:") and "singular linear system" in err


class TestReuse:
    def test_levi_table_built_once(self):
        tG = gl_springer(3)
        G = tG.group
        tL = levi_springer_table(tG, G.levi((0,)))
        assert levi_springer_table(tG, G.levi((0,))) is tL
        assert levi_springer_table(tG, G.levi((1,))) is not tL
        assert levi_springer_table(tG, G.levi((0, 1))) is tG

    def test_engines_share_solutions(self):
        tG = gl_springer(3)
        G = tG.group
        a = TwoVarEngine(tG, G.levi(()))
        b = TwoVarEngine(tG, G.levi((0,)))
        assert a.pairs[0].sol_g is b.pairs[0].sol_g is solved_block(tG, 0)
        assert TwoVarEngine(tG, G.levi(())).pairs[0].sol_l is a.pairs[0].sol_l
        assert a.pairs[0].greens_g is b.pairs[0].greens_g

    def test_engines_do_not_share_rtilde(self):
        tG = gl_springer(3)
        L = tG.group.levi(())
        a, b = TwoVarEngine(tG, L).pairs[0], TwoVarEngine(tG, L).pairs[0]
        assert a.rtilde == b.rtilde and a.rtilde is not b.rtilde

    def test_blocksum_weights(self):
        # L = GL2 x GL1 in GL3, L0 = T, W_L(T) = S2: the weight of each
        # class is |T^{wF}| * |class| / 2, so (q-1)^3/2 and (q^2-1)(q-1)/2
        tG = gl_springer(3)
        pair = TwoVarEngine(tG, tG.group.levi((0,))).pairs[0]
        doubled = [2 * w for w in pair.weights]
        assert len(doubled) == 2
        assert (q - 1) ** 3 in doubled
        assert (q * q - 1) * (q - 1) in doubled


def test_one_characteristic_polynomial_per_class(monkeypatch):
    """The solver, both routes, the orthogonality suite, |L^F| and the
    Gelfand-Graev norms read the torus order made for each class when its
    coset was built, and make no characteristic polynomial of their own."""
    build, charpoly = rootdata.relative_weyl_group, rootdata._charpoly
    built, charpolys = [], []

    def counted_build(G, L0):
        built.append(build(G, L0))
        return built[-1]

    def counted_charpoly(a):
        charpolys.append(a)
        return charpoly(a)

    monkeypatch.setattr(rootdata, "relative_weyl_group", counted_build)
    monkeypatch.setattr(rootdata, "_charpoly", counted_charpoly)
    gl_springer.cache_clear()
    tG = gl_springer(3)
    G = tG.group
    for subset in [(), (0,), (1,), (0, 1)]:
        green_two_var_table(tG, G.levi(subset))
        induced_gg_norm(G, G.levi(subset))
    assert green_orthogonality(tG, 0)
    assert len(built) > 4
    assert len(charpolys) == sum(len(c.classes) for c in built)
