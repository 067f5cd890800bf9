"""Tests for Gelfand-Graev scalar products."""

import pytest

from greenfn.gelfand import gg_norm, induced_gg_norm, y_norm
from greenfn.oracle import FiniteGL
from greenfn.qpoly import QPoly, RatFunc
from greenfn.rootdata import gl

q = QPoly.q()


class TestGL2:
    def setup_method(self):
        self.G = gl(2)

    def test_induced_norm_from_torus(self):
        # [PAPER] <Ind Gamma_T, Ind Gamma_T> = 2 (q-1)^2
        assert induced_gg_norm(self.G, self.G.levi(())) == 2 * (q - 1) ** 2

    def test_gg_norm(self):
        # [PAPER] <Gamma, Gamma> = q(q-1)
        assert gg_norm(self.G) == q * (q - 1)

    def test_y_norm(self):
        # [PAPER] y(G) = 1/(q(q-1))
        assert y_norm(self.G) == RatFunc(1) / RatFunc(q * (q - 1))


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_levi_specializes(self, n):
        # induced_gg_norm(G, G) = gg_norm(G)
        G = gl(n)
        full = G.levi(tuple(range(n - 1)))
        assert induced_gg_norm(G, full) == gg_norm(G)

    def test_gl3_values(self):
        # [DERIVED] frozen norms for the Levis of GL3
        G = gl(3)
        assert induced_gg_norm(G, G.levi(())) == 6 * (q - 1) ** 3
        assert induced_gg_norm(G, G.levi((0,))) == (2 * q - 1) * (q - 1) ** 2
        assert induced_gg_norm(G, G.levi((1,))) == (2 * q - 1) * (q - 1) ** 2
        assert gg_norm(G) == q**2 * (q - 1)


class TestOracleMatch:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
    def test_gg_norm_matches_counted(self, n, p):
        value = gg_norm(gl(n)).evaluate(p)
        assert value == FiniteGL(n, p).gg_inner_product()
