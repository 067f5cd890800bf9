"""
Scalar products of Gelfand-Graev characters.

For a Levi L of G with cuspidal support on the maximal torus, the norm of
the character induced from a Gelfand-Graev character of L is

    <Ind Gamma_L, Ind Gamma_L>
      = |Z(L)/Z^0(L)|^2 sum_{w in W_L(T)}
            |Z^0(T)^{wF}| |W_G(T)| / |W_L(T)|^2
            * |(wF)^{W_G(T)} cap W_L(T)| / |(wF)^{W_G(T)}|,

while the norm of the Gelfand-Graev character of G itself is

    <Gamma_G, Gamma_G> = |Z(G)/Z^0(G)|^2 |Z^0(G)^F| q^{rk_ss G},

consistent with the specialization L = G of the sum.  The normalization
constant of the associated Whittaker-type functional is

    y(G) = q^{-rk_ss G} |Z^0(G)^F|^{-1}.
"""

from __future__ import annotations

from fractions import Fraction

from .qpoly import ArithmeticInvariantError, QPoly, RatFunc
from .rootdata import LeviDatum, RootDatumF, class_fusion


def induced_gg_norm(G: RootDatumF, L: LeviDatum) -> QPoly:
    """<Ind_L^G Gamma_L, Ind_L^G Gamma_L> as a polynomial in q."""
    LD = L.as_datum()
    coset_g = G.relative_coset(G.levi(()))
    coset_l = LD.relative_coset(LD.levi(()))
    fusion = class_fusion(coset_l, coset_g)
    z_sq = LD.center_component_group().order ** 2
    total = RatFunc(0)
    for wi, wcls in enumerate(coset_l.classes):
        big_idx, inter = fusion[wi]
        big_size = coset_g.classes[big_idx].size
        weight = Fraction(
            wcls.size * coset_g.order * inter,
            coset_l.order**2 * big_size,
        )
        total = total + RatFunc(wcls.torus_order * QPoly([weight]))
    total = total * RatFunc(QPoly([z_sq]))
    if not total.is_polynomial():
        raise ArithmeticInvariantError(f"induced norm {total} is not polynomial")
    return total.as_qpoly()


def gg_norm(G: RootDatumF) -> QPoly:
    """<Gamma_G, Gamma_G> = |Z/Z^0|^2 |Z^0(G)^F| q^{rk_ss G}."""
    z_sq = G.center_component_group().order ** 2
    return G.central_torus_order() * QPoly.q(G.ss_rank) * QPoly([z_sq])


def y_norm(G: RootDatumF) -> RatFunc:
    """The Whittaker normalization y(G) = q^{-rk_ss G} |Z^0(G)^F|^{-1}."""
    return RatFunc(1) / RatFunc(G.central_torus_order() * QPoly.q(G.ss_rank))

