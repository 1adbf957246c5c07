import random

from sgcorona.census import (EdgeCensus, TriadCensus, corona_balance_criterion,
                             edge_census_direct, edge_census_formula,
                             edge_mark_breakdown, inconsistent_edges,
                             total_triads_formula, triad_census_direct,
                             triad_census_formula)
from sgcorona.core import is_balanced, new_signed_graph
from sgcorona.corona import neighbourhood_corona
from sgcorona.generate import random_balanced_graph, random_signed_graph


def c3():
    return new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def p2():
    return new_signed_graph(2, [(0, 1, 1)])


def p2neg():
    return new_signed_graph(2, [(0, 1, -1)])


def k1():
    return new_signed_graph(1, [])


def test_direct_census_counts_the_corona():
    cor, _ = neighbourhood_corona(c3(), p2())
    assert edge_census_direct(cor) == EdgeCensus(18, 18, 0)
    assert triad_census_direct(cor) == TriadCensus(13, 0, 0, 0)


def test_edge_formula_all_positive():
    assert edge_census_formula(c3(), p2()) == EdgeCensus(18, 18, 0)


def test_edge_formula_negative_base():
    # negative edge base, single-node copies: base edge stays negative,
    # both cross edges come out positive
    cor, _ = neighbourhood_corona(p2neg(), k1())
    direct = edge_census_direct(cor)
    assert direct == EdgeCensus(3, 2, 1)
    assert edge_census_formula(p2neg(), k1()) == direct


def test_edge_formula_mixed_star_base():
    g1 = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    cor, _ = neighbourhood_corona(g1, k1())
    direct = edge_census_direct(cor)
    assert direct == EdgeCensus(6, 4, 2)
    assert edge_census_formula(g1, k1()) == direct


def test_triad_formula_worked_pair():
    assert triad_census_formula(c3(), p2()) == TriadCensus(13, 0, 0, 0)
    assert total_triads_formula(c3(), p2()) == 13


def test_triads_with_signs():
    g1 = new_signed_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    g2 = p2neg()
    cor, _ = neighbourhood_corona(g1, g2)
    direct = triad_census_direct(cor)
    assert triad_census_formula(g1, g2) == direct
    assert total_triads_formula(g1, g2) == direct.total


def test_triads_mixed_star_base():
    # every base edge opposes its endpoint marks, so classifying wedge
    # triangles by those marks alone would give (1, 0, 3, 0)
    g1 = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    cor, _ = neighbourhood_corona(g1, p2())
    direct = triad_census_direct(cor)
    assert direct == TriadCensus(3, 0, 1, 0)
    assert triad_census_formula(g1, p2()) == direct
    assert total_triads_formula(g1, p2()) == direct.total == 4


def test_edge_mark_breakdown():
    g = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    # marks are (-1, +1, -1); the positive edge joins marks (-, +),
    # the negative edge joins marks (-, -)
    pos = edge_mark_breakdown(g, 1)
    assert (pos.pp, pos.pm, pos.mm) == (0, 1, 0)
    neg = edge_mark_breakdown(g, -1)
    assert (neg.pp, neg.pm, neg.mm) == (0, 0, 1)


def test_inconsistent_edges():
    # marks of the mixed star are (-1, +1, -1), so both edges violate
    # sign = mark * mark
    g = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    assert inconsistent_edges(g) == [(0, 1, 1), (0, 2, -1)]
    assert inconsistent_edges(c3()) == []
    assert inconsistent_edges(p2neg()) == [(0, 1, -1)]


def test_balance_criterion_frozen_cases():
    # unbalanced factor forces unbalanced corona
    bad = new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
    assert corona_balance_criterion(bad, p2()) is False
    assert corona_balance_criterion(p2(), bad) is False
    # balanced factors, no inconsistent copy edge
    assert corona_balance_criterion(c3(), p2()) is True
    # balanced factors but the copy factor has an inconsistent edge
    assert corona_balance_criterion(p2(), p2neg()) is False
    cor, _ = neighbourhood_corona(p2(), p2neg())
    assert not is_balanced(cor)
    # edgeless base: no cross edges, the inconsistent copy edge is harmless
    free = new_signed_graph(2, [])
    assert corona_balance_criterion(free, p2neg()) is True
    cor, _ = neighbourhood_corona(free, p2neg())
    assert is_balanced(cor)


def test_balance_criterion_ignores_inconsistent_base_edges():
    # an inconsistent copy edge is harmless without base edges ...
    free = new_signed_graph(2, [])
    assert corona_balance_criterion(free, p2neg()) is True
    # ... and an inconsistent base edge never hurts
    assert corona_balance_criterion(p2neg(), p2()) is True
    cor, _ = neighbourhood_corona(p2neg(), p2())
    assert is_balanced(cor)


def test_census_formulas_match_enumeration_random():
    rng = random.Random(23)
    for _ in range(120):
        g1 = random_signed_graph(rng, rng.randint(1, 5))
        g2 = random_signed_graph(rng, rng.randint(1, 5))
        cor, _ = neighbourhood_corona(g1, g2)
        assert edge_census_formula(g1, g2) == edge_census_direct(cor)
        direct = triad_census_direct(cor)
        assert triad_census_formula(g1, g2) == direct
        assert total_triads_formula(g1, g2) == direct.total


def test_balance_criterion_matches_oracle_random():
    rng = random.Random(29)
    for i in range(150):
        if i % 3 == 0:
            g1 = random_signed_graph(rng, rng.randint(1, 4))
            g2 = random_signed_graph(rng, rng.randint(1, 4))
        else:
            g1 = random_balanced_graph(rng, rng.randint(1, 4))
            g2 = random_balanced_graph(rng, rng.randint(1, 4))
        cor, _ = neighbourhood_corona(g1, g2)
        assert corona_balance_criterion(g1, g2) == is_balanced(cor), \
            (g1.edges(), g2.edges())
