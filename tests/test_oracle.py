import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pathcover import oracle
from pathcover.generators import GenSpec, extremal_family, random_regular
from pathcover.graph import Graph
from pathcover.hamilton import hamiltonian_path
from pathcover.matching import SizeLimitError
from pathcover.oracle import (
    binomial_tail_exact,
    conjecture_spot_check,
    cube_graph,
    independence_number,
    min_path_cover_exact,
    petersen_graph,
)
from pathcover.pipeline import chernoff_lower, chernoff_upper


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def check_witness(g, result):
    covered = set()
    for p in result.witness.paths:
        p.validate(g)
        assert not covered & set(p.vertices)
        covered |= set(p.vertices)
    assert covered == set(range(g.n))
    assert len(result.witness.paths) == result.cover_number


def test_complete_graph_cover_is_one():
    for n in (1, 2, 5, 9):
        res = min_path_cover_exact(complete(n))
        assert res.cover_number == 1
        check_witness(complete(n), res)


def test_edgeless_cover_is_n():
    res = min_path_cover_exact(Graph(6, []))
    assert res.cover_number == 6
    check_witness(Graph(6, []), res)


def test_empty_graph_cover_is_zero():
    res = min_path_cover_exact(Graph(0, []))
    assert res.cover_number == 0
    check_witness(Graph(0, []), res)


def test_two_disjoint_k4_need_two_paths():
    g = extremal_family(GenSpec(8, 3, "disjoint-cliques"))
    res = min_path_cover_exact(g)
    assert res.cover_number == 2 == 8 // (3 + 1)
    check_witness(g, res)


def test_two_disjoint_k33_need_two_paths():
    g = extremal_family(GenSpec(12, 3, "disjoint-bicliques"))
    res = min_path_cover_exact(g)
    assert res.cover_number == 2 == 12 // (2 * 3)
    check_witness(g, res)


def test_cover_size_cap():
    with pytest.raises(SizeLimitError):
        min_path_cover_exact(Graph(19, []))


def test_independence_examples():
    assert independence_number(complete(7)) == 1
    assert independence_number(Graph(5, [])) == 5
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert independence_number(c5) == 2
    assert independence_number(petersen_graph()) == 4


def test_independence_size_cap():
    with pytest.raises(SizeLimitError):
        independence_number(Graph(21, []))


def test_binomial_tail_basics():
    assert binomial_tail_exact(2, Fraction(1, 2), 2, "ge") == Fraction(1, 4)
    assert binomial_tail_exact(4, Fraction(1, 2), 2, "ge") == Fraction(11, 16)
    assert binomial_tail_exact(3, Fraction(1, 2), -1, "le") == 0
    assert binomial_tail_exact(3, Fraction(1, 2), 3, "le") == 1


def test_binomial_tail_fractional_threshold():
    # k >= 1.5 means k >= 2
    assert binomial_tail_exact(2, Fraction(1, 2), Fraction(3, 2), "ge") == Fraction(1, 4)


def test_binomial_tail_domain():
    with pytest.raises(ValueError):
        binomial_tail_exact(0, Fraction(1, 2), 1, "ge")
    with pytest.raises(ValueError):
        binomial_tail_exact(61, Fraction(1, 2), 1, "ge")
    with pytest.raises(ValueError):
        binomial_tail_exact(5, Fraction(3, 2), 1, "ge")
    with pytest.raises(ValueError):
        binomial_tail_exact(5, Fraction(1, 2), 1, "above")


def test_tail_strictly_below_exponential_bound():
    tail = binomial_tail_exact(30, Fraction(1, 2), 20, "ge")
    assert float(tail) < chernoff_upper(30, 0.5, 5)


def test_domination_mini_grid():
    for np_ in (5, 12, 19):
        for dec in (1, 5, 9):
            zeta = Fraction(dec, 10)
            for x in range(1, np_ + 1):
                up = binomial_tail_exact(np_, zeta, np_ * zeta + x, "ge")
                lo = binomial_tail_exact(np_, zeta, np_ * zeta - x, "le")
                assert up <= Fraction(chernoff_upper(np_, dec / 10, x))
                assert lo <= Fraction(chernoff_lower(np_, dec / 10, x))


def test_conjecture_spot_check_small():
    extras = [petersen_graph(), cube_graph(), complete(4)]
    rep = conjecture_spot_check(3, 8, samples=25, seed=1, extras=extras)
    assert rep.ok and rep.checked == 28
    assert rep.max_ratio <= 1.0


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_conjecture_spot_check_rejects_seed_outside_64_bits(seed):
    # mix64 reduces mod 2**64, so -1 and 2**64 - 1 would draw the same samples
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        conjecture_spot_check(3, 8, samples=5, seed=seed)


def test_conjecture_spot_check_records_a_violation(monkeypatch):
    # a checker that needs n paths on the Petersen graph breaks ceil(10/4) = 3
    real = oracle.min_path_cover_exact
    monkeypatch.setattr(oracle, "min_path_cover_exact", lambda g: replace(real(g), cover_number=g.n))
    rep = conjecture_spot_check(3, 8, samples=0, extras=[petersen_graph()])
    assert not rep.ok and rep.checked == 1
    assert rep.violations == [(petersen_graph(), 10, 3)] and rep.max_ratio == 4.0


def test_conjecture_spot_check_rejects_negative_samples():
    # the named extras alone would otherwise be reported as checked
    with pytest.raises(ValueError, match="samples must be >= 0, got -2"):
        conjecture_spot_check(3, 8, samples=-2, extras=[petersen_graph()])
    assert conjecture_spot_check(3, 8, samples=0).checked == 0


def test_single_clique_is_tight():
    res = min_path_cover_exact(complete(4))
    assert res.cover_number == 1 == 4 // (3 + 1)


def test_cover_bounded_by_independence():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 11)
        g = Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        )
        assert min_path_cover_exact(g).cover_number <= independence_number(g)


def test_cover_one_iff_hamiltonian_path():
    rng = random.Random(9)
    for trial in range(15):
        n = rng.randrange(2, 11)
        g = Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        )
        has_ham = hamiltonian_path(g, seed=trial).ok
        assert (min_path_cover_exact(g).cover_number == 1) == has_ham
