import random
from itertools import combinations

from conftest import explicit_universe
from noetherlab import (
    adjacent,
    common_neighborhood,
    good_closure,
    heart,
    is_good,
    longest_descent_chain,
    minimal_subfamily,
    pt,
    vertex_point,
)
from noetherlab.generators import line_universe, planar_unit_universe, random_universe
from noetherlab.lattice import ClosedFamilyElement


def test_heart_examples(triangle, path3, edgeless2):
    u, v, w = triangle.points
    assert heart(triangle, [u]) == frozenset(triangle.points)
    assert heart(path3, [vertex_point(1)]) == frozenset([vertex_point(1)])
    assert heart(edgeless2, []) == frozenset()


def test_heart_is_always_a_clique():
    rng = random.Random(8)
    for _ in range(300):
        u = random_universe(rng, 10)
        a = rng.sample(u.points, k=rng.randint(0, min(3, len(u))))
        h = heart(u, a)
        for x in h:
            for y in h:
                assert x == y or adjacent(u.instance, x, y)


def test_good_closure_examples(triangle, edgeless2):
    assert good_closure(edgeless2, [vertex_point(0)]) == frozenset([vertex_point(0)])
    assert good_closure(triangle, [vertex_point(0)]) == frozenset(triangle.points)
    line = line_universe(3)
    assert good_closure(line, [pt(1)]) == frozenset([pt(1)])
    # relativized heart of the empty set forces the universal vertex in
    assert good_closure(line, [pt(0)]) == frozenset([pt(0), pt(1)])


def test_good_closure_is_a_closure_operator():
    rng = random.Random(17)
    for _ in range(200):
        u = random_universe(rng, 10)
        small = frozenset(rng.sample(u.points, k=rng.randint(0, min(4, len(u)))))
        big = small | frozenset(rng.sample(u.points, k=rng.randint(0, min(3, len(u)))))
        cs, cb = good_closure(u, small), good_closure(u, big)
        assert small <= cs
        assert cs <= cb
        assert good_closure(u, cs) == cs
        assert is_good(u, cs)


def _closure_by_definition(u, a):
    """Fixpoint of adding heart(s) for every subset s of the current set."""
    current = frozenset(a)
    while True:
        grown = current.union(
            *(heart(u, s) for k in range(len(current) + 1) for s in combinations(current, k))
        )
        if grown == current:
            return current
        current = grown


def test_good_closure_matches_its_definition():
    rng = random.Random(41)
    for _ in range(300):
        u = random_universe(rng, 9)
        a = rng.sample(u.points, k=rng.randint(0, min(3, len(u))))
        assert good_closure(u, a) == _closure_by_definition(u, a)
    # sparse graphs where one heart pulls in the next, round after round
    for _ in range(100):
        n = rng.randint(3, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        u = explicit_universe(n, edges)
        a = rng.sample(u.points, k=rng.randint(1, 2))
        assert good_closure(u, a) == _closure_by_definition(u, a)


def test_increasing_union_of_good_sets_is_good():
    rng = random.Random(23)
    for _ in range(100):
        u = random_universe(rng, 10)
        chain = []
        acc = frozenset()
        for _ in range(3):
            acc = good_closure(
                u, acc | frozenset(rng.sample(u.points, k=rng.randint(0, 2)))
            )
            chain.append(acc)
        union = frozenset().union(*chain)
        assert is_good(u, union)


def test_minimal_subfamily_examples():
    line = line_universe(4)
    res = minimal_subfamily(line, [pt(1)])
    assert res.points == frozenset([pt(1)]) and res.certified
    res = minimal_subfamily(line, [pt(1), pt(3)])
    assert res.points == frozenset([pt(1), pt(3)])
    # duplicate neighborhoods collapse: 0 and 2 share no... use twins instead
    twins = explicit_universe(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    # vertices 2 and 3 have identical closed neighborhoods {self, 0, 1}? no:
    # N[2] = {2,0,1}, N[3] = {3,0,1}; intersection drops one only via extent
    res = minimal_subfamily(twins, [vertex_point(0), vertex_point(1)])
    assert common_neighborhood(twins, res.points) == common_neighborhood(
        twins, [vertex_point(0), vertex_point(1)]
    )


def test_minimal_subfamily_preserves_extent_randomized():
    rng = random.Random(31)
    for _ in range(300):
        u = random_universe(rng, 10)
        fam = frozenset(rng.sample(u.points, k=rng.randint(1, min(5, len(u)))))
        res = minimal_subfamily(u, fam)
        assert res.points <= fam
        assert common_neighborhood(u, res.points) == common_neighborhood(u, fam)
        again = minimal_subfamily(u, res.points)
        assert again.points == res.points


def test_minimal_subfamily_respects_algebraic_bound():
    rng = random.Random(77)
    for _ in range(100):
        u = planar_unit_universe(rng, rng.randint(5, 10))
        fam = rng.sample(u.points, k=rng.randint(1, min(6, len(u))))
        assert len(minimal_subfamily(u, fam).points) <= 128


def test_descent_chain_edgeless_and_complete():
    edgeless = explicit_universe(3, [])
    chain = longest_descent_chain(edgeless, max_arity=3)
    assert len(chain) == 3 and chain.certified
    assert [len(e.extent) for e in chain.elements] == [3, 1, 0]

    complete = explicit_universe(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    chain = longest_descent_chain(complete, max_arity=3)
    assert len(chain) == 1
    assert chain.elements[0].extent == frozenset(complete.points)


def test_descent_chain_line4():
    chain = longest_descent_chain(line_universe(4), max_arity=3)
    assert len(chain) >= 3
    extents = [e.extent for e in chain.elements]
    for a, b in zip(extents, extents[1:]):
        assert b < a
    gens = [set().union(*e.generators) for e in chain.elements]
    for a, b in zip(gens, gens[1:]):
        assert a <= b


def test_descent_chain_beam_flagged_uncertified():
    rng = random.Random(4)
    u = random_universe(rng, 12)
    while len(u) <= 10:
        u = random_universe(rng, 12)
    chain = longest_descent_chain(u, max_arity=3)
    assert not chain.certified


def test_closed_family_element_recompute():
    line = line_universe(3)
    elem = ClosedFamilyElement.of(line, [[pt(0)], [pt(2)]])
    assert elem.extent == frozenset(line.points)  # N[0] u N[2] = {0,1} u {1,2}
    assert elem.recomputed_extent(line) == elem.extent
