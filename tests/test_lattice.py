import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import explicit_universe, universes_of_every_kind
from noetherlab import (
    SampleUniverse,
    adjacent,
    common_neighborhood,
    distance_graph,
    good_closure,
    heart,
    is_good,
    longest_descent_chain,
    minimal_subfamily,
    pt,
    vertex_point,
)
from noetherlab.campaign import _curve_universe, _rational_distance_universe
from noetherlab.graphs import (
    CURVE_DIFFERENCE,
    DISTANCE,
    EXPLICIT,
    HAMMING_DIAGONAL,
    HAMMING_UNIFORM,
)
from noetherlab.hamming import make_diagonal_hamming, make_uniform_hamming
from noetherlab.generators import (
    clustered_line_universe,
    line_universe,
    planar_unit_universe,
    random_explicit_universe,
    random_universe,
)
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


def _closure_by_full_rounds(universe, a):
    """good_closure before it became output-sensitive: every round tests
    every point outside current."""
    closed = universe.closed_masks
    full = universe.full_mask
    current = universe.mask_of(a)
    while True:
        added = 0
        outside = full & ~current
        while outside:
            i = (outside & -outside).bit_length() - 1
            outside &= outside - 1
            own = closed[i]
            extent = full
            s = own & current
            while s and extent & ~own:
                j = (s & -s).bit_length() - 1
                s &= s - 1
                extent &= closed[j]
            if not extent & ~own:
                added |= 1 << i
        if not added:
            return frozenset(p for i, p in enumerate(universe.points) if current >> i & 1)
        current |= added


def test_good_closure_matches_the_full_round_fixpoint():
    rng = random.Random(43)
    universes = [
        line_universe(200),
        planar_unit_universe(rng, 200),
        random_explicit_universe(rng, 200, 0.01),
        make_uniform_hamming(5, 2),
    ]
    for _ in range(30):
        universes += universes_of_every_kind(rng)
    grown = 0
    for u in universes:
        for k in (0, 1, 2, 4):
            a = rng.sample(u.points, k=min(k, len(u)))
            closure = good_closure(u, a)
            assert closure == _closure_by_full_rounds(u, a), u.instance.kind
            grown += len(closure) > len(a)
    assert grown > 200


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


def _greedy_subfamily_to_fixpoint(universe, a):
    """minimal_subfamily's greedy branch before it became one pass: sweep
    the kept generators until a sweep drops none."""
    pts = sorted(frozenset(a), key=universe.index)
    masks = [universe.closed_masks[universe.index(p)] for p in pts]
    full = universe.full_mask
    target = full
    for m in masks:
        target &= m
    keep = list(range(len(pts)))
    changed = True
    while changed:
        changed = False
        for i in list(keep):
            trial = [j for j in keep if j != i]
            acc = full
            for j in trial:
                acc &= masks[j]
            if acc == target:
                keep = trial
                changed = True
    return frozenset(pts[i] for i in keep)


def _universes_of_24_to_81_points(rng):
    """Eleven universes of 24-81 points, together of every kind."""
    curve = _curve_universe(rng).instance
    halves = [Fraction(i, 2) for i in range(-4, 5)]
    full = [
        line_universe(40),
        SampleUniverse(
            distance_graph(1, ["1/64", "1/16", "1/4"]), [pt(Fraction(i, 8)) for i in range(1, 40)]
        ),
        planar_unit_universe(rng, 40),
        SampleUniverse(curve, [pt(x, y) for x in halves for y in halves]),
        make_uniform_hamming(3, 3),
        make_uniform_hamming(5, 2),
        make_diagonal_hamming(4),
        random_explicit_universe(rng, 40, 0.1),
        random_explicit_universe(rng, 40, 0.5),
        random_explicit_universe(rng, 40, 0.9),
        random_explicit_universe(rng, 40, 1.0),
    ]
    assert {u.instance.kind for u in full} == {
        DISTANCE, CURVE_DIFFERENCE, HAMMING_UNIFORM, HAMMING_DIAGONAL, EXPLICIT,
    }
    return full


def _assert_generates(u, res, fam):
    assert res.points <= frozenset(fam)
    assert common_neighborhood(u, res.points) == common_neighborhood(u, fam)


def test_subfamily_is_never_larger_than_the_fixpoint_sweeps():
    rng = random.Random(47)
    full = _universes_of_24_to_81_points(rng)
    kept, smaller, certified = Counter(), 0, 0
    for _ in range(30):
        for u in full:
            u = SampleUniverse(u.instance, rng.sample(u.points, k=len(u)))
            fam = rng.sample(u.points, k=rng.randint(21, min(40, len(u))))
            res = minimal_subfamily(u, fam)
            _assert_generates(u, res, fam)
            greedy = _greedy_subfamily_to_fixpoint(u, fam)
            assert len(res.points) <= len(greedy), u.instance.kind
            smaller += len(res.points) < len(greedy)
            certified += res.certified
            kept[min(len(res.points), 3)] += 1
    # every generator goes on the complete graph, two with disjoint
    # neighborhoods keep an empty intersection, and dense draws keep more
    assert kept[0] == 30 and kept[3] > 30, kept
    # the search beats the greedy family in some rounds and finishes in most
    assert smaller > 30 and 250 < certified < 330, (smaller, certified)


def _first_in_size_lex_order(u, fam):
    """The first subfamily generating Gamma(fam), scanning every subset by size."""
    pts = sorted(fam, key=u.index)
    target = common_neighborhood(u, pts)
    for size in range(len(pts) + 1):
        for combo in combinations(pts, size):
            if common_neighborhood(u, combo) == target:
                return frozenset(combo)


def test_certified_subfamily_matches_the_subset_scan():
    rng = random.Random(48)
    full = _universes_of_24_to_81_points(rng)
    sizes = Counter()
    for _ in range(20):
        for u in full:
            u = SampleUniverse(u.instance, rng.sample(u.points, k=len(u)))
            fam = rng.sample(u.points, k=rng.randint(2, 14))
            res = minimal_subfamily(u, fam)
            assert res.certified
            assert res.points == _first_in_size_lex_order(u, fam), u.instance.kind
            sizes[len(res.points)] += 1
    assert len(sizes) >= 4, sizes


def test_subfamily_past_the_state_budget_is_uncertified(monkeypatch):
    rng = random.Random(49)
    full = _universes_of_24_to_81_points(rng)
    for u in full[:-1]:  # the complete graph drops every generator at once
        fam = rng.sample(u.points, k=rng.randint(8, 20))
        greedy = _greedy_subfamily_to_fixpoint(u, fam)
        for limit in (1, 2, 3, 5):
            with monkeypatch.context() as m:
                m.setattr("noetherlab.errors.STATE_LIMIT", limit)
                res = minimal_subfamily(u, fam)
            _assert_generates(u, res, fam)
            assert not res.certified, (u.instance.kind, limit)
            assert len(res.points) <= len(greedy)


@pytest.mark.parametrize("kind", ["line", "planar", "hamming-uniform"])
def test_subfamily_of_every_point_of_a_4096_point_universe(kind):
    u = {
        "line": lambda: line_universe(4096),
        "planar": lambda: planar_unit_universe(random.Random(3), 4096),
        "hamming-uniform": lambda: make_uniform_hamming(6, 4),
    }[kind]()
    u.closed_masks  # built before the clock starts
    started = time.perf_counter()
    res = minimal_subfamily(u, u.points)
    assert time.perf_counter() - started < 2
    _assert_generates(u, res, u.points)
    assert res.certified and len(res.points) == 2
    assert len(res.points) <= len(_greedy_subfamily_to_fixpoint(u, u.points))


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


def _assert_descends(chain):
    """Extents strictly descend and each step adds one generator."""
    extents = [e.extent for e in chain.elements]
    gens = [e.generators[0] for e in chain.elements]
    assert gens[0] == frozenset()
    for a, b in zip(extents, extents[1:]):
        assert b < a
    for a, b in zip(gens, gens[1:]):
        assert a < b and len(b - a) == 1


def test_descent_chain_past_the_state_budget_is_uncertified(monkeypatch):
    rng = random.Random(4)
    universes = [line_universe(12)] + [
        random_explicit_universe(rng, 12, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    shorter = 0
    for u in universes:
        # No chain reaches all 12 points, so the whole search runs.
        exact = longest_descent_chain(u, max_arity=12)
        assert exact.certified and len(exact) <= 12
        for limit in (1, 2, 3, 5):
            with monkeypatch.context() as m:
                m.setattr("noetherlab.errors.STATE_LIMIT", limit)
                chain = longest_descent_chain(u, max_arity=12)
            _assert_descends(chain)
            assert chain.elements[0].extent == frozenset(u.points)
            assert not chain.certified
            assert len(chain) <= len(exact)
            shorter += len(chain) < len(exact)
        assert longest_descent_chain(u, max_arity=12) == exact
    assert shorter


def test_closed_family_element_recompute():
    line = line_universe(3)
    elem = ClosedFamilyElement.of(line, [[pt(0)], [pt(2)]])
    assert elem.extent == frozenset(line.points)  # N[0] u N[2] = {0,1} u {1,2}


def _exhaustive_picks_scanning_every_point(universe, max_arity):
    """The exhaustive chain's generators, scoring every i in every state."""
    n, closed = len(universe), universe.closed_masks
    memo = {}

    def best_from(extent, arity_left):
        if (extent, arity_left) not in memo:
            best = (0, None)
            for i in range(n if arity_left else 0):
                nxt = extent & closed[i]
                if nxt != extent:
                    steps = best_from(nxt, arity_left - 1)[0] + 1
                    if steps > best[0]:
                        best = (steps, i)
            memo[extent, arity_left] = best
        return memo[extent, arity_left]

    picks, extent = [], universe.full_mask
    for arity in range(max_arity, 0, -1):
        pick = best_from(extent, arity)[1]
        if pick is None:
            break
        picks.append(universe.points[pick])
        extent &= closed[pick]
    return picks


def test_descent_exhaustive_early_exit_matches_full_scan():
    """The exhaustive route stops scanning a state once a chain uses up the
    arity left; its chain must equal the one a full scan picks."""
    rng = random.Random(20261019)
    full_length = 0
    for trial in range(150):
        u = random_universe(rng, 10)
        max_arity = rng.randint(1, 6)
        chain = longest_descent_chain(u, max_arity)
        picks = _exhaustive_picks_scanning_every_point(u, max_arity)
        assert chain.certified
        assert [e.generators[0] for e in chain.elements] == [
            frozenset(picks[:k]) for k in range(len(picks) + 1)
        ], (trial, len(u), max_arity)
        full_length += len(picks) == max_arity
    assert full_length >= 20


def _universes_of_11_to_14_points(rng):
    """One universe of each kind, cut down to 11-14 points in random order."""
    dense_line = SampleUniverse(
        distance_graph(1, ["1/64", "1/16", "1/4"]), [pt(Fraction(i, 8)) for i in range(1, 16)]
    )
    builders = [
        lambda: _rational_distance_universe(rng),
        lambda: planar_unit_universe(rng, 14),
        clustered_line_universe,
        lambda: dense_line,
        lambda: _curve_universe(rng),
        lambda: make_uniform_hamming(2, 4),
        lambda: make_diagonal_hamming(4),
        lambda: random_explicit_universe(rng, 14, rng.uniform(0.1, 0.7)),
    ]
    for build in builders:
        u = build()
        while len(u) < 11:
            u = build()
        yield SampleUniverse(u.instance, rng.sample(u.points, k=rng.randint(11, min(14, len(u)))))


def test_descent_chain_matches_full_scan_past_ten_points():
    rng = random.Random(20261020)
    full_length = 0
    for trial in range(25):
        for u in _universes_of_11_to_14_points(rng):
            max_arity = rng.randint(1, 7)
            chain = longest_descent_chain(u, max_arity)
            picks = _exhaustive_picks_scanning_every_point(u, max_arity)
            assert chain.certified
            assert [e.generators[0] for e in chain.elements] == [
                frozenset(picks[:k]) for k in range(len(picks) + 1)
            ], (trial, u.instance.kind, len(u), max_arity)
            full_length += len(picks) == max_arity
    # chains that use up the arity and chains that stop short both occur
    assert 20 <= full_length <= 180


def test_descent_chain_certifies_four_steps_on_the_scale_shapes():
    rng = random.Random(20261018)
    for u in [
        make_uniform_hamming(5, 3),
        make_uniform_hamming(8, 2),
        make_diagonal_hamming(5),
        line_universe(300),
        planar_unit_universe(rng, 150),
        random_explicit_universe(rng, 300, 0.05),
    ]:
        chain = longest_descent_chain(u, 4)
        assert chain.certified and len(chain) == 5, len(u)
        _assert_descends(chain)


def test_descent_chain_of_a_thousand_steps_needs_no_recursion():
    # Each closed neighborhood misses only the point's partner, so each
    # step removes one point: the chain takes every point, n steps deep.
    n = 1024
    u = explicit_universe(n, [(i, j) for i in range(n) for j in range(i + 1, n) if j != i ^ 1])
    started = time.perf_counter()
    chain = longest_descent_chain(u, max_arity=n)
    assert time.perf_counter() - started < 10
    assert chain.certified and len(chain) == n + 1
    assert [len(e.extent) for e in chain.elements] == list(range(n, -1, -1))
