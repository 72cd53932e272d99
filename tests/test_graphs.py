import ast
import random
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import noetherlab

from conftest import explicit_universe, universes_of_every_kind
from noetherlab import (
    Location,
    SampleUniverse,
    TaggedBox,
    TwoVarPoly,
    adjacent,
    box_contains,
    box_edge_free,
    box_within,
    boxes_disjoint,
    common_neighborhood,
    curve_difference_graph,
    distance_graph,
    explicit_graph,
    hamming_diagonal,
    hamming_uniform,
    neighborhood,
    pt,
    squared_distance,
    vertex_point,
)
from noetherlab.campaign import _CURVES, _pairwise_masks
from noetherlab.control_poset import _box_vertices
from noetherlab.errors import (
    InvalidPointError,
    LocationError,
    UnknownPointError,
    UnsupportedKindError,
)
from noetherlab.generators import (
    clustered_line_universe,
    line_universe,
    path_explicit_universe,
    planar_unit_universe,
    random_explicit_universe,
    random_universe,
)
from noetherlab.graphs import _exact_adjacent
from noetherlab.hamming import DEFAULT_SIZE_BOUND, make_diagonal_hamming, make_uniform_hamming
from noetherlab.serialize import MAX_CURVE_POINTS, MAX_POWER, universe_from_json


def test_distance_adjacency_examples():
    line = distance_graph(1, [1])
    assert adjacent(line, pt(0), pt(1))
    assert not adjacent(line, pt(0), pt(2))
    plane = distance_graph(2, [1])
    # 9/25 + 16/25 = 1, exactly
    assert adjacent(plane, pt(0, 0), pt("3/5", "4/5"))
    assert not adjacent(plane, pt(0, 0), pt("3/5", "3/5"))


def test_hamming_diagonal_adjacency():
    inst = hamming_diagonal(3)
    assert adjacent(inst, pt(0, 0, 0), pt(0, 0, 2))
    assert not adjacent(inst, pt(0, 0, 0), pt(0, 1, 1))
    with pytest.raises(InvalidPointError):
        adjacent(inst, pt(0, 0, 5), pt(0, 0, 0))  # 5 > diagonal bound


def test_adjacency_irreflexive_and_dim_checked():
    line = distance_graph(1, [1])
    assert not adjacent(line, pt(0), pt(0))
    with pytest.raises(InvalidPointError):
        adjacent(line, pt(0, 0), pt(1))


def test_curve_difference_parabola():
    inst = curve_difference_graph(TwoVarPoly.from_dict({(0, 1): 1, (2, 0): -1}))
    # difference (1, 1) lies on v = u^2
    assert adjacent(inst, pt(1, 1), pt(0, 0))
    assert adjacent(inst, pt(0, 0), pt(1, 1))  # the "or" branch
    assert not adjacent(inst, pt(0, 0), pt(1, 2))


def test_neighborhood_examples():
    u = line_universe(3)
    assert neighborhood(u, pt(1)) == frozenset(u.points)
    with pytest.raises(UnknownPointError):
        neighborhood(u, pt(7))
    edgeless = explicit_universe(2, [])
    v = vertex_point(0)
    assert neighborhood(edgeless, v) == frozenset([v])
    tri = explicit_universe(3, [(0, 1), (1, 2), (0, 2)])
    assert neighborhood(tri, vertex_point(0)) == frozenset(tri.points)


def test_common_neighborhood_examples():
    u = line_universe(3)
    assert common_neighborhood(u, [pt(0), pt(2)]) == frozenset([pt(1)])
    assert common_neighborhood(u, []) == frozenset(u.points)
    assert common_neighborhood(u, [pt(1)]) == neighborhood(u, pt(1))


def test_common_neighborhood_laws_randomized():
    rng = random.Random(5)
    for _ in range(100):
        u = random_universe(rng, 10)
        pts = u.points
        a = frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
        b = frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
        assert common_neighborhood(u, a | b) == (
            common_neighborhood(u, a) & common_neighborhood(u, b)
        )
        if a <= b:
            assert common_neighborhood(u, b) <= common_neighborhood(u, a)


def test_points_of_matches_the_scan_over_every_point():
    rng = random.Random(12)
    universes = [line_universe(300), path_explicit_universe(300)]
    for _ in range(20):
        universes += universes_of_every_kind(rng)
    for u in universes:
        masks = [0, u.full_mask] + [rng.getrandbits(len(u)) for _ in range(5)]
        masks += [u.closed_masks[rng.randrange(len(u))] for _ in range(5)]
        for mask in masks:
            # the old points_of; set iteration order, and so report bytes,
            # follow the insertion order, which must stay index order
            scanned = frozenset(p for i, p in enumerate(u.points) if mask >> i & 1)
            assert list(u.points_of(mask)) == list(scanned)
            assert u.ordered_points_of(mask) == [p for i, p in enumerate(u.points) if mask >> i & 1]


def _shuffled_subset(rng, points):
    return rng.sample(points, k=rng.randint(1, len(points)))


def test_masks_match_pairwise_adjacency_for_every_kind():
    rng = random.Random(7)
    # 1-D: mixed denominators; 1/4 is a rational square, 2 is not
    line = distance_graph(1, [1, "1/4", 2])
    line_pts = [pt(0), pt("1/2"), pt(1), pt("3/2"), pt("1/3"), pt("4/3"), pt("5/6"), pt(3)]
    # 2-D: mixed denominators, and 2 = |(1, 1)|^2 is not a rational square
    plane = distance_graph(2, [1, 2])
    plane_pts = [
        pt(0, 0), pt("3/5", "4/5"), pt(1, 1), pt("1/2", "1/3"), pt(1, 0),
        pt("3/2", "4/3"), pt("8/5", "4/5"), pt("-2/7", 1),
    ]
    space = distance_graph(3, ["9/4", 3])
    space_pts = [pt(0, 0, 0), pt(1, 1, 1), pt("3/2", 0, 0), pt(1, "5/2", 1), pt(0, "3/2", "1/7")]
    parabola = curve_difference_graph(TwoVarPoly.from_dict({(0, 1): 1, (2, 0): -1}))
    parabola_pts = [pt(a, b) for a in range(-2, 3) for b in range(-1, 4)]
    graph = explicit_graph(8, [(0, 1), (1, 2), (2, 7), (3, 5), (0, 6), (4, 6)])
    universes = [
        SampleUniverse(line, line_pts),
        SampleUniverse(plane, plane_pts),
        SampleUniverse(space, space_pts),
        SampleUniverse(parabola, parabola_pts),
        SampleUniverse(graph, [vertex_point(i) for i in range(8)]),
        clustered_line_universe(),
    ]
    for full in (make_uniform_hamming(3, 3), make_diagonal_hamming(4), universes[4]):
        universes.append(full)
        universes.append(SampleUniverse(full.instance, _shuffled_subset(rng, full.points)))
    # Hamming subsets whose entries skip a value ({0, 2} only, everywhere or
    # in the last entry) or lack the top value, and the empty and one-point
    # universes
    cube, diagonal = make_uniform_hamming(3, 3), make_diagonal_hamming(4)
    universes += [
        SampleUniverse(cube.instance, [p for p in cube.points if 1 not in p.coords]),
        SampleUniverse(cube.instance, [p for p in cube.points if p.coords[2] != 1]),
        SampleUniverse(cube.instance, [p for p in cube.points if p.coords[0] < 2]),
        SampleUniverse(diagonal.instance, [p for p in diagonal.points if p.coords[3] < 3]),
        SampleUniverse(cube.instance, []),
        SampleUniverse(diagonal.instance, [pt(0, 1, 0, 3)]),
    ]
    # the planar builder's inline squared gap, across many grid cells
    universes.append(planar_unit_universe(random.Random(150), 150))
    # one Hamming line (breadth 1), one word (alphabet 1), a shuffled subset
    # of 3^5, and a 1-D sample with two integer roots; drawn from their own
    # rng, so the draws of the cases above and below stay the same
    extra = random.Random(28)
    cube5 = make_uniform_hamming(5, 3)
    roots = distance_graph(1, [1, 4])
    universes += [
        make_uniform_hamming(1, 5),
        make_uniform_hamming(4, 1),
        SampleUniverse(cube5.instance, _shuffled_subset(extra, cube5.points)),
        SampleUniverse(
            roots, [pt(x) for x in extra.sample(range(-6, 7), 13)] + [pt("1/2"), pt("5/2")]
        ),
    ]
    assert universes[-4].closed_masks == [0b11111] * 5
    assert universes[-3].closed_masks == [1]
    for u in universes:
        assert u.closed_masks == _pairwise_masks(u), u.instance.kind
    assert universes[0].closed_masks[0] == 0b111  # 0 ~ 1/2, 1
    assert universes[0].closed_masks[4] == 0b1110000  # 1/3 ~ 4/3, 5/6
    assert universes[1].closed_masks[0] == 0b10111  # (0,0) ~ (3/5,4/5), (1,1), (1,0)
    assert universes[1].closed_masks[3] == 0b101000  # (1/2,1/3) ~ (3/2,4/3)
    for _ in range(100):
        u = random_universe(rng, 12)
        u = SampleUniverse(u.instance, _shuffled_subset(rng, u.points))
        assert u.closed_masks == _pairwise_masks(u)


def _fraction_adjacent(instance, x, y):
    """The Fraction pair predicate, kept as the reference for _exact_adjacent."""
    if x == y:
        return False
    if instance.kind == "distance":
        return squared_distance(x, y) in instance.squared_distances
    if instance.kind in ("hammingUniform", "hammingDiagonal"):
        return sum(1 for a, b in zip(x.coords, y.coords) if a != b) == 1
    return tuple(sorted((int(x.coords[0]), int(y.coords[0])))) in instance.edges


def test_integer_pair_predicate_matches_the_fraction_one():
    rng = random.Random(23)
    denominators = (1, 2, 3, 4, 7, 12, 10**9 + 7, 2**61 - 1)
    for dim in (1, 2, 3, 4):
        for _ in range(6):
            coords = {
                tuple(Fraction(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(dim))
                for _ in range(12)
            }
            points = [pt(*c) for c in sorted(coords)]
            # targets that pairs hit, with large denominators, and targets
            # whose value no pair's denominator scales to an integer
            hit = {squared_distance(*rng.sample(points, 2)) for _ in range(3)}
            for targets in (hit, hit | {Fraction(1, 3), Fraction(5, 11)}, {1, "1/4", 2}):
                instance = distance_graph(dim, targets)
                pairs = [(x, y) for x in points for y in points]
                got = [_exact_adjacent(instance, x, y) for x, y in pairs]
                assert got == [_fraction_adjacent(instance, x, y) for x, y in pairs]
                if targets is hit:
                    assert any(got)
                assert not any(_exact_adjacent(instance, x, x) for x in points)
    # integer coordinates, and points at mixed denominators on one target
    plane = distance_graph(2, [1, 2])
    for x, y, expected in (
        (pt(0, 0), pt("3/5", "4/5"), True),
        (pt("-1/2", "1/3"), pt("1/2", "4/3"), True),
        (pt("1/7", "-2/3"), pt("8/7", "-2/3"), True),
        (pt(0, 0), pt("3/5", "3/5"), False),
        (pt(-3, 5), pt(-2, 6), True),
    ):
        assert _exact_adjacent(plane, x, y) is _fraction_adjacent(plane, x, y) is expected
    # Hamming pairs differ in 0, 1 or 2 entries; explicit pairs include u = v
    for u in (
        make_uniform_hamming(3, 3),
        make_diagonal_hamming(4),
        random_explicit_universe(rng, 12, 0.4),
    ):
        pairs = [(x, y) for x in u.points for y in u.points]
        got = [_exact_adjacent(u.instance, x, y) for x, y in pairs]
        assert got == [_fraction_adjacent(u.instance, x, y) for x, y in pairs]
        assert any(got) and not all(got)


def test_integer_curve_predicate_matches_evaluate():
    rng = random.Random(31)
    denominators = (1, 2, 3, 5, 12, 10**9 + 7)

    def draw(span=6):
        return pt(*(Fraction(rng.randint(-span, span), rng.choice(denominators)) for _ in range(2)))

    polys = [TwoVarPoly.from_dict(terms) for terms in _CURVES]
    planted = []
    for _ in range(12):
        # random terms up to MAX_POWER, and a constant that makes p vanish
        # at the difference of two drawn points, so that some pairs hit
        terms = {
            (rng.randint(0, MAX_POWER), rng.randint(0, MAX_POWER)):
                Fraction(rng.randint(-5, 5), rng.choice(denominators))
            for _ in range(rng.randint(1, 4))
        }
        terms.pop((0, 0), None)
        x, y = draw(), draw()
        u, v = x.coords[0] - y.coords[0], x.coords[1] - y.coords[1]
        terms[(0, 0)] = -TwoVarPoly.from_dict(terms).evaluate(u, v)
        polys.append(TwoVarPoly.from_dict(terms))
        planted.append((x, y))
    hits = 0
    for n, p in enumerate(polys):
        instance = curve_difference_graph(p)
        # a small grid, so that many pairs share a coordinate: zero differences
        points = {draw(2) for _ in range(10)} | {pt(0, 0), pt("3/5", "4/5"), pt(1, 1)}
        if n >= len(_CURVES):
            points |= set(planted[n - len(_CURVES)])
        for x in points:
            for y in points:
                u, v = x.coords[0] - y.coords[0], x.coords[1] - y.coords[1]
                expected = x != y and (p.evaluate(u, v) == 0 or p.evaluate(-u, -v) == 0)
                assert _exact_adjacent(instance, x, y) is expected, (p, x, y)
                hits += expected
        if n >= len(_CURVES):
            x, y = planted[n - len(_CURVES)]
            assert x == y or _exact_adjacent(instance, x, y) and _exact_adjacent(instance, y, x)
    assert hits > 0
    # only p(-u, -v) vanishes on (x, y), and only p(u, v) on (y, x)
    shifted = curve_difference_graph(TwoVarPoly.from_dict({(1, 0): 1, (0, 0): "-1/2"}))
    x, y = pt(0, 0), pt("1/2", 3)
    assert shifted.poly.evaluate(Fraction(-1, 2), Fraction(-3)) != 0
    assert _exact_adjacent(shifted, x, y) and _exact_adjacent(shifted, y, x)
    # the zero polynomial joins every pair of distinct points, a constant none
    zero = curve_difference_graph(TwoVarPoly.from_dict({(1, 0): 0}))
    constant = curve_difference_graph(TwoVarPoly.from_dict({(0, 0): "2/3"}))
    assert _exact_adjacent(zero, x, y) and not _exact_adjacent(zero, x, x)
    assert not _exact_adjacent(constant, x, y)


def test_integer_curve_builder_matches_pairwise():
    rng = random.Random(29)
    polys = [
        # the non-integer coefficient 1/3 on mixed denominators
        {(2, 0): 1, (0, 2): 1, (1, 1): "1/3", (0, 0): -1},
        # p(0, 0) = 0: the axes, and a parabola through the origin
        {(1, 1): 1},
        {(0, 1): "2/5", (2, 0): -1},
        # odd parts, so that often only p(-u, -v) vanishes
        {(1, 0): 1, (0, 0): "-1/2"},
        {(3, 0): 1, (0, 1): "-3/4", (0, 0): "1/4"},
        {(0, 2): "-5/7", (1, 0): 1, (0, 0): "5/7"},
        # the zero polynomial joins every pair, a nonzero constant none
        {(1, 0): 0},
        {(0, 0): "2/3"},
    ]
    for terms in polys:
        instance = curve_difference_graph(TwoVarPoly.from_dict(terms))
        coords = {
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
            for _ in range(60)
        }
        u = SampleUniverse(instance, [pt(*c) for c in rng.sample(sorted(coords), k=len(coords))])
        assert u.closed_masks == _pairwise_masks(u), terms
    # one pair where only p(-u, -v) vanishes, in either point order
    shifted = curve_difference_graph(TwoVarPoly.from_dict({(1, 0): 1, (0, 0): "-1/2"}))
    for order in ([pt(0, 0), pt("1/2", 3)], [pt("1/2", 3), pt(0, 0)]):
        assert SampleUniverse(shifted, order).closed_masks == [0b11, 0b11]


def _grid_subset(rng, span, dim, k, denominators=(1,)):
    points = {
        tuple(Fraction(rng.randint(*span), rng.choice(denominators)) for _ in range(dim))
        for _ in range(k)
    }
    return [pt(*p) for p in sorted(points)]


def test_grid_cell_distance_builder_matches_pairwise():
    """The dimension >= 2 builder compares only points in neighbouring cells.

    With integer points and max target 25 the cell side is r = 6, so a grid
    around the origin holds pairs exactly r - 1 = 5 apart (adjacent, often
    across a cell boundary and across every forward offset) and pairs
    exactly r = 6 apart (in neighbouring cells, not adjacent).
    """
    rng = random.Random(41)
    cases = [
        # negative coordinates and mixed denominators
        (distance_graph(2, [1, 2, "25/4", "13/9"]), _grid_subset(rng, (-6, 6), 2, 80, (1, 2, 3))),
        # r - 1 and r apart: r = 6 on integer points
        (distance_graph(2, [25]), [pt(a, b) for a in range(-6, 8) for b in range(-5, 5)]),
        (distance_graph(2, [25, 36]), _grid_subset(rng, (-14, 14), 2, 120)),
        # 1/4 does not scale to an integer at D = 1, and 2 is not a square
        (distance_graph(2, ["1/4", 2]), [pt(a, b) for a in range(-3, 4) for b in range(-3, 4)]),
        (distance_graph(2, ["1/9", 3, "5/4"]), _grid_subset(rng, (-6, 6), 2, 60, (1, 2))),
        # every point in one cell: r = 1001 and all coordinates in [0, 20]
        (distance_graph(2, [1, 25, 10**6]), _grid_subset(rng, (0, 20), 2, 80)),
        # dimensions 3 and 4; 35 = 5^2 + 3^2 + 1^2 puts r - 1 = 5 in one coordinate
        (distance_graph(3, [1, 2, 3, "9/4", 35]), _grid_subset(rng, (-4, 4), 3, 120, (1, 2))),
        (distance_graph(3, [35]), [pt(a, b, c) for a in range(-1, 7) for b in range(-1, 5) for c in range(2)]),
        (distance_graph(4, [1, 2, 4, "5/4"]), _grid_subset(rng, (-2, 2), 4, 120, (1, 2))),
    ]
    for instance, points in cases:
        u = SampleUniverse(instance, rng.sample(points, k=len(points)))
        assert u.closed_masks == _pairwise_masks(u), instance
    # the r - 1 grid has edges across cells; the (1/4, 2) grid only diagonal ones
    assert sum(m.bit_count() - 1 for m in SampleUniverse(*cases[1]).closed_masks) > 0
    diag = SampleUniverse(*cases[3])
    assert sum(m.bit_count() - 1 for m in diag.closed_masks) == 2 * 2 * 6 * 6


def test_grid_cell_builder_counts_planar_unit_pairs():
    """A 2000-point planar sample against an all-pairs integer count."""
    u = planar_unit_universe(random.Random(3), 2000)
    d = 1
    for p in u.points:
        d = lcm(d, *(c.denominator for c in p.coords))
    ints = [tuple(c.numerator * (d // c.denominator) for c in p.coords) for p in u.points]
    target = d * d
    expected = 0
    for i, (xi, yi) in enumerate(ints):
        expected += sum(1 for xj, yj in ints[i + 1 :] if (xi - xj) ** 2 + (yi - yj) ** 2 == target)
    assert expected > 2000
    assert sum(m.bit_count() - 1 for m in u.closed_masks) == 2 * expected


def test_masks_build_within_budget_at_the_size_bound():
    """Each kind's largest accepted universe builds its masks in an
    acceptance-style budget of 10 s (curve-difference has its own point
    bound, tested below)."""
    builds = {
        "uniform Hamming 2^12": (lambda: make_uniform_hamming(12, 2), 4096 * 12 // 2),
        "diagonal Hamming 6": (lambda: make_diagonal_hamming(6), 720 * 6 * 5 // 4),
        "planar 4096": (lambda: planar_unit_universe(random.Random(4096), 4096), None),
        "line 4096": (lambda: line_universe(4096), 4095),
        "path 4096": (lambda: path_explicit_universe(4096), 4095),
    }
    for name, (make, edges) in builds.items():
        universe = make()
        assert len(universe) in (720, 4096), name
        started = time.monotonic()
        masks = universe.closed_masks
        elapsed = time.monotonic() - started
        assert elapsed < 10, f"{name}: {elapsed:.1f}s"
        if edges is not None:
            assert sum(m.bit_count() - 1 for m in masks) == 2 * edges, name


def test_curve_masks_build_within_budget_at_the_point_bound():
    """A curve-difference file at MAX_CURVE_POINTS random points, with a
    term at MAX_POWER, parses and builds its masks within 10 s."""
    rng = random.Random(MAX_CURVE_POINTS)
    coords = set()
    while len(coords) < MAX_CURVE_POINTS:
        coords.add(tuple(Fraction(rng.randint(-80, 80), rng.randint(1, 4)) for _ in range(2)))
    universe = universe_from_json({
        "instance": {"kind": "curveDifference", "poly": [
            {"powers": [MAX_POWER, 0], "coeff": "1"}, {"powers": [0, 1], "coeff": "-1"},
        ]},
        "points": [[str(c) for c in xy] for xy in sorted(coords)],
    })
    assert len(universe) == MAX_CURVE_POINTS
    started = time.monotonic()
    masks = universe.closed_masks
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"{elapsed:.1f}s"
    assert len(masks) == MAX_CURVE_POINTS


def test_reference_adjacent_is_the_coordinate_route():
    rng = random.Random(8)
    for _ in range(30):
        # a fresh copy: the fixed builders share universes whose masks an
        # earlier caller may have built
        shared = random_universe(rng, 10)
        u = SampleUniverse(shared.instance, shared.points)
        pairs = [(x, y) for x in u.points for y in u.points]
        got = [u.reference_adjacent(x, y) for x, y in pairs]
        assert "closed_masks" not in vars(u)  # never reads the masks
        assert got == [adjacent(u.instance, x, y) for x, y in pairs]
    u = line_universe(3)
    with pytest.raises(UnknownPointError):
        u.reference_adjacent(pt(0), pt(5))
    with pytest.raises(UnknownPointError):
        u.reference_adjacent(pt(7), pt(1))


# (builder, arguments, other arguments) for each fixed universe builder
_FIXED_BUILDERS = [
    (line_universe, (5,), (6,)),
    (path_explicit_universe, (5,), (6,)),
    (clustered_line_universe, (), None),
    (make_diagonal_hamming, (3,), (4,)),
    (make_uniform_hamming, (2, 3), (3, 2)),
]


def test_fixed_builders_share_one_universe_per_argument_tuple():
    for build, args, other in _FIXED_BUILDERS:
        u = build(*args)
        assert build(*args) is u, build.__name__
        if other is not None:
            assert build(*other) is not u and len(build(*other)) != len(u), build.__name__
        assert build.cache_info().maxsize == 16, build.__name__
    for n in range(3, 23):
        line_universe(n)
    assert line_universe.cache_info().currsize == 16
    assert vertex_point(7) is vertex_point(7)
    assert vertex_point(7) is not vertex_point(8)
    assert vertex_point(7) == pt(7)
    assert vertex_point.cache_info().maxsize == DEFAULT_SIZE_BOUND
    # the shared universes hold the shared vertex points
    assert path_explicit_universe(5).points[3] is vertex_point(3)


def test_universe_refuses_attribute_writes():
    for u in (line_universe(4), SampleUniverse(distance_graph(1, [1]), [pt(0), pt(1)])):
        before = (u.instance, u.points, dict(u._index))
        for name in ("instance", "points", "_index", "closed_masks", "open_masks", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(u, name, None)
        for name in ("instance", "points", "closed_masks"):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(u, name)
        assert (u.instance, u.points, u._index) == before


def test_masks_stay_cached_and_rebuild_once_popped():
    u = SampleUniverse(distance_graph(1, [1]), [pt(i) for i in range(5)])
    masks = u.closed_masks
    assert u.closed_masks is masks and vars(u)["closed_masks"] is masks
    assert u.__dict__.pop("closed_masks") is masks
    rebuilt = u.closed_masks
    assert rebuilt is not masks and rebuilt == masks == [0b11, 0b111, 0b1110, 0b11100, 0b11000]


# Library logic reads adjacency from a universe's masks.  The exact pairwise
# predicate runs only on the independent second routes below: re-verifiers,
# the law and agreement suites, and the CLI's pair query.  A new use
# elsewhere fails here.
_REFERENCE_ROUTES = {
    ("campaign", "_adjacency_laws", "adjacent"),
    ("campaign", "_pairwise_masks", "reference_adjacent"),
    ("campaign", "_lattice_laws", "reference_adjacent"),
    ("campaign", "_liminf_thin", "reference_adjacent"),
    ("cli", "_cmd_adj", "adjacent"),
    ("coloring", "check_proper", "_exact_adjacent"),
    ("graphs", "adjacent", "_exact_adjacent"),
    ("graphs", "SampleUniverse.reference_adjacent", "_exact_adjacent"),
    ("patterns", "PatternWitness.verify", "reference_adjacent"),
    ("patterns", "find_clique", "reference_adjacent"),
}


def _package_nodes():
    """(module, enclosing function, node) for every AST node of the package."""

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, module, scope + (child.name,))
                continue
            yield module, ".".join(scope), child
            yield from visit(child, module, scope)

    for path in sorted(Path(noetherlab.__file__).parent.glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())


def _adjacency_uses() -> set:
    """(module, enclosing function, name) for every use of the pair predicate."""
    names = {"adjacent", "reference_adjacent", "_exact_adjacent"}
    uses = set()
    for module, scope, node in _package_nodes():
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in names and isinstance(getattr(node, "ctx", None), ast.Load):
            uses.add((module, scope, name))
    return uses


def test_pair_predicate_only_on_reference_routes():
    assert _adjacency_uses() == _REFERENCE_ROUTES


# Every condition carries its universe, and a family's universe is its first
# member's, so a universe parameter beside a condition is a second source for
# it.  Those listed here need one where the conditions may not give it; a new
# one fails here until it is listed with its reason.
_UNIVERSE_BESIDE_A_CONDITION = {
    ("coloring", "stitch_colorings"): "its base condition p may be None",
    ("coloring_poset", "p_lower_bound"): "its family of conditions may be empty",
    ("control_poset", "_color_classes"):
        "the universe is the one whose masks the classes meet, another member's",
}


def test_no_universe_parameter_beside_a_condition():
    found = set()
    for module in ("coloring", "coloring_poset", "control_poset"):
        path = Path(noetherlab.__file__).parent / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            # every name inside the annotations, so Sequence[QCondition] counts
            annotated = {
                n.id for a in params if a.annotation for n in ast.walk(a.annotation)
                if isinstance(n, ast.Name)
            }
            if "universe" in {a.arg for a in params} and annotated & {"PCondition", "QCondition"}:
                found.add((module, node.name))
    assert found == set(_UNIVERSE_BESIDE_A_CONDITION)


# The exact pairwise and Fraction routes that the faster routes are checked
# against.  They share no arithmetic with those routes: no integer
# coordinates, and neither of geometry's rescaling rules.
_REFERENCE_ARITHMETIC = {
    ("graphs", "_exact_adjacent"),
    ("graphs", "adjacent"),
    ("graphs", "SampleUniverse.reference_adjacent"),
    ("geometry", "squared_distance"),
    ("geometry", "TaggedBox.intervals"),
    ("coloring", "check_proper"),
    ("campaign", "_pairwise_masks"),
    ("hamming", "vitali_map"),
}


# Point.ints, the integer coordinates, is declared and written by Point and
# read by two mask builders.  The reference routes read coords only, so they
# share nothing with the builders; a new reader anywhere fails here.
_INTEGER_COORDINATE_ROUTES = {
    ("geometry", "Point"),
    ("geometry", "Point.__init__"),
    ("graphs", "_explicit_masks"),
    ("graphs", "_hamming_masks"),
    ("hamming", "verify_vitali_homomorphism"),
}


def test_integer_coordinates_only_on_point_and_the_mask_builders():
    uses = {
        (module, scope)
        for module, scope, node in _package_nodes()
        if getattr(node, "attr", None) == "ints"
        or (isinstance(node, ast.Constant) and node.value == "ints")
    }
    assert uses == _INTEGER_COORDINATE_ROUTES
    scopes = {(module, scope) for module, scope, _ in _package_nodes()}
    assert _REFERENCE_ARITHMETIC <= scopes and not _REFERENCE_ARITHMETIC & uses


# Each rescaling rule of geometry has one helper: the common denominator D
# with the targets D^2 * s, and the common level of two boxes.  These are
# every function that reads them; a new reader fails here.
_RESCALING_ROUTES = {
    ("geometry", "box_within", "_common_level"),
    ("geometry", "boxes_disjoint", "_common_level"),
    ("graphs", "box_edge_free", "_common_level"),
    ("graphs", "_distance_masks", "_common_scale"),
    ("graphs", "_distance_masks", "_scaled_targets"),
    ("graphs", "_curve_difference_masks", "_common_scale"),
    ("hamming", "verify_vitali_homomorphism", "_common_scale"),
    ("hamming", "verify_embedding", "_common_scale"),
    ("hamming", "verify_embedding", "_scaled_targets"),
}


def test_rescaling_rules_have_one_helper_each_and_no_reference_reads_them():
    helpers = {"_common_scale", "_scaled_targets", "_common_level"}
    uses = {
        (module, scope, node.id)
        for module, scope, node in _package_nodes()
        if isinstance(node, ast.Name) and node.id in helpers
    }
    assert uses == _RESCALING_ROUTES
    assert not {(module, scope) for module, scope, _ in uses} & _REFERENCE_ARITHMETIC
    # no other function takes a common denominator of its own, and the
    # Fraction intervals are left to the repr and the tests
    for module, scope, node in _package_nodes():
        if isinstance(node, ast.Name) and node.id == "lcm":
            assert (module, scope) == ("geometry", "_common_scale")
        if isinstance(node, ast.Attribute) and node.attr == "intervals":
            assert (module, scope) == ("geometry", "TaggedBox.__repr__")


def test_box_pair_predicates_refuse_different_dimensions():
    line = TaggedBox(tag=0, level=1, corners=(0,))
    plane = TaggedBox(tag=0, level=2, corners=(0, 9))  # overlaps line on x
    line_graph = distance_graph(1, [1])
    predicates = (box_within, boxes_disjoint, lambda a, b: box_edge_free(line_graph, a, b))
    for predicate in predicates:
        for a, b in ((line, plane), (plane, line)):
            with pytest.raises(InvalidPointError, match="box dimensions differ: "):
                predicate(a, b)


def test_boxes_of_another_dimension_than_the_instance_are_refused():
    # both boxes agree with each other, so only the instance's dimension differs
    pair = (TaggedBox(0, 2, (0, 0)), TaggedBox(0, 2, (12, 0)))
    refusal = "box dimension 2 != instance dimension 1"
    line = distance_graph(1, [1])
    with pytest.raises(InvalidPointError, match=refusal):
        box_edge_free(line, *pair)
    for instance in (line, explicit_graph(16, [(0, 1)])):
        for cells in (pair, pair[:1]):
            with pytest.raises(InvalidPointError, match=refusal):
                Location(cells, (0,) * len(cells)).validate(instance)
    plane = distance_graph(2, [1])
    with pytest.raises(InvalidPointError, match="box dimension 1 != instance dimension 2"):
        Location((TaggedBox(0, 3, (5,)),), (0,)).validate(plane)
    Location(pair, (0, 0)).validate(plane)


def test_box_vertices_match_the_scan_of_every_vertex():
    rng = random.Random(37)
    for n in (0, 1, 5, 64):
        for level in range(7):
            bound = 4**level
            corners = {rng.randint(-bound, bound) for _ in range(40)}
            # the ends of the corner range, boxes just below 0 and at or past n
            corners |= {-bound, bound, -2, -1, (n << level) - 1, n << level, (n + 3) << level}
            for m in corners:
                if abs(m) > bound:
                    continue
                box = TaggedBox(0, level, (m,))
                scan = [vertex_point(v) for v in range(n) if box_contains(box, vertex_point(v))]
                assert _box_vertices(box, n) == scan, (n, box)


# Every function of the package that calls itself, with what bounds its
# depth.  A search that recursed once per point or pattern vertex ended in
# a RecursionError on accepted inputs; the searches that grow with the
# input walk explicit stacks.  A new self-recursive function fails here
# until it is listed with its bound.
_SELF_RECURSIVE = {
    ("_kernels", "find_clique.rec"):
        "depth m: the CLI reaches it only after the oracle's 24-point refusal, "
        "the campaign at m = 3",
    ("_kernels", "_dsatur_colorable.rec"): "depth n <= coloring.DEFAULT_ORACLE_BOUND",
    ("coloring", "k_colorable_fixed_order.rec"): "depth n: library callers pass at most 9 points",
    ("campaign", "_chain_by_scanning_every_point.steps_from"): "at most 10 points",
    ("serialize", "_emit"): "the nesting depth of a report",
}


def test_self_recursive_functions_have_a_depth_bound():
    calls = {
        (module, scope)
        for module, scope, node in _package_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == scope.rsplit(".", 1)[-1]
    }
    assert calls == _SELF_RECURSIVE.keys()


def test_universe_rejects_duplicates_and_bad_points():
    line = distance_graph(1, [1])
    with pytest.raises(InvalidPointError):
        SampleUniverse(line, [pt(0), pt(0)])
    with pytest.raises(InvalidPointError):
        SampleUniverse(line, [pt(0, 0)])
    # Hamming entries are naturals below the alphabet, or at most n at entry n
    uniform, diagonal = hamming_uniform(2, 3), hamming_diagonal(3)
    bad = [
        (uniform, pt(0, 3), "entry 3 >= alphabet 3"),
        (uniform, pt(-1, 0), "Hamming entry -1 is not a natural"),
        (uniform, pt("1/2", 0), "Hamming entry 1/2 is not a natural"),
        (diagonal, pt(1, 0, 0), "entry 1 exceeds diagonal bound 0"),
        (diagonal, pt(0, 1, 3), "entry 3 exceeds diagonal bound 2"),
        (explicit_graph(3, []), pt(3), "vertex index 3 out of range"),
        (explicit_graph(3, []), pt(-1), "vertex index -1 out of range"),
        (explicit_graph(3, []), pt("1/2"), "vertex index 1/2 out of range"),
    ]
    for instance, p, message in bad:
        with pytest.raises(InvalidPointError) as caught:
            SampleUniverse(instance, [p])
        assert str(caught.value) == message
    SampleUniverse(uniform, [pt(2, 2)])
    SampleUniverse(diagonal, [pt(0, 1, 2)])


def test_explicit_graph_validation():
    with pytest.raises(ValueError):
        explicit_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        explicit_graph(3, [(0, 5)])


# -- box edge-freeness ---------------------------------------------------------

def _box(corner, level, tag=0):
    return TaggedBox(tag=tag, level=level, corners=(corner,))


def test_edge_free_far_boxes_empty():
    line = distance_graph(1, [1])
    # (-1/4,1/4) vs (7/4,9/4): squared range [9/4, 25/4], misses {1}
    verdict = box_edge_free(line, _box(-1, 2), _box(7, 2))
    assert verdict.status == "empty"


def test_edge_free_planted_witness():
    line = distance_graph(1, [1])
    verdict = box_edge_free(line, _box(-1, 2), _box(3, 2))
    assert verdict.status == "nonempty"
    # corroborated by a hand-picked edge: 0 in (-1/4, 1/4), 1 in (3/4, 5/4)
    assert box_contains(_box(-1, 2), pt(0)) and box_contains(_box(3, 2), pt(1))
    assert squared_distance(pt(0), pt(1)) == 1


def test_edge_free_boundary_unknown():
    line = distance_graph(1, [1])
    # (-1/4,1/4) vs (3/4+..): pick boxes with achievable range touching 1
    # (0,2) vs (0,2): delta in [-2,2], squared range [0,4]; 1 interior -> nonempty
    verdict = box_edge_free(line, _box(0, 0), _box(0, 0))
    assert verdict.status == "nonempty"
    # boxes (-1,1) and (1,3) at level 0: delta in [-2+1? ...] = [1-1... ]
    # delta range [1-1, 3+1] = [0,4]; squared [0,16]; 1 interior -> nonempty
    # boundary case: squared distance set {4} with boxes (-1,1),(1,3):
    # delta in [0,4] -> squared [0,16], 4 interior; use set {16} for boundary
    far = distance_graph(1, [16])
    verdict = box_edge_free(far, _box(-1, 0), _box(1, 0))
    assert verdict.status == "unknown"


def test_edge_free_nonsquare_interior_has_no_rational_witness():
    # real edge certified by interval analysis even without a rational pair
    irr = distance_graph(1, [2])
    # (-1, 1) vs (0, 2): the squared range [0, 9] holds 2 inside, though
    # sqrt(2) is irrational, so no rational pair is at distance sqrt(2)
    verdict = box_edge_free(irr, _box(-1, 0), _box(0, 0))
    assert verdict.status == "nonempty"


def test_edge_free_2d_witness():
    plane = distance_graph(2, [1])
    b0 = TaggedBox(tag=0, level=1, corners=(-1, -1))
    b1 = TaggedBox(tag=0, level=1, corners=(1, 0))
    verdict = box_edge_free(plane, b0, b1)
    assert verdict.status == "nonempty"
    # corroborated by a hand-picked edge: (0, 1/4) in b0, (1, 1/4) in b1
    x, y = pt(0, Fraction(1, 4)), pt(1, Fraction(1, 4))
    assert box_contains(b0, x) and box_contains(b1, y)
    assert squared_distance(x, y) == 1


def test_edge_free_explicit_cells():
    inst = explicit_universe(4, [(0, 1), (2, 3)]).instance
    c01 = frozenset([vertex_point(0), vertex_point(1)])
    c23 = frozenset([vertex_point(2), vertex_point(3)])
    Location((c01, c23), (0, 0)).validate(inst)
    # the box (1/2, 3/2) holds vertex 1, joined to vertex 0; (3/2, 5/2) holds 2
    with pytest.raises(LocationError, match="cells 0,1 are not certified edge-free"):
        Location((frozenset([vertex_point(0)]), _box(1, 1)), (0, 0)).validate(inst)
    Location((frozenset([vertex_point(0)]), _box(3, 1)), (0, 0)).validate(inst)


def test_edge_free_unsupported_kind():
    curve = curve_difference_graph(TwoVarPoly.from_dict({(0, 1): 1, (2, 0): -1}))
    for inst in (curve, explicit_graph(2, [(0, 1)])):
        with pytest.raises(UnsupportedKindError):
            box_edge_free(inst, _box(0, 0), _box(0, 0))


def _squared_range_by_intervals(b0, b1):
    """Least and greatest |x - y|^2 over the closed boxes, from the Fraction
    intervals: per coordinate, the gap between the intervals and the span
    of their hull."""
    lo = hi = Fraction(0)
    for (a, b), (c, d) in zip(b0.intervals(), b1.intervals()):
        lo += max(0, c - b, a - d) ** 2
        hi += max(d - a, b - c) ** 2
    return lo, hi


def _related_box(rng, box, relation):
    """A box at a level 0-12 that is nested in ``box``, touches it from
    above in one coordinate, or is drawn on its own."""
    level = rng.randint(box.level, 12) if relation != "apart" else rng.randint(0, 12)
    shift = level - box.level
    corners = []
    for m in box.corners:
        if relation == "apart":
            bound = min(4**level, 3 << level)
            corners.append(rng.randint(-bound, bound))
        else:
            corners.append(rng.randint(m << shift, (m + 2 << shift) - 2))
    if relation == "touching":
        i = rng.randrange(len(corners))
        corners[i] = box.corners[i] + 2 << shift
    if any(abs(m) > 4**level for m in corners):
        return None
    return TaggedBox(tag=0, level=level, corners=tuple(corners))


def test_box_edge_free_matches_the_interval_ranges():
    rng = random.Random(34)
    seen = set()
    for _ in range(700):
        dim, level = rng.randint(1, 3), rng.randint(0, 12)
        bound = min(4**level, 3 << level)
        box = TaggedBox(0, level, tuple(rng.randint(-bound, bound) for _ in range(dim)))
        relation = rng.choice(("nested", "touching", "apart"))
        other = _related_box(rng, box, relation)
        if other is None:
            continue
        pair = (box, other) if rng.random() < 0.5 else (other, box)
        lo, hi = _squared_range_by_intervals(*pair)
        inside = lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
        outside = hi * Fraction(rng.randint(101, 300), 100)
        below = [lo * Fraction(rng.randint(1, 99), 100)] if lo else []
        cases = {
            "unknown": [lo or hi, outside, *below],
            "nonempty": [inside, hi, outside],
            "empty": [outside, *below],
        }
        for expected, squared in cases.items():
            status = box_edge_free(distance_graph(dim, squared), *pair).status
            assert status == expected, (pair, squared)
        seen.add((relation, dim, lo == 0))
    # nested and touching boxes meet in their closures; boxes drawn apart
    # may or may not
    assert seen == {
        (relation, dim, gapless)
        for dim in (1, 2, 3)
        for relation, gapless in (
            ("nested", True), ("touching", True), ("apart", True), ("apart", False)
        )
    }
