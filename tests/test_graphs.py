import random
from fractions import Fraction

import pytest

from conftest import explicit_universe
from noetherlab import (
    SampleUniverse,
    TaggedBox,
    TwoVarPoly,
    adjacent,
    box_edge_free,
    common_neighborhood,
    curve_difference_graph,
    distance_graph,
    explicit_graph,
    hamming_diagonal,
    neighborhood,
    pt,
    vertex_point,
)
from noetherlab.campaign import _pairwise_masks
from noetherlab.errors import InvalidPointError, UnknownPointError, UnsupportedKindError
from noetherlab.generators import clustered_line_universe, line_universe, random_universe
from noetherlab.hamming import make_diagonal_hamming, make_uniform_hamming


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


def test_universe_rejects_duplicates_and_bad_points():
    line = distance_graph(1, [1])
    with pytest.raises(InvalidPointError):
        SampleUniverse(line, [pt(0), pt(0)])
    with pytest.raises(InvalidPointError):
        SampleUniverse(line, [pt(0, 0)])


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
    assert verdict.witness == (pt(0), pt(1))


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
    verdict = box_edge_free(irr, _box(-1, 0), _box(0, 0))
    assert verdict.status == "nonempty"
    assert verdict.witness is None


def test_edge_free_2d_witness():
    plane = distance_graph(2, [1])
    b0 = TaggedBox(tag=0, level=1, corners=(-1, -1))
    b1 = TaggedBox(tag=0, level=1, corners=(1, 0))
    verdict = box_edge_free(plane, b0, b1)
    assert verdict.status == "nonempty"
    if verdict.witness is not None:
        x, y = verdict.witness
        from noetherlab import squared_distance

        assert squared_distance(x, y) == 1


def test_edge_free_explicit_cells():
    u = explicit_universe(4, [(0, 1), (2, 3)])
    inst = u.instance
    c01 = frozenset([vertex_point(0), vertex_point(1)])
    c23 = frozenset([vertex_point(2), vertex_point(3)])
    assert box_edge_free(inst, c01, c23).status == "empty"
    assert box_edge_free(inst, c01, frozenset([vertex_point(1)])).status == "nonempty"


def test_edge_free_unsupported_kind():
    inst = curve_difference_graph(TwoVarPoly.from_dict({(0, 1): 1, (2, 0): -1}))
    with pytest.raises(UnsupportedKindError):
        box_edge_free(inst, _box(0, 0), _box(0, 0))
