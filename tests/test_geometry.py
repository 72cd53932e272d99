import pickle
import random
from fractions import Fraction
from itertools import count, islice, product
from math import floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from noetherlab import (
    TaggedBox,
    box_contains,
    box_from_index,
    box_index,
    box_within,
    boxes_disjoint,
    pt,
    squared_distance,
)
from noetherlab.errors import InvalidPointError
from noetherlab.geometry import (
    Point,
    _containing_corners,
    _corner_count,
    _corner_rank,
    _corner_unrank,
    iter_boxes_containing,
)


def test_box_intervals():
    box = TaggedBox(tag=0, level=2, corners=(3,))
    assert box.intervals() == ((Fraction(3, 4), Fraction(5, 4)),)


def test_box_corner_bound_enforced():
    with pytest.raises(ValueError):
        TaggedBox(tag=0, level=0, corners=(2,))
    TaggedBox(tag=0, level=1, corners=(4,))  # 4 <= 4^1


def test_box_contains_is_strict():
    box = TaggedBox(tag=0, level=2, corners=(3,))  # (3/4, 5/4)
    assert box_contains(box, pt(1))
    assert not box_contains(box, pt(0))
    assert not box_contains(box, pt("3/4"))  # open endpoint


def test_box_equality_needs_tag():
    a = TaggedBox(tag=0, level=1, corners=(0,))
    b = TaggedBox(tag=1, level=1, corners=(0,))
    assert a != b and a.intervals() == b.intervals()


def test_first_index_is_first_box():
    assert box_from_index(1, 0) == TaggedBox(tag=0, level=0, corners=(-1,))


def test_enumeration_bijection_first_10k():
    for dim in (1, 2):
        for i in range(10_000):
            assert box_index(box_from_index(dim, i)) == i


def _stage_size(dim, stage):
    below = sum(_corner_count(dim, k) for k in range(stage))
    return below + _corner_count(dim, stage) * (stage + 1)


def _nested_box_index(box):
    """The enumeration's index by nested sums over the stages and levels,
    a second route to the one walk of box_index."""
    dim, s = box.dimension, max(box.level, box.tag)
    idx = sum(_stage_size(dim, t) for t in range(s))
    if box.level < s:
        idx += sum(_corner_count(dim, k) for k in range(box.level))
        return idx + _corner_rank(box.corners, box.level)
    idx += sum(_corner_count(dim, k) for k in range(s))
    return idx + _corner_rank(box.corners, s) * (s + 1) + box.tag


def _nested_box_from_index(dim, index):
    stage = 0
    while index >= _stage_size(dim, stage):
        index -= _stage_size(dim, stage)
        stage += 1
    for k in range(stage):
        if index < _corner_count(dim, k):
            return TaggedBox(tag=stage, level=k, corners=_corner_unrank(index, dim, k))
        index -= _corner_count(dim, k)
    rank, tag = divmod(index, stage + 1)
    return TaggedBox(tag=tag, level=stage, corners=_corner_unrank(rank, dim, stage))


def test_enumeration_matches_the_nested_sums():
    # box_index and box_from_index share their stage walk, so an offset both
    # got wrong would survive the round trip; the nested sums would not
    for dim in (1, 2, 3):
        for i in range(20_000):
            box = box_from_index(dim, i)
            assert box == _nested_box_from_index(dim, i), (dim, i)
            assert box_index(box) == i
    rng = random.Random(8)
    for _ in range(3000):
        dim, level, tag = rng.randint(1, 3), rng.randint(0, 8), rng.randint(0, 8)
        bound = 4**level
        box = TaggedBox(tag, level, tuple(rng.randint(-bound, bound) for _ in range(dim)))
        index = _nested_box_index(box)
        assert box_index(box) == index, box
        assert box_from_index(dim, index) == box


def test_enumeration_order_is_index_order():
    # canonical order is defined as index order, so this is forced
    boxes = [box_from_index(1, i) for i in range(50)]
    assert [box_index(b) for b in boxes] == list(range(50))


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_roundtrip_from_box_side(level, tag, data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    bound = 4**level
    corners = tuple(
        data.draw(st.integers(min_value=-bound, max_value=bound)) for _ in range(dim)
    )
    box = TaggedBox(tag=tag, level=level, corners=corners)
    assert box_from_index(dim, box_index(box)) == box


def test_within_and_disjoint():
    outer = TaggedBox(tag=0, level=0, corners=(0,))  # (0, 2)
    inner = TaggedBox(tag=3, level=2, corners=(3,))  # (3/4, 5/4)
    assert box_within(inner, outer)
    assert not box_within(outer, inner)
    left = TaggedBox(tag=0, level=2, corners=(-1,))  # (-1/4, 1/4)
    assert boxes_disjoint(left, inner)
    assert not boxes_disjoint(outer, inner)


def test_iter_boxes_containing_matches_global_enumeration():
    x = pt("1/3")
    from_scan = []
    i = 0
    while len(from_scan) < 12:
        box = box_from_index(1, i)
        if box_contains(box, x):
            from_scan.append(box)
        i += 1
    gen = iter_boxes_containing(x)
    assert [next(gen) for _ in range(12)] == from_scan


def test_iter_boxes_tag_filter():
    x = pt(0)
    for box in [next(iter_boxes_containing(x, tag=t)) for t in range(4)]:
        assert box_contains(box, x)
    tagged = iter_boxes_containing(x, tag=2)
    assert all(next(tagged).tag == 2 for _ in range(8))


def test_squared_distance_exact():
    assert squared_distance(pt(0, 0), pt("3/5", "4/5")) == 1
    with pytest.raises(InvalidPointError):
        squared_distance(pt(0), pt(0, 0))


# -- integer box arithmetic against the Fraction intervals ---------------------

def _contains_by_intervals(box, x):
    return all(lo < c < hi for (lo, hi), c in zip(box.intervals(), x.coords))


def _within_by_intervals(inner, outer):
    return all(
        olo <= ilo and ihi <= ohi
        for (ilo, ihi), (olo, ohi) in zip(inner.intervals(), outer.intervals())
    )


def _disjoint_by_intervals(b0, b1):
    return any(
        hi0 <= lo1 or hi1 <= lo0
        for (lo0, hi0), (lo1, hi1) in zip(b0.intervals(), b1.intervals())
    )


def _corners_by_intervals(x, level):
    # every admissible corner m with m < c * 2^level < m + 2 lies in the window
    bound = 4**level
    per_coord = []
    for c in x.coords:
        v = floor(c * 2**level)
        per_coord.append(
            [
                m
                for m in range(max(v - 3, -bound), min(v + 4, bound + 1))
                if Fraction(m, 2**level) < c < Fraction(m + 2, 2**level)
            ]
        )
    return list(product(*per_coord))


def _random_box(rng, dim, level=None):
    level = rng.randint(0, 6) if level is None else level
    bound = 4**level
    corners = tuple(rng.randint(-min(bound, 40), min(bound, 40)) for _ in range(dim))
    return TaggedBox(tag=rng.randint(0, 3), level=level, corners=corners)


def _coarser_box(rng, box):
    """A box at a level <= box.level whose corners are near box's, often containing it."""
    level = rng.randint(0, box.level)
    shift = box.level - level
    corners = tuple(
        max(-(4**level), min(4**level, (m >> shift) - rng.randint(0, 1))) for m in box.corners
    )
    return TaggedBox(tag=0, level=level, corners=corners)


def _points_near(rng, box):
    """Points inside, outside and exactly on the faces of a box, mixed denominators."""
    k = box.level
    faces = [[Fraction(m, 2**k), Fraction(m + 2, 2**k), Fraction(m + 1, 2**k)] for m in box.corners]
    out = []
    for _ in range(6):
        coords = []
        for face in faces:
            if rng.random() < 0.5:
                coords.append(rng.choice(face))
            else:
                den = rng.choice([1, 2, 3, 5, 7, 12, 2**k, 3 * 2**k, 2 ** (k + 1), 96])
                coords.append(face[2] + Fraction(rng.randint(-3 * den, 3 * den), den * 2**k))
        out.append(pt(*coords))
    return out


def test_integer_box_tests_agree_with_intervals():
    rng = random.Random(20)
    seen = {"contains": set(), "within": set(), "disjoint": set(), "corners": 0}
    for _ in range(600):
        dim = rng.randint(1, 3)
        box = _random_box(rng, dim)
        for x in _points_near(rng, box):
            expected = _contains_by_intervals(box, x)
            assert box_contains(box, x) == expected, (box, x)
            seen["contains"].add(expected)
            for level in {box.level, rng.randint(0, 6)}:
                corners = _corners_by_intervals(x, level)
                assert _containing_corners(x, level) == corners, (x, level)
                seen["corners"] += len(corners)
        for other in (_coarser_box(rng, box), _random_box(rng, dim), box):
            for a, b in ((box, other), (other, box)):
                expected = _within_by_intervals(a, b)
                assert box_within(a, b) == expected, (a, b)
                seen["within"].add(expected)
                expected = _disjoint_by_intervals(a, b)
                assert boxes_disjoint(a, b) == expected, (a, b)
                seen["disjoint"].add(expected)
    assert seen["contains"] == seen["within"] == seen["disjoint"] == {True, False}
    assert seen["corners"] > 1000


def test_containing_corners_at_the_corner_bound():
    # the window |m| <= 4^level cuts the candidates for points far out
    cases = {
        (pt(5), 2): [],  # m = 19 > 4^2
        (pt(5), 3): [(39,)],
        (pt("11/4"), 1): [(4,)],  # m in {4, 5}, 5 > 4^1
        (pt("-7/4"), 1): [(-4,)],  # m in {-5, -4}
        (pt("-9/4"), 1): [],  # m in {-6, -5}
        (pt("11/4", "-7/4"), 1): [(4, -4)],
        (pt("11/4", "-9/4"), 1): [],
    }
    for (x, level), corners in cases.items():
        assert _containing_corners(x, level) == corners == _corners_by_intervals(x, level)


def _boxes_from_level_zero(x, n, tag=None, min_level=0):
    """The first n boxes of the filtered canonical order, scanned from stage 0."""
    out = []
    for stage in count(0):
        boxes = []
        if tag is None or tag == stage:
            for k in range(min_level, stage):
                boxes += [TaggedBox(stage, k, m) for m in _corners_by_intervals(x, k)]
        if stage >= min_level:
            tags = range(stage + 1) if tag is None else [tag] if tag <= stage else []
            boxes += [
                TaggedBox(t, stage, m) for m in _corners_by_intervals(x, stage) for t in tags
            ]
        out += boxes
        if len(out) >= n:
            return out[:n]


def test_level_skip_keeps_the_canonical_order():
    # far points have no box at the low levels, which the enumeration skips;
    # 2, 3, 11/4, -2 and -15/8 sit at the edges of the windows -4^k < x*2^k < 4^k + 2
    points = [
        pt(199), pt(-37, "5/3"), pt("1000001/3"), pt(5), pt("-9/4"), pt("1/3", 0),
        pt(2), pt(3), pt("11/4"), pt(-2), pt("-15/8"),
    ]
    for x in points:
        first = next(iter_boxes_containing(x)).level
        for tag, min_level in product((None, 0, 2, first + 3), (0, max(first - 1, 0), first + 2)):
            n = 40
            got = list(islice(iter_boxes_containing(x, tag=tag, min_level=min_level), n))
            assert got == _boxes_from_level_zero(x, n, tag, min_level), (x, tag, min_level)
    first_levels = [next(iter_boxes_containing(x)).level for x in points]
    assert first_levels == [8, 6, 19, 3, 2, 0, 0, 2, 0, 2, 1]


def test_integer_box_tests_check_dimensions():
    box = TaggedBox(tag=0, level=1, corners=(0, 0))
    with pytest.raises(InvalidPointError):
        box_contains(box, pt(1))
    with pytest.raises(InvalidPointError):
        box_within(box, TaggedBox(tag=0, level=1, corners=(0,)))


def test_point_hash_is_the_dataclass_hash():
    x = pt("1/3", -2)
    assert hash(x) == hash((x.coords,)) == hash(x)
    assert x == pt("2/6", "-2") and hash(x) == hash(pt("2/6", "-2"))
    assert len({x, pt("1/3", -2), pt(0, 0)}) == 2


def _old_point_hash(coords):
    """The hash the constructor computed before it kept ``ints``."""
    nums = []
    for c in coords:
        if c.denominator != 1:
            return hash((coords,))
        nums.append(c.numerator)
    return hash((tuple(nums),))


def test_point_ints_and_hash_match_the_old_constructor():
    F = Fraction
    integer = [(), (F(0),), (F(-1),), (F(3), F(-4), F(0)), (F(2**61 - 1), F(-(2**70)))]
    mixed = [(F(1), F(1, 2)), (F(-1, 2), F(5)), (F(4), F(0), F(7, 3))]
    non_integer = [(F(1, 3),), (F(-3, 7), F(5, 2))]
    for coords in integer + mixed + non_integer:
        p = Point(coords)
        whole = all(c.denominator == 1 for c in coords)
        assert p.ints == (tuple(c.numerator for c in coords) if whole else None)
        assert all(type(a) is int for a in p.ints or ())
        assert hash(p) == _old_point_hash(coords) == hash((coords,))
        back = pickle.loads(pickle.dumps(p))
        assert back.ints == p.ints and hash(back) == hash(p)
        with pytest.raises(AttributeError):
            p.ints = None


_COORDS = st.lists(
    st.integers().map(Fraction) | st.fractions(), min_size=1, max_size=4
).map(tuple)


@given(_COORDS)
def test_point_hash_is_the_hash_of_its_coordinate_tuple(coords):
    # set iteration order, and so report bytes, rest on this value
    assert hash(Point(coords)) == hash((coords,))


def test_point_contract():
    F = Fraction
    cases = [
        (F(-1),),  # hash(-1) == -2
        (F(-1), F(-2), F(0)),
        (F(2**61 - 1), F(-(2**70))),
        (F(1, 3),),
        (F(-1, 2), F(5)),
        (F(5), F(-1, 2)),
    ]
    for coords in cases:
        p = Point(coords)
        assert hash(p) == hash((coords,)) == hash((tuple(coords),))
        assert p == Point(tuple(coords)) and p != Point(coords + (F(0),))
        assert p != coords and {p: 0}[Point(tuple(coords))] == 0
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and back.coords == coords
        with pytest.raises(AttributeError):
            p.coords = (F(0),)
        with pytest.raises(AttributeError):
            p.label = "x"
        with pytest.raises(AttributeError):
            del p.coords
        assert p.coords == coords
    assert hash(Point((F(-1),))) == hash(((-1,),))
