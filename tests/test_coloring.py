import json
import random
import re
import time
from itertools import islice

import pytest

from conftest import explicit_universe, universes_of_every_kind
from noetherlab import _kernels
from noetherlab import (
    PCondition,
    StageChain,
    TaggedBox,
    chromatic_number,
    extend_coloring,
    greedy_coloring,
    k_colorable_fixed_order,
    make_diagonal_hamming,
    p_leq,
    pt,
    separating_box,
    stitch_colorings,
    vertex_point,
)
from noetherlab.coloring import check_proper, check_suitable, validate_pcondition
from noetherlab.errors import (
    InvalidConditionError,
    InvalidStageError,
    OracleBoundError,
    PreconditionError,
    UnknownPointError,
    VerificationError,
)
from noetherlab.cli import main
from noetherlab.generators import clustered_line_universe, line_universe, random_universe
from noetherlab.geometry import box_contains, iter_boxes_containing
from noetherlab.graphs import SampleUniverse, adjacent, distance_graph


def _box(corner, level, tag=0):
    return TaggedBox(tag=tag, level=level, corners=(corner,))


def test_separating_box_examples():
    u = line_universe(3)
    assert separating_box(u, pt(1), [pt(0), pt(2)]) == _box(0, 0)
    # nothing to avoid: the very first box containing the point
    assert separating_box(u, pt(1), []) == _box(0, 0)
    assert separating_box(u, pt(0), []) == _box(-1, 0)
    # only neighbours that are also avoid points are excluded, whether the
    # avoid points come as a list or as a set
    cl = clustered_line_universe()  # 17/16 ~ 1/16, and (0, 2) holds both
    x, neighbor = pt("17/16"), pt("1/16")
    assert separating_box(cl, x, []) == _box(0, 0)
    assert separating_box(cl, x, [pt("2/16"), pt("18/16")]) == _box(0, 0)
    assert separating_box(cl, x, [neighbor]) == separating_box(cl, x, {neighbor}) == _box(1, 0)


def test_separating_box_precondition():
    u = line_universe(3)
    with pytest.raises(PreconditionError):
        separating_box(u, pt(1), [pt(1)])


def test_separating_box_ignores_avoid_points_outside_the_universe():
    # forbidden points are read from the neighbour mask of x, so an avoid
    # point outside the universe is never a neighbour and changes nothing,
    # whether the avoid points come as a list or as a set
    u = line_universe(3)
    outside = [pt(7), pt("1/2"), pt(2, 0)]
    for avoid in ([pt(0), pt(2)], {pt(0), pt(2)}):
        expected = separating_box(u, pt(1), avoid)
        assert separating_box(u, pt(1), list(avoid) + outside) == expected
        assert separating_box(u, pt(1), set(avoid) | set(outside)) == expected
    assert separating_box(u, pt(1), outside) == separating_box(u, pt(1), []) == _box(0, 0)
    # x itself must still be a universe point
    with pytest.raises(UnknownPointError):
        separating_box(u, pt(7), [pt(0)])


def _separating_box_by_enumeration(universe, x, avoid, tag=None, exclude=()):
    """The loop separating_box ran before its first box was cached: the
    canonical enumeration from the start, with the forbidden points found by
    the pair predicate instead of the masks."""
    forbidden = [a for a in avoid if a != x and adjacent(universe.instance, x, a)]
    for box in iter_boxes_containing(x, tag=tag):
        if box not in exclude and not any(box_contains(box, a) for a in forbidden):
            return box


def test_separating_box_matches_the_enumeration_loop():
    rng = random.Random(24)
    blocked_first = past_first = 0
    for _ in range(25):
        for u in universes_of_every_kind(rng):
            for x in rng.sample(u.points, k=min(3, len(u))):
                others = [y for y in u.points if y != x]
                avoid = rng.sample(others, k=rng.randint(0, len(others)))
                for tag in (None, 0, 1, 2, 3):
                    leading = list(islice(iter_boxes_containing(x, tag=tag), 2))
                    blocked_first += any(
                        adjacent(u.instance, x, a) and box_contains(leading[0], a) for a in avoid
                    )
                    # the cached first box, then the first one or two excluded
                    for exclude in ((), leading[:1], leading):
                        box = separating_box(u, x, avoid, tag=tag, exclude=exclude)
                        assert box == _separating_box_by_enumeration(u, x, avoid, tag, exclude)
                        past_first += box != leading[0]
    assert blocked_first > 50 and past_first > 1000


def test_lower_bound_rejects_a_condition_from_another_universe():
    # p_lower_bound passes the union of the member domains to
    # separating_box as its avoid set; a member point outside the universe
    # is refused before that, when the good closure of the domains is built
    from noetherlab import p_lower_bound

    u = line_universe(3)
    foreign = PCondition(line_universe(4), {pt(3): _box(11, 2)})
    with pytest.raises(UnknownPointError):
        p_lower_bound([foreign], universe=u)


def test_greedy_coloring_line():
    u = line_universe(3)
    coloring = greedy_coloring(u)
    assert coloring.assignment[pt(0)] == _box(-1, 0)
    assert coloring.assignment[pt(1)] == _box(0, 0)  # excludes 0
    assert coloring.assignment[pt(2)] == _box(1, 0)  # excludes 1
    assert not check_proper(u, coloring.assignment)
    assert not check_suitable(coloring.assignment)


def test_greedy_coloring_edge_cases():
    single = line_universe(1)
    assert len(greedy_coloring(single).assignment) == 1
    edgeless = explicit_universe(3, [])
    coloring = greedy_coloring(edgeless)
    for i in range(3):
        v = vertex_point(i)
        from noetherlab import first_box_containing

        assert coloring.assignment[v] == first_box_containing(v)


def test_greedy_box_count_bound():
    rng = random.Random(2)
    for _ in range(50):
        u = random_universe(rng, 10)
        coloring = greedy_coloring(u)
        assert len(set(coloring.assignment.values())) <= len(u)


def test_extend_coloring_examples():
    u = line_universe(3)
    p = PCondition(u, {pt(0): _box(-1, 2)})  # (-1/4, 1/4)
    c = extend_coloring(p)
    assert c.assignment[pt(0)] == _box(-1, 2)
    from noetherlab import box_contains

    assert not box_contains(c.assignment[pt(1)], pt(0))
    assert not box_contains(c.assignment[pt(2)], pt(1))
    # the constructions return conditions of the coloring poset
    assert isinstance(c, PCondition)
    assert p_leq(c, p)

    # total condition comes back unchanged
    total = greedy_coloring(u)
    assert isinstance(total, PCondition)
    assert extend_coloring(total).assignment == total.assignment
    chain = StageChain((frozenset(u.points),), ({pt(0): 0, pt(1): 1, pt(2): 0},))
    assert isinstance(stitch_colorings(u, chain, p, require_good=False), PCondition)

    # empty condition degenerates to the plain greedy coloring
    empty = PCondition(u, {})
    assert extend_coloring(empty).assignment == greedy_coloring(u).assignment


def test_stitch_colorings_traced_example():
    u = line_universe(3)
    chain = StageChain(
        (frozenset([pt(0)]), frozenset(u.points)),
        ({pt(0): 0}, {pt(0): 0, pt(1): 1, pt(2): 0}),
    )
    c = stitch_colorings(u, chain, None, require_good=False)
    assert c.assignment[pt(0)] == _box(-1, 0, tag=0)
    assert c.assignment[pt(1)] == _box(0, 0, tag=1)  # tag 1, avoids 0
    assert c.assignment[pt(2)] == _box(1, 0, tag=0)
    assert not check_proper(u, c.assignment)


def test_stitch_requires_goodness_by_default():
    u = line_universe(3)
    chain = StageChain(
        (frozenset([pt(0)]), frozenset(u.points)),
        ({pt(0): 0}, {pt(0): 0, pt(1): 1, pt(2): 0}),
    )
    with pytest.raises(InvalidStageError):
        stitch_colorings(u, chain, None)


def test_stitch_single_stage_retags():
    u = line_universe(3)
    chain = StageChain(
        (frozenset(u.points),), ({pt(0): 0, pt(1): 1, pt(2) : 0},)
    )
    c = stitch_colorings(u, chain, None, require_good=False)
    assert c.assignment[pt(0)].tag == 0
    assert c.assignment[pt(1)].tag == 1
    assert c.assignment[pt(2)].tag == 0
    assert not check_proper(u, c.assignment)


def test_stitch_rejects_improper_stage():
    u = line_universe(3)
    chain = StageChain(
        (frozenset(u.points),), ({pt(0): 0, pt(1): 0, pt(2): 0},)
    )
    with pytest.raises(InvalidStageError):
        stitch_colorings(u, chain, None, require_good=False)


# 0 and 1/2 are adjacent, and the level-0 box (-1, 1) holds both
_HALF = SampleUniverse(distance_graph(1, ["1/4"]), [pt(0), pt("1/2")])
_IMPROPER = PCondition(_HALF, {x: _box(-1, 0) for x in _HALF.points})
_LINE = line_universe(3)
_FIRST, _WHOLE = frozenset([pt(0)]), frozenset(_LINE.points)
_COLORING = {pt(0): 0, pt(1): 1, pt(2): 0}


def _stitch(chain, p=None, universe=_LINE):
    return lambda: stitch_colorings(universe, chain, p, require_good=False)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: extend_coloring(_IMPROPER), InvalidConditionError, "share color",
                 id="extend-improper-p"),
    pytest.param(
        _stitch(StageChain((frozenset(_HALF.points),), ({pt(0): 0, pt("1/2"): 1},)), _IMPROPER,
                _HALF),
        InvalidConditionError, "base condition is not suitable/proper", id="stitch-improper-base"),
    pytest.param(
        _stitch(StageChain((_FIRST, _WHOLE), ({pt(0): 0}, _COLORING)),
                PCondition(_LINE, {pt(2): _box(1, 0)})),
        PreconditionError, "dom(p) must be contained in the first stage",
        id="stitch-base-outside-the-first-stage"),
    pytest.param(_stitch(StageChain((), ())), InvalidStageError,
                 "stages and colorings must align and be nonempty", id="chain-empty"),
    pytest.param(_stitch(StageChain((_WHOLE, _FIRST), (_COLORING, {pt(0): 0}))),
                 InvalidStageError, "stage 1 does not strictly extend stage 0",
                 id="chain-not-increasing"),
    pytest.param(_stitch(StageChain((_WHOLE,), ({pt(0): 0},))), InvalidStageError,
                 "stage 0 coloring domain mismatch", id="chain-domain-mismatch"),
    pytest.param(lambda: validate_pcondition(PCondition(_LINE, {pt("1/2"): _box(-1, 0)})),
                 InvalidConditionError, "Point(1/2) not in the universe",
                 id="p-point-outside-the-universe"),
])
def test_constructions_refuse_invalid_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_stitch_base_condition_box_avoids_pbase_neighbors():
    u = line_universe(3)
    base = PCondition(u, {pt(0): _box(-1, 2)})
    chain = StageChain(
        (frozenset([pt(0), pt(1)]), frozenset(u.points)),
        ({pt(0): 0, pt(1): 1}, {pt(0): 0, pt(1): 1, pt(2): 2}),
    )
    c = stitch_colorings(u, chain, base, require_good=False)
    from noetherlab import box_contains

    assert c.assignment[pt(0)] == _box(-1, 2)
    assert not box_contains(c.assignment[pt(1)], pt(0))
    assert p_leq(PCondition(u, c.assignment), base)


def test_chromatic_examples(triangle):
    chi, coloring = chromatic_number(triangle)
    assert chi == 3 and len(set(coloring.values())) == 3
    chi, _ = chromatic_number(make_diagonal_hamming(3))
    assert chi == 3
    edgeless = explicit_universe(4, [])
    assert chromatic_number(edgeless)[0] == 1


def test_chromatic_oracle_bound():
    assert chromatic_number(line_universe(24))[0] == 2
    with pytest.raises(OracleBoundError, match="universe size 25 exceeds bound 24"):
        chromatic_number(line_universe(25))


def test_chromatic_agrees_with_independent_decision():
    rng = random.Random(6)
    for _ in range(200):
        u = random_universe(rng, 9)
        chi, _ = chromatic_number(u)
        assert k_colorable_fixed_order(u, chi) is not None
        if chi > 1:
            assert k_colorable_fixed_order(u, chi - 1) is None


def _k_colorable_by_neighbour_walk(universe, k):
    """k_colorable_fixed_order before it kept one mask per color class:
    each color is tested by walking every neighbour of the point."""
    n = len(universe)
    if n == 0:
        return {}
    if k == 0:
        return None
    masks = universe.open_masks
    colors = [-1] * n

    def rec(i, used):
        if i == n:
            return True
        for c in range(min(used + 1, k)):
            conflict = False
            m = masks[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if j < i and colors[j] == c:
                    conflict = True
                    break
            if conflict:
                continue
            colors[i] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            colors[i] = -1
        return False

    if rec(0, 0):
        return {p: colors[i] for i, p in enumerate(universe.points)}
    return None


def test_k_colorable_fixed_order_returns_the_neighbour_walk_coloring():
    rng = random.Random(12)
    found = 0
    for _ in range(40):
        for u in universes_of_every_kind(rng):
            chi, _ = chromatic_number(u)
            for k in range(1, chi + 2):
                coloring = k_colorable_fixed_order(u, k)
                assert coloring == _k_colorable_by_neighbour_walk(u, k), u.instance.kind
                assert (coloring is None) == (k < chi)
                if coloring is not None:
                    found += 1
                    assert check_proper(u, coloring) == []
                    assert set(coloring) == set(u.points)
                    assert all(0 <= c < k for c in coloring.values())
            # a k far above the point count costs what k = n costs
            started = time.perf_counter()
            assert k_colorable_fixed_order(u, 10**9) == k_colorable_fixed_order(u, len(u))
            assert time.perf_counter() - started < 1.0
    assert found > 500


def test_chromatic_post_condition_raises(monkeypatch, triangle, tmp_path, capsys):
    # a kernel that 2-colors the triangle
    monkeypatch.setattr(_kernels, "chromatic_number", lambda masks: (2, [0, 1, 0]))
    with pytest.raises(VerificationError):
        chromatic_number(triangle)
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"kind": "explicit", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["color", "chi", str(path)]) == 1
    assert "improper" in capsys.readouterr().err


def _check_proper_all_pairs(universe, assignment):
    points = sorted(assignment, key=universe.index)
    bad = []
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            if assignment[x] == assignment[y] and adjacent(universe.instance, x, y):
                bad.append(f"adjacent {x}, {y} share color {assignment[x]}")
    return bad


def test_check_proper_matches_all_pairs_scan():
    rng = random.Random(8)
    boxes = [_box(c, 1, tag) for c in (-1, 0, 1) for tag in (0, 1)]
    violations = 0
    for _ in range(300):
        u = random_universe(rng, 14)
        domain = rng.sample(u.points, k=rng.randint(0, len(u)))
        rng.shuffle(domain)  # the check must not depend on the mapping's order
        palette = rng.choice([range(rng.randint(1, 4)), boxes[: rng.randint(1, 6)]])
        for assignment in (
            {x: rng.choice(palette) for x in domain},
            {x: greedy_coloring(u).assignment[x] for x in domain},
        ):
            expected = _check_proper_all_pairs(u, assignment)
            assert check_proper(u, assignment) == expected
            violations += len(expected)
    assert violations > 100


def test_check_proper_on_interleaved_classes_and_foreign_points():
    u = line_universe(8)
    # classes {0, 1, 4, 5} and {2, 3, 6, 7}, given in reverse order: each
    # class holds two unit pairs, and the messages still come in index order
    assignment = {pt(i): i // 2 % 2 for i in reversed(range(8))}
    expected = _check_proper_all_pairs(u, assignment)
    assert len(expected) == 4 and check_proper(u, assignment) == expected
    rng = random.Random(31)
    violations = 0
    for _ in range(40):
        for u in universes_of_every_kind(rng):
            domain = rng.sample(u.points, k=len(u))
            assignment = {x: rng.randrange(3) for x in domain}
            expected = _check_proper_all_pairs(u, assignment)
            assert check_proper(u, assignment) == expected
            violations += len(expected)
    assert violations > 300
    # a foreign point raises even alone in its class, among other classes
    u = line_universe(3)
    for assignment in (
        {pt(0): 0, pt(1): 1, pt(2): 0, pt(9): 2},
        {pt(9): 2, pt(0): 0, pt(2): 0},
        {pt(0): 0, pt("1/2"): 1, pt(1): 2},
    ):
        with pytest.raises(UnknownPointError):
            check_proper(u, assignment)


def test_check_proper_rejects_a_foreign_point():
    u = line_universe(3)
    with pytest.raises(UnknownPointError):
        check_proper(u, {pt(0): 0, pt(7): 0})
    with pytest.raises(UnknownPointError):
        check_proper(u, {pt(7): 1})
