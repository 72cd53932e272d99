import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from conftest import explicit_universe, universes_of_every_kind
from noetherlab import (
    Location,
    QCondition,
    TaggedBox,
    adjacent,
    canonical_location,
    compatible_tail,
    is_at_location,
    liminf_thin,
    predense_check,
    predense_check_reduced,
    predense_reduce,
    pt,
    q_compatible,
    q_meet,
    ramsey_bound,
    ramsey_compatible_subset,
    two_coloring_forces_clique,
    vertex_point,
)
from noetherlab import cli
from noetherlab.control_poset import (
    COMPATIBLE,
    MAX_RAMSEY_DEPTH,
    MAX_RAMSEY_STATES,
    _predense_search,
    _selected,
    _selections,
    budget_clamp,
    cell_contains,
    pair_coloring,
    q_extends,
    q_incompatibility_witness,
    reduced_support,
    validate_qcondition,
)
from noetherlab.errors import (
    IncompatibilityError,
    InvalidConditionError,
    LocationError,
    OracleBoundError,
    PreconditionError,
    ReductionFailureError,
    UnknownPointError,
    UnsupportedKindError,
    VerificationError,
)
from noetherlab.geometry import box_contains, boxes_disjoint, first_box_containing
from noetherlab.coloring import check_proper
from noetherlab.graphs import EXPLICIT, SampleUniverse, common_neighborhood_mask
from noetherlab.generators import (
    clustered_line_universe,
    line_universe,
    path_explicit_universe,
    random_explicit_universe,
    random_qcondition,
)
from noetherlab.hamming import make_diagonal_hamming
from noetherlab.serialize import universe_to_json


def _box(corner, level, tag=0):
    return TaggedBox(tag=tag, level=level, corners=(corner,))


def test_q_compatibility_examples():
    u = line_universe(2)
    a = QCondition(u, {pt(0): 0})
    b = QCondition(u, {pt(1): 0})
    assert not q_compatible(a, b)  # same color on an edge
    c = QCondition(u, {pt(1): 1})
    assert q_compatible(a, c)
    assert q_meet(a, c).assignment == {pt(0): 0, pt(1): 1}
    d = QCondition(u, {pt(0): 1})
    assert not q_compatible(a, d)  # not a function
    with pytest.raises(IncompatibilityError):
        q_meet(a, d)


def test_q_meet_is_below_both():
    rng = random.Random(1)
    u = path_explicit_universe(6)
    hits = 0
    for _ in range(200):
        a = random_qcondition(rng, u, 3)
        b = random_qcondition(rng, u, 3)
        if q_compatible(a, b):
            m = q_meet(a, b)
            assert q_extends(m, a) and q_extends(m, b)
            hits += 1
    assert hits > 10


def test_is_at_location_box_cells():
    u = clustered_line_universe()
    loc = Location((_box(0, 0),), (0,))  # one box (0, 2) holding all points
    loc.validate(u.instance)
    inside = u.points[0]
    assert is_at_location(QCondition(u, {inside: 0}), loc)
    assert not is_at_location(QCondition(u, {inside: 1}), loc)  # wrong color
    x2 = u.points[1]
    assert not is_at_location(QCondition(u, {inside: 0, x2: 0}), loc)  # two points
    assert not is_at_location(QCondition(u, {}), loc)  # selects nothing


def test_is_at_location_vertex_cells():
    u = path_explicit_universe(4)
    cells = (frozenset([vertex_point(0), vertex_point(1)]), frozenset([vertex_point(3)]))
    loc = Location(cells, (0, 1))
    loc.validate(u.instance)
    assert is_at_location(QCondition(u, {vertex_point(0): 0, vertex_point(3): 1}), loc)
    assert not is_at_location(QCondition(u, {vertex_point(2): 0, vertex_point(3): 1}), loc)


def test_location_validation_rejects_edges_between_same_colors():
    u = path_explicit_universe(4)
    cells = (frozenset([vertex_point(0)]), frozenset([vertex_point(1)]))
    with pytest.raises(LocationError):
        Location(cells, (0, 0)).validate(u.instance)
    Location(cells, (0, 1)).validate(u.instance)


def _validate_by_vertex_pairs(loc, instance):
    """Location.validate on an explicit instance, by adjacent() on every
    vertex pair of every same-colored cell pair."""

    def vertices(cell):
        if isinstance(cell, TaggedBox):
            return [p for p in map(vertex_point, range(instance.n_vertices)) if box_contains(cell, p)]
        return list(cell)

    def disjoint(cell0, cell1):
        if isinstance(cell0, TaggedBox) and isinstance(cell1, TaggedBox):
            return boxes_disjoint(cell0, cell1)
        if isinstance(cell0, frozenset) and isinstance(cell1, frozenset):
            return not (cell0 & cell1)
        box, pts = (cell0, cell1) if isinstance(cell0, TaggedBox) else (cell1, cell0)
        return all(not box_contains(box, p) for p in pts)

    for i, j in combinations(range(len(loc.cells)), 2):
        if not disjoint(loc.cells[i], loc.cells[j]):
            raise LocationError(f"cells {i} and {j} overlap")
        if loc.colors[i] == loc.colors[j] and any(
            adjacent(instance, p, q) for p in vertices(loc.cells[i]) for q in vertices(loc.cells[j])
        ):
            raise LocationError(
                f"same-colored cells {i},{j} are not certified edge-free (status nonempty)"
            )


def _location_error(validate, loc, instance):
    try:
        validate(loc, instance)
    except LocationError as exc:
        return str(exc)
    return None


def test_explicit_location_validation_matches_the_vertex_pair_scan():
    rng = random.Random(1717)
    seen = Counter()
    for _ in range(300):
        u = random_explicit_universe(rng, rng.randint(2, 12), rng.uniform(0.05, 0.5))
        n = len(u)
        order = rng.sample(range(n), k=n)
        cells = []
        for _ in range(rng.randint(1, min(5, n))):
            if rng.random() < 0.3:  # a box around vertex v, or around none
                level = rng.randint(2, 4)
                v = rng.randint(-1, min(n, 2**level))
                cells.append(_box((v << level) - rng.randint(0, 1), level))
            elif order:
                take = rng.randint(1, max(1, len(order) // 2))
                cell, order = order[:take], order[take:]
                if rng.random() < 0.1:  # overlap an earlier vertex-subset cell
                    cell.append(rng.randrange(n))
                cells.append(frozenset(map(vertex_point, cell)))
        if not cells:
            continue
        loc = Location(tuple(cells), tuple(rng.randrange(3) for _ in cells))
        expected = _location_error(_validate_by_vertex_pairs, loc, u.instance)
        assert _location_error(Location.validate, loc, u.instance) == expected, loc
        seen["pass" if expected is None else expected.split()[0]] += 1
        seen["box"] += any(isinstance(c, TaggedBox) for c in cells)
    assert seen["pass"] and seen["same-colored"] and seen["cells"] and seen["box"], seen


def test_explicit_location_validation_within_budget():
    path = path_explicit_universe(4096).instance
    halves = (
        frozenset(vertex_point(v) for v in range(0, 2048, 2)),
        frozenset(vertex_point(v) for v in range(2048, 4096, 2)),
    )
    singletons = tuple(frozenset([vertex_point(v)]) for v in range(0, 4096, 4))
    for loc in (Location(halves, (0, 0)), Location(singletons, (0,) * len(singletons))):
        start = time.perf_counter()
        loc.validate(path)
        assert time.perf_counter() - start < 2.0, len(loc.cells)


def test_location_operations_on_4096_singleton_cells_within_budget(tmp_path, capsys):
    u = path_explicit_universe(4096)
    cells = tuple(frozenset([x]) for x in u.points)
    distinct = tuple(range(len(cells)))  # keeps the pairwise check_proper cheap
    for colors in (tuple(v % 2 for v in distinct), distinct):
        start = time.perf_counter()
        Location(cells, colors).validate(u.instance)
        assert time.perf_counter() - start < 0.5, colors[:3]
    loc = Location(cells, distinct)
    q = QCondition(u, dict(zip(u.points, distinct)))
    start = time.perf_counter()
    assert is_at_location(q, loc)
    assert time.perf_counter() - start < 0.5
    inst, data = tmp_path / "path.json", tmp_path / "liminf.json"
    inst.write_text(json.dumps(universe_to_json(u)))
    data.write_text(json.dumps({
        "conditions": [{"assignment": {str(v): v for v in distinct}}] * 2,
        "location": {"cells": [{"vertices": [v]} for v in distinct], "colors": list(distinct)},
        "test_set": [0],
    }))
    start = time.perf_counter()
    assert cli.main(["poset", "liminf", str(inst), "--file", str(data)]) == 0
    assert time.perf_counter() - start < 3.0
    assert json.loads(capsys.readouterr().out)["constant_cells"] == list(distinct)


def test_one_vertex_subset_cell_needs_an_explicit_instance():
    u = line_universe(3)
    with pytest.raises(UnsupportedKindError):
        Location((frozenset([pt(0)]),), (0,)).validate(u.instance)


def test_canonical_location_geometric():
    u = line_universe(3)
    q = QCondition(u, {pt(0): 0, pt(2): 0})
    loc = canonical_location(q)
    loc.validate(u.instance)
    assert is_at_location(q, loc)


def test_canonical_location_names_a_kind_with_no_box_certificate():
    # two non-adjacent, same-coloured words: no box level can certify them,
    # because box_edge_free does not decide Hamming instances
    u = make_diagonal_hamming(3)
    x, y = next((x, y) for x, y in combinations(u.points, 2) if not adjacent(u.instance, x, y))
    with pytest.raises(UnsupportedKindError):
        canonical_location(QCondition(u, {x: 0, y: 0}))


def test_ramsey_bound_values():
    assert ramsey_bound(2, 5) == 2
    assert ramsey_bound(3, 1) == 6
    assert ramsey_bound(3, 2) == 17
    with pytest.raises(PreconditionError):
        ramsey_bound(1, 1)
    with pytest.raises(PreconditionError):
        ramsey_bound(3, 0)


@lru_cache(maxsize=None)
def _ramsey_per_goal(goals):
    """The recursion with one term per goal, as the standard statement sums
    it; goals come sorted and above 2."""
    if len(goals) <= 1:
        return goals[0] if goals else 2
    lowered = (
        tuple(sorted(g - (k == i) for k, g in enumerate(goals) if g - (k == i) > 2))
        for i in range(len(goals))
    )
    return sum(map(_ramsey_per_goal, lowered)) - len(goals) + 2


def test_ramsey_bound_sums_equal_goals_once():
    for m in range(3, 7):
        for s in range(1, 7):
            assert ramsey_bound(m, s) == _ramsey_per_goal((m,) * (s + 1)), (m, s)


def test_ramsey_bound_limits():
    # the depth (m - 2)(s + 1) binds at m = 3, the multiset count comb(s + m - 1, m - 2)
    # at m = 4: comb(141, 2) = 9870 and comb(142, 2) = 10011
    assert (MAX_RAMSEY_DEPTH, MAX_RAMSEY_STATES) == (512, 10_000)
    for m, s in ((3, 511), (4, 138), (3, 1024), (3, 512), (4, 139), (400, 1), (5, 84)):
        start = time.perf_counter()
        if (m, s) in ((3, 511), (4, 138)):
            assert ramsey_bound(m, s) > ramsey_bound(m, s - 1)
        else:
            with pytest.raises(OracleBoundError):
                ramsey_bound(m, s)
        assert time.perf_counter() - start < 2.0, (m, s)


def test_ramsey_compatible_subset_needs_a_positive_size():
    u = clustered_line_universe()
    loc = Location((_box(0, 0),), (0,))
    conds = [QCondition(u, {u.points[0]: 0})] * 2
    for m in (0, -5):
        with pytest.raises(PreconditionError):
            ramsey_compatible_subset(conds, m, loc)


def test_ramsey_oracle_pins_r33():
    assert two_coloring_forces_clique(6, 3)
    assert not two_coloring_forces_clique(5, 3)


def test_ramsey_compatible_subset_examples():
    u = clustered_line_universe()
    loc = Location((_box(0, 0),), (0,))
    # two identical conditions are compatible
    x = u.points[0]
    pair = ramsey_compatible_subset([QCondition(u, {x: 0})] * 2, 2, loc)
    assert pair is not None and pair[0] == (0, 1)
    # adjacent selections with the forced equal color cannot pair up
    lo, hi = u.points[0], u.points[8]  # 1/16 and 1 + 1/16
    from noetherlab import adjacent

    assert adjacent(u.instance, lo, hi)
    none = ramsey_compatible_subset(
        [QCondition(u, {lo: 0}), QCondition(u, {hi: 0})], 2, loc
    )
    assert none is None


def _scan_compatible_subset(conditions, m, loc):
    """The subset scan that ramsey_compatible_subset replaced: every m-subset
    in combinations order, each pair colored again."""
    color = pair_coloring(conditions, loc)
    for combo in combinations(range(len(conditions)), m):
        if all(color(i, j) == COMPATIBLE for i, j in combinations(combo, 2)):
            return combo
    return None


def test_ramsey_compatible_subset_matches_the_subset_scan():
    # One vertex cell of color 0, or two cells of different colors, on
    # seeded explicit graphs: the search returns the scan's first subset.
    rng = random.Random(2059)
    found = 0
    for _ in range(3000):
        n = rng.randint(2, 9)
        u = random_explicit_universe(rng, n, rng.uniform(0.1, 0.9))
        if rng.random() < 0.5:
            loc = Location((frozenset(u.points),), (0,))
            conds = [QCondition(u, {rng.choice(u.points): 0}) for _ in range(rng.randint(1, 12))]
        else:
            cut = rng.randint(1, n - 1)
            loc = Location((frozenset(u.points[:cut]), frozenset(u.points[cut:])), (0, 1))
            conds = [
                QCondition(u, {rng.choice(u.points[:cut]): 0, rng.choice(u.points[cut:]): 1})
                for _ in range(rng.randint(1, 12))
            ]
        m = rng.randint(1, 6)
        expected = _scan_compatible_subset(conds, m, loc)
        got = ramsey_compatible_subset(conds, m, loc)
        assert (None if got is None else got[0]) == expected, (n, m)
        if got is not None:
            found += 1
            assert all(q_extends(got[1], conds[i]) for i in got[0])
    assert 500 < found < 2500, found


def test_ramsey_meet_of_600_compatible_conditions_within_budget():
    # one-point conditions at 2000 even vertices of a path, pairwise
    # compatible; built one q_meet per member, each checking the union so
    # far again, the meet of the first 600 took 18.3 s (2-vCPU host)
    u = path_explicit_universe(4096)
    evens = [vertex_point(v) for v in range(0, 4000, 2)]
    conds = [QCondition(u, {x: 0}) for x in evens]
    loc = Location((frozenset(evens),), (0,))
    start = time.perf_counter()
    combo, meet = ramsey_compatible_subset(conds, 600, loc)
    assert time.perf_counter() - start < 5.0
    assert combo == tuple(range(600))
    assert meet.assignment == dict.fromkeys(evens[:600], 0)


def test_ramsey_thm59_guarantee_500_trials():
    rng = random.Random(59)
    u = clustered_line_universe()
    loc = Location((_box(0, 0),), (0,))
    for _ in range(500):
        conds = [QCondition(u, {rng.choice(u.points): 0}) for _ in range(6)]
        found = ramsey_compatible_subset(conds, 3, loc)
        assert found is not None
        combo, meet = found
        assert all(q_extends(meet, conds[i]) for i in combo)


def test_liminf_thin_spec_example():
    u = path_explicit_universe(10)
    loc = Location((frozenset(u.points),), (0,))
    conds = [QCondition(u, {vertex_point(n): 0}) for n in range(10)]
    result = liminf_thin(conds, loc, [vertex_point(4)])
    assert result.injective_cells == (0,)
    assert result.constant_cells == ()
    assert result.kept == tuple(range(10))  # 4 has only 2 neighbors <= T=2
    assert result.threshold == 2


def test_liminf_thin_identical_conditions():
    u = path_explicit_universe(5)
    loc = Location((frozenset(u.points),), (0,))
    conds = [QCondition(u, {vertex_point(2): 0})] * 4
    result = liminf_thin(conds, loc, [])
    assert result.constant_cells == (0,)
    assert result.kept == (0, 1, 2, 3)


def test_liminf_thin_refuses_a_negative_threshold():
    # no selection is adjacent to 9, so a threshold of -1 could never be met
    u = path_explicit_universe(10)
    loc = Location((frozenset(u.points),), (0,))
    conds = [QCondition(u, {vertex_point(n): 0}) for n in (0, 2, 4, 6)]
    assert liminf_thin(conds, loc, [vertex_point(9)], threshold=0).kept == (0, 1, 2, 3)
    with pytest.raises(PreconditionError):
        liminf_thin(conds, loc, [vertex_point(9)], threshold=-1)


def test_liminf_thin_forces_dichotomy():
    u = path_explicit_universe(10)
    loc = Location((frozenset(u.points),), (0,))
    conds = [QCondition(u, {vertex_point(n): 0}) for n in range(10)]
    result = liminf_thin(conds, loc, [vertex_point(4)], threshold=1)
    from noetherlab import adjacent

    sels = [next(iter(conds[n].assignment)) for n in result.kept]
    adj = [s for s in sels if adjacent(u.instance, vertex_point(4), s)]
    assert len(adj) <= 1 or len(adj) == len(sels)


def test_compatible_tail_spec_example():
    u = path_explicit_universe(10)
    conds = [QCondition(u, {vertex_point(n): 0}) for n in range(10)]
    r = QCondition(u, {vertex_point(0): 0, vertex_point(4): 0})
    assert compatible_tail(r, conds[0], conds) == 6
    conflicts = [n for n in range(10) if not q_compatible(r, conds[n])]
    assert conflicts == [1, 3, 5]
    # family of one element
    assert compatible_tail(conds[0], conds[0], [conds[0]]) == 0
    with pytest.raises(PreconditionError):
        compatible_tail(QCondition(u, {vertex_point(9): 0}), conds[0], conds)


_PATH = path_explicit_universe(4)
_ZERO = QCondition(_PATH, {vertex_point(0): 0})
_WHOLE_PATH = Location((frozenset(_PATH.points),), (0,))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: validate_qcondition(QCondition(_PATH, {vertex_point(7): 0})),
                 InvalidConditionError, "Point(7) not in the universe",
                 id="q-point-outside-the-universe"),
    pytest.param(lambda: validate_qcondition(QCondition(_PATH, {vertex_point(1): -1})),
                 InvalidConditionError, "color -1 is not a natural", id="q-negative-color"),
    pytest.param(lambda: compatible_tail(_ZERO, _ZERO, []), PreconditionError,
                 "family must be nonempty", id="tail-empty-family"),
    pytest.param(
        lambda: compatible_tail(_ZERO, _ZERO, [QCondition(_PATH, {vertex_point(2): 0}), _ZERO]),
        PreconditionError, "base must be the first family member", id="tail-base-not-first"),
    pytest.param(lambda: liminf_thin([_ZERO], _WHOLE_PATH, []), PreconditionError,
                 "need at least two conditions", id="liminf-one-condition"),
])
def test_q_operations_refuse_invalid_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_compatible_tail_spaced_family():
    u = path_explicit_universe(9)
    family = [QCondition(u, {vertex_point(n): 0}) for n in (0, 2, 4, 6, 8)]
    assert compatible_tail(family[0], family[0], family) == 0


def test_predense_check_examples():
    u2 = line_universe(2)
    d = [QCondition(u2, {pt(0): 0})]
    assert not predense_check(d, 2)  # {0 -> 1} hits no member
    singles = [QCondition(u2, {p: k}) for p in u2.points for k in range(2)]
    assert predense_check(singles, 2)
    assert not predense_check([], 2)


def test_reduced_support_is_the_closed_neighborhood_union():
    u = line_universe(3)
    d = [QCondition(u, {pt(1): 0})]
    b_mask, c_mask = reduced_support(d)
    assert u.points_of(b_mask) == frozenset([pt(1)])
    assert u.points_of(c_mask) == frozenset(u.points)  # N[1] covers everything
    d0 = [QCondition(u, {pt(0): 0})]
    _, c0 = reduced_support(d0)
    assert u.points_of(c0) == frozenset([pt(0), pt(1)])  # 2 is out of reach


def _subset_support(d, universe, max_arity):
    """(b, c) with c the union of b and the common closed neighborhood of
    every nonempty subset of b of at most max_arity points."""
    b_mask = 0
    for q in d:
        b_mask |= universe.mask_of(q.assignment)
    b_points = universe.ordered_points_of(b_mask)
    c_mask = b_mask
    for size in range(1, min(max_arity, len(b_points)) + 1):
        for combo in combinations(b_points, size):
            c_mask |= common_neighborhood_mask(universe, combo)
    return b_mask, c_mask


def test_reduced_support_matches_the_subset_enumeration_at_every_arity():
    rng = random.Random(21)
    cases = 0
    for _ in range(4):
        for u in universes_of_every_kind(rng, max_points=10):
            d = []
            for _ in range(rng.randint(1, 3)):
                pts = rng.sample(u.points, k=rng.randint(1, min(3, len(u))))
                d.append(QCondition(u, {x: rng.randrange(3) for x in pts}))
            support = reduced_support(d)
            b_size = bin(support[0]).count("1")
            assert b_size <= 10
            for arity in range(1, b_size + 1):
                assert support == _subset_support(d, u, arity), (u.instance.kind, arity)
            cases += 1
    assert cases == 32


def test_predense_equivalence_randomized():
    rng = random.Random(20)
    from noetherlab.generators import random_explicit_universe

    for _ in range(200):
        n = rng.randint(3, 8)
        u = random_explicit_universe(rng, n, rng.uniform(0.2, 0.6))
        budget = rng.randint(2, 3)
        d = [random_qcondition(rng, u, budget) for _ in range(rng.randint(1, 3))]
        assert predense_check(d, budget) == predense_check_reduced(d, budget)


def test_predense_reduce_spec_example():
    u = line_universe(3)
    d = [QCondition(u, {pt(1): 0})]
    q = QCondition(u, {pt(0): 0})
    loc = Location((_box(-1, 2),), (0,))
    r = predense_reduce(d, q, loc)
    assert r.assignment == q.assignment
    assert all(not q_compatible(r, s) for s in d)


def test_predense_reduce_keeps_b_points():
    u = line_universe(3)
    d = [QCondition(u, {pt(0): 0}), QCondition(u, {pt(1): 1})]
    q = QCondition(u, {pt(0): 1})  # recolors 0, and collides with 1 across the edge
    assert all(not q_compatible(q, s) for s in d)
    loc = canonical_location(q)
    r = predense_reduce(d, q, loc)
    assert r.assignment == {pt(0): 1}


def test_predense_reduce_moves_to_a_disconnected_b_point():
    # x = 3 lies off b = {0, 2}; its common neighborhood N(0) meets the cell
    # in the b-point 2, which is not adjacent to 3, so the reduction moves
    # there, where the fallback into c would have kept {3: 0}
    u = explicit_universe(4, [(0, 2), (0, 3)])
    v = [vertex_point(i) for i in range(4)]
    d = [QCondition(u, {v[0]: 0}), QCondition(u, {v[0]: 0, v[2]: 1})]
    q = QCondition(u, {v[3]: 0})
    loc = Location((frozenset([v[2], v[3]]),), (0,))
    assert predense_reduce(d, q, loc).assignment == {v[2]: 0}


def test_predense_reduce_preconditions():
    u = line_universe(3)
    q = QCondition(u, {pt(0): 0})
    loc = canonical_location(q)
    with pytest.raises(PreconditionError):
        predense_reduce([], q, loc)
    compatible_member = [QCondition(u, {pt(2): 1})]
    with pytest.raises(PreconditionError):
        predense_reduce(compatible_member, q, loc)


def test_predense_reduce_failure_reported():
    # one cell carries the clash, the other sits outside c with no admissible y
    u = explicit_universe(3, [(0, 1)])  # vertex 2 isolated
    d = [QCondition(u, {vertex_point(0): 0})]
    q = QCondition(u, {vertex_point(1): 0, vertex_point(2): 0})
    assert not q_compatible(q, d[0])
    loc = Location(
        (frozenset([vertex_point(1)]), frozenset([vertex_point(2)])), (0, 0)
    )
    with pytest.raises(ReductionFailureError):
        predense_reduce(d, q, loc)


def test_selection_helper():
    u = clustered_line_universe()
    loc = Location((_box(0, 0),), (0,))
    x = u.points[3]
    assert _selected(QCondition(u, {x: 0}), loc) == [x]
    assert _selected(QCondition(u, {x: 1}), loc) is None


# -- agreement with the pairwise adjacent() definitions -------------------------
# q_incompatibility_witness, pair_coloring (and with it ramsey_compatible_subset)
# and liminf_thin read the universe's masks; the bodies below are their
# definitions by one adjacent() call per pair.


def _q_witness_pairwise(q0, q1):
    for x, c in q0.assignment.items():
        other = q1.assignment.get(x)
        if other is not None and other != c:
            return ("function-clash", x, c, other)
    instance = q0.universe.instance
    for x, c in q0.assignment.items():
        for y, e in q1.assignment.items():
            if c == e and x != y and adjacent(instance, x, y):
                return ("edge-clash", x, y, c)
    return None


def _selection_scan(q, loc, cell_idx):
    """The first domain point of q inside the cell, by a scan of the domain."""
    for x in q.assignment:
        if cell_contains(loc.cells[cell_idx], x):
            return x
    raise LocationError(f"condition selects nothing in cell {cell_idx}")


def _pair_coloring_pairwise(conditions, loc):
    sels = [[_selection_scan(q, loc, i) for i in range(len(loc.cells))] for q in conditions]
    instance = conditions[0].universe.instance

    def color(i, j):
        for cell_idx in range(len(loc.cells)):
            a, b = sels[i][cell_idx], sels[j][cell_idx]
            if a != b and adjacent(instance, a, b):
                return cell_idx
        return COMPATIBLE

    return color


def _ramsey_pairwise(conditions, m, loc):
    if not conditions:
        return None
    loc.validate(conditions[0].universe.instance)
    for q in conditions:
        if not is_at_location(q, loc):
            raise LocationError("condition is not at the given location")
    color = _pair_coloring_pairwise(conditions, loc)
    for combo in combinations(range(len(conditions)), m):
        if all(color(i, j) == COMPATIBLE for i, j in combinations(combo, 2)):
            meet = conditions[combo[0]]
            for i in combo[1:]:
                meet = q_meet(meet, conditions[i])
            for i in combo:
                if not q_extends(meet, conditions[i]):
                    raise VerificationError(f"meet is not below condition {i}")
            return combo, meet
    return None


def _liminf_pairwise(conditions, loc, test_set, threshold=None):
    if len(conditions) < 2:
        raise PreconditionError("need at least two conditions")
    loc.validate(conditions[0].universe.instance)
    for q in conditions:
        if not is_at_location(q, loc):
            raise LocationError("condition is not at the given location")
    ncells = len(loc.cells)
    thr = 2 * ncells if threshold is None else threshold
    sels = [[_selection_scan(q, loc, i) for i in range(ncells)] for q in conditions]
    constant = tuple(i for i in range(ncells) if len({sel[i] for sel in sels}) == 1)
    injective = tuple(i for i in range(ncells) if i not in constant)
    kept = []
    for n in range(len(conditions)):
        if all(sels[n][i] not in {sels[k][i] for k in kept} for i in injective):
            kept.append(n)
    instance = conditions[0].universe.instance
    test_points = list(test_set)
    changed = True
    while changed:
        changed = False
        for t in test_points:
            for i in injective:
                adj = [n for n in kept if adjacent(instance, t, sels[n][i])]
                if len(adj) <= thr or len(adj) == len(kept):
                    continue
                non_adj = [n for n in kept if n not in adj]
                kept = adj if len(adj) >= len(non_adj) else non_adj
                changed = True
    return constant, injective, tuple(kept), thr


def _random_location(rng, u):
    """One to three disjoint cells with distinct colors, each around a point."""
    n_cells = rng.randint(1, min(3, len(u)))
    pts = rng.sample(u.points, k=len(u))
    if u.instance.kind == EXPLICIT:
        cuts = sorted(rng.sample(range(1, len(pts)), k=n_cells - 1))
        cells = [frozenset(pts[a:b]) for a, b in zip([0] + cuts, cuts + [len(pts)])]
    else:
        cells = []
        for x in pts:
            box = first_box_containing(x, tag=0, min_level=rng.randint(0, 2))
            if all(boxes_disjoint(box, c) for c in cells):
                cells.append(box)
            if len(cells) == n_cells:
                break
    loc = Location(tuple(cells), tuple(range(len(cells))))
    loc.validate(u.instance)
    return loc


def _conditions_at(rng, u, loc, n):
    members = [[p for p in u.points if cell_contains(cell, p)] for cell in loc.cells]
    return [
        QCondition(u, {rng.choice(m): c for m, c in zip(members, loc.colors)})
        for _ in range(n)
    ]


def test_q_incompatibility_witness_agrees_with_pairwise_adjacency():
    rng = random.Random(62)
    seen = Counter()
    for _ in range(60):
        for u in universes_of_every_kind(rng):
            a = {x: rng.randrange(2) for x in rng.sample(u.points, k=rng.randint(0, len(u)))}
            b = {x: rng.randrange(2) for x in rng.sample(u.points, k=rng.randint(0, len(u)))}
            for x in a.keys() & b.keys():
                if rng.random() < 0.9:
                    b[x] = a[x]
            q0, q1 = QCondition(u, a), QCondition(u, b)
            for s, t in ((q0, q1), (q1, q0)):
                witness = q_incompatibility_witness(s, t)
                assert witness == _q_witness_pairwise(s, t), u.instance.kind
                seen[witness[0] if witness else None] += 1
    assert all(seen[k] > 0 for k in ("function-clash", "edge-clash", None)), seen


def test_ramsey_selection_agrees_with_pairwise_adjacency():
    rng = random.Random(63)
    seen = Counter()
    for _ in range(25):
        for u in universes_of_every_kind(rng):
            loc = _random_location(rng, u)
            conds = _conditions_at(rng, u, loc, rng.randint(2, 6))
            color, reference = pair_coloring(conds, loc), _pair_coloring_pairwise(conds, loc)
            for i, j in combinations(range(len(conds)), 2):
                assert color(i, j) == reference(i, j), u.instance.kind
                seen["compatible" if color(i, j) == COMPATIBLE else "clash"] += 1
            m = rng.randint(2, 3)
            found = ramsey_compatible_subset(conds, m, loc)
            assert found == _ramsey_pairwise(conds, m, loc), u.instance.kind
            seen["none" if found is None else "found"] += 1
    assert all(seen[k] > 0 for k in ("compatible", "clash", "none", "found")), seen


def test_liminf_thin_agrees_with_pairwise_adjacency():
    rng = random.Random(64)
    thinned = 0
    for _ in range(25):
        for u in universes_of_every_kind(rng):
            loc = _random_location(rng, u)
            conds = _conditions_at(rng, u, loc, rng.randint(2, 8))
            test_set = rng.sample(u.points, k=rng.randint(0, min(3, len(u))))
            threshold = rng.choice((None, 0, 1))
            result = liminf_thin(conds, loc, test_set, threshold)
            reference = _liminf_pairwise(conds, loc, test_set, threshold)
            assert (
                result.constant_cells, result.injective_cells, result.kept, result.threshold
            ) == reference, u.instance.kind
            thinned += result.kept != liminf_thin(conds, loc, [], threshold).kept
    assert thinned > 0


def test_liminf_thin_rejects_foreign_test_points():
    u = clustered_line_universe()
    loc = Location((_box(0, 0),), (0,))
    conds = [QCondition(u, {u.points[0]: 0}), QCondition(u, {u.points[8]: 0})]
    with pytest.raises(UnknownPointError):
        liminf_thin(conds, loc, [pt(Fraction(1, 32))])


# -- the mask-based predensity search and cell selection ------------------------
# The references below are the earlier implementations: a search that keeps
# the partial condition in a dict, and a membership scan per cell.


def _predense_check_partial_dict(d, universe, color_budget, *, domain_mask=None, node_limit):
    if color_budget < 1:
        raise PreconditionError("color budget must be >= 1")
    if not d:
        return False
    full = universe.full_mask if domain_mask is None else domain_mask
    idxs = [i for i in range(len(universe)) if full >> i & 1]
    open_masks = universe.open_masks
    tables = []
    for q in d:
        values = {universe.index(x): c for x, c in q.assignment.items()}
        by_color = {}
        for x, c in q.assignment.items():
            by_color[c] = by_color.get(c, 0) | 1 << universe.index(x)
        tables.append((universe.mask_of(q.assignment), values, by_color))
    relevant = []
    for dom_mask, _, _ in tables:
        rel = dom_mask
        for i in range(len(universe)):
            if dom_mask >> i & 1:
                rel |= open_masks[i]
        relevant.append(rel)
    nodes = 0

    def clashes(member, i, c):
        dom_mask, values, by_color = tables[member]
        if dom_mask >> i & 1 and values[i] != c:
            return True
        return bool(open_masks[i] & by_color.get(c, 0))

    def rec(pos, alive, partial):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise OracleBoundError("predensity scan exceeded its node limit")
        if not alive:
            return False
        remaining = 0
        for j in idxs[pos:]:
            remaining |= 1 << j
        if any(not (relevant[s] & remaining) for s in alive):
            return True
        if pos == len(idxs):
            return True
        i = idxs[pos]
        if not rec(pos + 1, alive, partial):
            return False
        for c in range(color_budget):
            if any(open_masks[i] >> j & 1 and pc == c for j, pc in partial.items()):
                continue
            new_alive = tuple(s for s in alive if not clashes(s, i, c))
            partial[i] = c
            ok = rec(pos + 1, new_alive, partial)
            del partial[i]
            if not ok:
                return False
        return True

    return rec(0, tuple(range(len(d))), {})


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OracleBoundError:
        return "node-limit"


def _predense_family(rng):
    n = rng.randint(2, 8)
    style = rng.choice(("explicit", "line", "path"))
    if style == "explicit":
        u = random_explicit_universe(rng, n, rng.uniform(0.2, 0.6))
    else:
        u = line_universe(n) if style == "line" else path_explicit_universe(n)
    d = [random_qcondition(rng, u, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    mask = None if rng.random() < 0.5 else rng.getrandbits(n)
    return u, d, rng.randint(1, 5), mask


def test_predense_check_agrees_with_the_partial_dict_search(monkeypatch):
    rng = random.Random(2203)
    seen = Counter()
    for _ in range(2000):
        u, d, budget, mask = _predense_family(rng)
        limit = rng.choice((5, 20, 80, 2_000_000))
        monkeypatch.setattr("noetherlab.errors.NODE_LIMIT", limit)
        full = u.full_mask if mask is None else mask

        def unpruned(budget, node_limit):
            return _outcome(
                _predense_check_partial_dict, d, u, budget, domain_mask=mask, node_limit=node_limit
            )

        # Unclamped, the search visits a subsequence of the reference's
        # nodes, in order: the fresh-color prune skips only subtrees that
        # mirror one it walks.  So where the reference finishes it gives the
        # same answer, and where the reference trips it trips too or gives
        # the answer of the unlimited reference.
        reference, exact = unpruned(budget, limit), unpruned(budget, 2_000_000)
        assert _outcome(_predense_search, d, budget, full) in {reference, exact}
        clamped = min(budget, budget_clamp(d))
        got = _outcome(predense_check, d, budget, domain_mask=mask)
        assert got in {unpruned(clamped, limit), unpruned(clamped, 2_000_000)}
        if limit == 2_000_000:
            assert got == reference  # the clamp keeps the answer
        seen[got] += 1
        seen["clamped"] += clamped < budget
    assert all(seen[k] > 0 for k in (True, False, "node-limit", "clamped")), seen


def test_fresh_color_prune_keeps_the_unpruned_answers():
    # at the clamp and two colors past it most colors are fresh, so the
    # prune cuts the most there; the unpruned reference must agree
    rng = random.Random(2811)
    for _ in range(300):
        u, d, _, mask = _predense_family(rng)
        full = u.full_mask if mask is None else mask
        clamp = budget_clamp(d)
        for budget in (clamp, clamp + 2):
            assert _predense_search(d, budget, full) == _predense_check_partial_dict(
                d, u, budget, domain_mask=mask, node_limit=2_000_000
            )


def test_fresh_color_prune_on_the_budget_clamp_heavy_tail(monkeypatch):
    # budget-clamp seed 1, trial 118: at clamp + 2 = 7 colors the unpruned
    # search walks 70,468 nodes (0.39 s of the suite's 0.43 s at 150
    # trials), and the search that tries one fresh color per node 3,654
    u = explicit_universe(6, [(0, 5), (1, 2), (1, 3), (1, 4)])
    v = vertex_point
    d = [QCondition(u, {v(0): 0}), QCondition(u, {v(0): 1}), QCondition(u, {v(4): 0, v(3): 1})]
    assert budget_clamp(d) == 5
    monkeypatch.setattr("noetherlab.errors.NODE_LIMIT", 4_000)
    answers = [_predense_search(d, b, u.full_mask) for b in range(1, 10)]
    assert answers == [True, True] + [False] * 7
    with pytest.raises(OracleBoundError):
        _predense_check_partial_dict(d, u, 7, node_limit=4_000)


def test_budget_clamp_seed23_counterexample():
    # budget-clamp seed 23, trial 121: two colors cannot clash with both
    # members, a third color can
    u = explicit_universe(5, [(1, 4)])
    d = [QCondition(u, {vertex_point(4): 0}), QCondition(u, {vertex_point(1): 0})]
    answers = [_predense_search(d, b, u.full_mask) for b in range(1, 8)]
    assert answers == [True, True, False, False, False, False, False]
    # max(d) = 0: the old clamp max(d)+2 disagrees with max(d)+4, the new
    # clamp 3 agrees with 5
    assert answers[2 - 1] != answers[4 - 1]
    assert budget_clamp(d) == 3
    assert answers[3 - 1] == answers[5 - 1]
    assert predense_check(d, 7) is False
    assert predense_check(d, 2) is True


def _is_at_location_scan(q, loc):
    hits = [0] * len(loc.cells)
    for x, c in q.assignment.items():
        cell_idx = next((i for i, cell in enumerate(loc.cells) if cell_contains(cell, x)), None)
        if cell_idx is None or c != loc.colors[cell_idx]:
            return False
        hits[cell_idx] += 1
    return all(h == 1 for h in hits)


def _first_cell_selection(q, loc):
    """For each cell, the point of q that it holds first among the cells."""
    first = {
        x: next(i for i, cell in enumerate(loc.cells) if cell_contains(cell, x))
        for x in q.assignment
    }
    return [next(x for x in q.assignment if first[x] == i) for i in range(len(loc.cells))]


def _with_an_overlap(rng, u, loc):
    """loc with one more cell, of a new color and at a random index, that
    shares a point with a cell of loc."""
    i = rng.randrange(len(loc.cells))
    x = rng.choice([p for p in u.points if cell_contains(loc.cells[i], p)])
    if isinstance(loc.cells[i], frozenset):
        cell = frozenset([x, *rng.sample(u.points, k=rng.randint(0, min(2, len(u))))])
    else:
        cell = first_box_containing(x, tag=0, min_level=rng.randint(0, 2))
    k = rng.randint(0, len(loc.cells))
    colors = loc.colors[:k] + (len(loc.cells),) + loc.colors[k:]
    return Location(loc.cells[:k] + (cell,) + loc.cells[k:], colors)


def _perturbed(rng, u, loc, q):
    """q, or q with a second point in a cell, a wrong color, an emptied
    cell, or an extra point anywhere."""
    how = rng.choice(("same", "two-in-a-cell", "wrong-color", "empty-cell", "anywhere"))
    a = dict(q.assignment)
    if how == "two-in-a-cell":
        i = rng.randrange(len(loc.cells))
        extra = [p for p in u.points if cell_contains(loc.cells[i], p) and p not in a]
        if not extra:
            return "same", q
        a[rng.choice(extra)] = loc.colors[i]
    elif how == "wrong-color":
        x = rng.choice(list(a))
        a[x] += 1
    elif how == "empty-cell":
        del a[rng.choice(list(a))]
    elif how == "anywhere":
        a[rng.choice(u.points)] = rng.randrange(3)
    return how, QCondition(u, a)


def test_cell_selection_agrees_with_the_membership_scan():
    rng = random.Random(2204)
    seen = Counter()
    for _ in range(40):
        for u in universes_of_every_kind(rng):
            loc = _random_location(rng, u)
            overlap = rng.random() < 0.3  # a point of two cells is the first one's
            if overlap:
                loc = _with_an_overlap(rng, u, loc)
            conds = []
            for q in _conditions_at(rng, u, loc, rng.randint(1, 5)):
                how, q = _perturbed(rng, u, loc, q)
                at = _is_at_location_scan(q, loc)
                assert is_at_location(q, loc) == at, (how, u.instance.kind)
                expected = _first_cell_selection(q, loc) if at else None
                assert _selected(q, loc) == expected, (how, u.instance.kind)
                seen[how, at] += 1
                seen["overlap", at] += overlap
                seen["vertex-subset" if isinstance(loc.cells[0], frozenset) else "box"] += 1
                conds.append(q)
            if not overlap and all(_is_at_location_scan(q, loc) for q in conds):
                reference = [
                    [u.index(_selection_scan(q, loc, i)) for i in range(len(loc.cells))]
                    for q in conds
                ]
                assert _selections(conds, loc) == reference
            else:
                with pytest.raises(LocationError):
                    _selections(conds, loc)
    kinds = ("two-in-a-cell", "wrong-color", "empty-cell")
    assert all(seen[k, False] > 0 for k in kinds), seen
    assert seen["same", True] > 0 and seen["anywhere", False] > 0, seen
    assert seen["vertex-subset"] > 0 and seen["box"] > 0, seen
    assert seen["overlap", True] > 0 and seen["overlap", False] > 0, seen


# -- a family reads points in its first member's universe -----------------------
# A member over another ordering of the same points gives the answers of the
# member remapped onto the first member's universe; a member point outside
# that universe raises UnknownPointError.


def _shuffled(rng, u):
    return SampleUniverse(u.instance, rng.sample(u.points, k=len(u)))


def _over(universe, q):
    return QCondition(universe, dict(q.assignment))


def test_q_operations_map_a_member_over_a_shuffled_copy():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(40):
        for u in universes_of_every_kind(rng):
            copy = _shuffled(rng, u)
            q0, q1 = (random_qcondition(rng, u, rng.randint(1, 3)) for _ in range(2))
            moved = _over(copy, q1)
            compatible = q_compatible(q0, q1)
            assert q_compatible(q0, moved) == compatible, u.instance.kind
            assert q_incompatibility_witness(q0, moved) == q_incompatibility_witness(q0, q1)
            if compatible:
                assert q_meet(q0, moved) == q_meet(q0, q1)
            family = [q0, q1, random_qcondition(rng, u, 2)]
            mixed = [q0] + [_over(copy, q) for q in family[1:]]
            assert compatible_tail(q0, q0, mixed) == compatible_tail(q0, q0, family)
            seen[compatible] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


def test_predensity_maps_members_over_a_shuffled_copy():
    rng = random.Random(11)
    seen = Counter()
    for _ in range(300):
        u, d, budget, _ = _predense_family(rng)
        copy = _shuffled(rng, u)
        # the first member stays, so the family's universe is u
        mixed = [d[0]] + [_over(copy, q) if rng.random() < 0.7 else q for q in d[1:]]
        answer = predense_check(d, budget)
        assert predense_check(mixed, budget) == answer
        assert predense_check_reduced(mixed, budget) == predense_check_reduced(d, budget)
        assert reduced_support(mixed) == reduced_support(d)
        seen[answer] += 1
        pool = u.ordered_points_of(reduced_support(d)[1])
        pts = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
        q = QCondition(u, {x: rng.randrange(budget) for x in pts})
        if check_proper(u, q.assignment) or any(q_compatible(q, s) for s in d):
            continue
        loc = canonical_location(q)
        assert _outcome_or_error(predense_reduce, mixed, _over(copy, q), loc) == (
            _outcome_or_error(predense_reduce, d, q, loc)
        )
        seen["reduced"] += 1
    assert seen[True] > 0 and seen[False] > 0 and seen["reduced"] > 0, seen


def _outcome_or_error(fn, *args):
    try:
        return fn(*args).assignment
    except ReductionFailureError as exc:
        return str(exc)


def test_a_member_point_outside_the_first_universe_is_unknown():
    u = line_universe(3)
    q0 = QCondition(u, {pt(1): 0})
    # pt(2) is at index 0 of the reversed copy, where u has pt(1)'s neighbor pt(0)
    reversed_copy = SampleUniverse(u.instance, u.points[::-1])
    assert q_incompatibility_witness(q0, QCondition(reversed_copy, {pt(2): 0})) == (
        "edge-clash", pt(1), pt(2), 0
    )
    outside = QCondition(SampleUniverse(u.instance, [pt(7), pt(1)]), {pt(7): 0})
    with pytest.raises(UnknownPointError):
        q_compatible(q0, outside)
    with pytest.raises(UnknownPointError):
        predense_check([q0, outside], 2)
    with pytest.raises(UnknownPointError):
        reduced_support([q0, outside])
