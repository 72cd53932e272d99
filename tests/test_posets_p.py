import random
from collections import Counter
from itertools import combinations, islice

import pytest

from conftest import universes_of_every_kind
from noetherlab import (
    PCondition,
    TaggedBox,
    adjacent,
    box_contains,
    is_separated,
    p_compatible,
    p_leq,
    p_lower_bound,
    pt,
    validate_pcondition,
)
from noetherlab.coloring_poset import p_incompatibility_witness
from noetherlab.errors import IncompatibilityError, InvalidConditionError
from noetherlab.geometry import iter_boxes_containing
from noetherlab.generators import line_universe, random_pcondition, random_universe


def _box(corner, level, tag=0):
    return TaggedBox(tag=tag, level=level, corners=(corner,))


def test_pleq_examples():
    u = line_universe(3)
    p = PCondition(u, {pt(0): _box(-1, 2)})
    assert p_leq(p, p)  # reflexive
    q_ok = PCondition(u, {pt(0): _box(-1, 2), pt(1): _box(3, 2)})
    assert p_leq(q_ok, p)
    # level-1 box (-1/2, 1/2) around 0 assigned to... give 1 a box holding 0:
    # no dyadic box contains both 0 and 1 except via wider ones; use (0,2)
    # does not contain 0, so craft the violation with the neighbor 2 of 1.
    p1 = PCondition(u, {pt(1): _box(0, 0)})
    q_bad = PCondition(u, {pt(1): _box(0, 0), pt(2): _box(1, 0)})
    # (1,3) does not contain 1, so this one is fine
    assert p_leq(q_bad, p1)
    q_viol = PCondition(u, {pt(1): _box(0, 0), pt(0): _box(-1, 0)})
    # (-1,1) contains no point adjacent to 0 from dom(p1)={1}? 1 not in (-1,1): ok
    assert p_leq(q_viol, p1)
    # a genuine violation: 2 gets (0,2), which contains the dom(p)-point 1
    q_really_bad = PCondition(u, {pt(1): _box(0, 0), pt(2): _box(0, 0, tag=1)})
    assert box_contains(_box(0, 0, tag=1), pt(1))
    assert not p_leq(q_really_bad, p1)
    # not an extension at all
    assert not p_leq(PCondition(u, {pt(0): _box(-1, 0)}), p1)


def test_pleq_transitive_randomized():
    # build r <= q <= p chains constructively and check r <= p follows
    rng = random.Random(14)
    from noetherlab import extend_coloring

    for _ in range(100):
        u = random_universe(rng, 8)
        p = random_pcondition(rng, u)
        full = PCondition(u, extend_coloring(p).assignment)
        new_points = [x for x in u.points if x not in p.domain()]
        cut = rng.randint(0, len(new_points))
        mid_dom = p.domain() | frozenset(new_points[:cut])
        q = PCondition(u, {x: full.assignment[x] for x in mid_dom})
        assert p_leq(q, p) and p_leq(full, q)
        assert p_leq(full, p)
        assert p_leq(p, p) and p_leq(q, q)


def test_pcompatible_examples():
    u = line_universe(3)
    p0 = PCondition(u, {pt(0): _box(-1, 2)})
    p1 = PCondition(u, {pt(1): _box(3, 2)})
    assert p_compatible(p0, p1) and p_compatible(p1, p0)
    assert p_compatible(p0, p0)
    # box of 1 swallowing its neighbor 0: (0,2) excludes 0, so use level-0
    # (-1,1) around 0 for the point 1? it does not contain 1. Violation needs
    # x1 in p0(x0): give 0 the box (-1,1) and 1 the box (0,2): 0 not in (0,2),
    # 1 not in (-1,1): compatible. True violations need finer boxes:
    bad = PCondition(u, {pt(1): _box(0, 0)})  # (0,2) contains 1 only
    other = PCondition(u, {pt(2): _box(0, 0, tag=1)})  # (0,2) contains 1 = nbr of 2
    # x0=2 with box containing x1=1? 1 in (0,2) but 1 is not in dom(bad)... build clash:
    a = PCondition(u, {pt(2): _box(0, 0)})  # (0,2) contains 1
    b = PCondition(u, {pt(1): _box(3, 2)})
    assert not p_compatible(a, b)  # 1 in a's box at 2, and 1 adjacent to 2
    # function clash
    f0 = PCondition(u, {pt(0): _box(-1, 2)})
    f1 = PCondition(u, {pt(0): _box(-1, 1)})
    assert not p_compatible(f0, f1)


def test_pcompatible_symmetric_randomized():
    rng = random.Random(15)
    for _ in range(200):
        u = random_universe(rng, 10)
        a, b = random_pcondition(rng, u), random_pcondition(rng, u)
        assert p_compatible(a, b) == p_compatible(b, a)


def test_lower_bound_compatible_pair_with_new_point():
    u = line_universe(3)
    p0 = PCondition(u, {pt(0): _box(-1, 2)})
    p1 = PCondition(u, {pt(1): _box(3, 2)})
    q = p_lower_bound([p0, p1], pt(2))
    assert q.domain() == frozenset(u.points)
    assert not box_contains(q.assignment[pt(2)], pt(1))
    assert p_leq(q, p0) and p_leq(q, p1)


def test_lower_bound_single_condition_returns_it():
    u = line_universe(3)
    p = PCondition(u, {pt(1): _box(0, 0)})  # dom {1} is good here
    q = p_lower_bound([p], pt(1))
    assert q.assignment == p.assignment


def test_lower_bound_empty_set():
    u = line_universe(3)
    q = p_lower_bound([], pt(1), universe=u)
    assert q.assignment == {pt(1): _box(0, 0)}


def test_lower_bound_incompatible_raises_with_witness():
    u = line_universe(3)
    a = PCondition(u, {pt(2): _box(0, 0)})
    b = PCondition(u, {pt(1): _box(3, 2)})
    with pytest.raises(IncompatibilityError) as err:
        p_lower_bound([a, b])
    assert err.value.witness is not None


def test_validate_pcondition():
    u = line_universe(3)
    with pytest.raises(InvalidConditionError):
        validate_pcondition(PCondition(u, {pt(0): _box(0, 0)}))  # 0 not in (0,2)
    improper = PCondition(u, {pt(0): _box(-1, 0), pt(1): _box(-1, 0)})
    # (-1,1) contains 0 but not 1: unsuitable for 1, flagged
    with pytest.raises(InvalidConditionError):
        validate_pcondition(improper)
    good = PCondition(u, {pt(1): _box(0, 0)})
    validate_pcondition(good, require_good=True)
    not_good_dom = PCondition(u, {pt(0): _box(-1, 0)})
    validate_pcondition(not_good_dom)  # fine without goodness
    with pytest.raises(InvalidConditionError):
        validate_pcondition(not_good_dom, require_good=True)


def test_amalgamation_gap_on_non_separated_conditions():
    # Pairwise compatibility does not characterize amalgamation once a color
    # swallows a point shared between two domains: p is contained in pp, the
    # criterion is vacuous, yet pp is not below p and no common bound exists.
    from fractions import Fraction

    from noetherlab import is_separated
    from noetherlab.errors import AmalgamationError
    from noetherlab.generators import clustered_line_universe

    u = clustered_line_universe()
    y, z = pt(Fraction(3, 2)), pt(Fraction(1, 2))
    small = _box(5, 2)  # (5/4, 7/4), only y
    wide = _box(0, 0)  # (0, 2), swallows both y and z
    p = PCondition(u, {y: small})
    pp = PCondition(u, {y: small, z: wide})
    validate_pcondition(p)
    validate_pcondition(pp)
    assert p_compatible(p, pp)
    assert not p_leq(pp, p)
    assert is_separated(p) and not is_separated(pp)
    with pytest.raises(AmalgamationError):
        p_lower_bound([p, pp])


def test_random_generator_emits_separated_conditions():
    from noetherlab import is_separated

    rng = random.Random(44)
    for _ in range(100):
        u = random_universe(rng, 10)
        assert is_separated(random_pcondition(rng, u))


def test_prop43_equivalence_randomized():
    rng = random.Random(16)
    for _ in range(300):
        u = random_universe(rng, 10)
        conds = [random_pcondition(rng, u) for _ in range(rng.randint(1, 4))]
        x = rng.choice(u.points)
        compatible = all(p_compatible(a, b) for a, b in combinations(conds, 2))
        try:
            bound = p_lower_bound(conds, x)
            built = True
        except IncompatibilityError:
            built = False
        assert built == compatible
        if built:
            assert x in bound.domain()
            assert all(p_leq(bound, c) for c in conds)


# -- agreement with the pairwise adjacent() definitions -------------------------
# p_leq, p_incompatibility_witness and is_separated read the universe's masks;
# the bodies below are their definitions by one adjacent() call per pair.


def _p_leq_pairwise(q, p):
    for x, box in p.assignment.items():
        if q.assignment.get(x) != box:
            return False
    dom_p = p.domain()
    instance = q.universe.instance
    for x, box in q.assignment.items():
        if x in dom_p:
            continue
        for y in dom_p:
            if adjacent(instance, x, y) and box_contains(box, y):
                return False
    return True


def _p_witness_pairwise(p0, p1):
    for x, box in p0.assignment.items():
        other = p1.assignment.get(x)
        if other is not None and other != box:
            return ("function-clash", x, box, other)
    instance = p0.universe.instance
    dom0, dom1 = p0.domain(), p1.domain()
    only0 = sorted(dom0 - dom1, key=p0.universe.index)
    only1 = sorted(dom1 - dom0, key=p0.universe.index)
    for x0 in only0:
        for x1 in only1:
            if not adjacent(instance, x0, x1):
                continue
            if box_contains(p0.assignment[x0], x1):
                return ("box-contains", x0, x1, p0.assignment[x0])
            if box_contains(p1.assignment[x1], x0):
                return ("box-contains", x1, x0, p1.assignment[x1])
    return None


def _is_separated_pairwise(p):
    instance = p.universe.instance
    pts = list(p.assignment)
    for x in pts:
        box = p.assignment[x]
        for y in pts:
            if y != x and adjacent(instance, x, y) and box_contains(box, y):
                return False
    return True


def _random_boxes(rng, pts):
    """A random coarse box around each point: suitable, not always proper."""
    return {
        x: next(islice(iter_boxes_containing(x, min_level=rng.randint(0, 1)), rng.randint(0, 3), None))
        for x in pts
    }


def _random_pair(rng, u):
    """Two assignments that share some points, with equal or redrawn boxes."""
    a = _random_boxes(rng, rng.sample(u.points, k=rng.randint(0, len(u))))
    b = _random_boxes(rng, rng.sample(u.points, k=rng.randint(0, len(u))))
    for x in a.keys() & b.keys():
        if rng.random() < 0.9:
            b[x] = a[x]
    return PCondition(u, a), PCondition(u, b)


def test_p_order_and_compatibility_agree_with_pairwise_adjacency():
    rng = random.Random(61)
    seen = Counter()
    for _ in range(60):
        for u in universes_of_every_kind(rng):
            p0, p1 = _random_pair(rng, u)
            for a, b in ((p0, p1), (p1, p0)):
                witness = p_incompatibility_witness(a, b)
                assert witness == _p_witness_pairwise(a, b), u.instance.kind
                seen[witness[0] if witness else None] += 1
                # b extended by a's points outside dom(b): an extension of b
                ext = PCondition(u, {**a.assignment, **b.assignment})
                for q, p in ((a, b), (ext, b), (b, ext)):
                    got = p_leq(q, p)
                    assert got == _p_leq_pairwise(q, p), u.instance.kind
                    seen[("p_leq", got)] += 1
                got = is_separated(a)
                assert got == _is_separated_pairwise(a), u.instance.kind
                seen[("separated", got)] += 1
    # every branch was reached, so the agreement is not vacuous
    for key in ("function-clash", "box-contains", None, ("p_leq", True), ("p_leq", False),
                ("separated", True), ("separated", False)):
        assert seen[key] > 0, key
