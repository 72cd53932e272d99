"""The box-valued coloring poset: conditions, ordering, compatibility,
and the constructive common lower bound.

Conditions are finite suitable proper colorings by tagged boxes whose
domain is good relative to the universe.  Goodness is where the finite
artifact deliberately diverges from some of its own worked examples (see
coloring.validate_pcondition); the ordering and compatibility criteria
themselves never mention goodness and accept any suitable proper
assignment.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .coloring import PCondition, separating_box, validate_pcondition
from .errors import AmalgamationError, IncompatibilityError, PreconditionError
from .geometry import Point, TaggedBox, box_contains
from .graphs import SampleUniverse
from .lattice import good_closure


def _neighbors_in(universe: SampleUniverse, x: Point, mask: int) -> list[Point]:
    """The neighbors of x among the points of mask, in universe order."""
    return universe.ordered_points_of(universe.open_masks[universe.index(x)] & mask)


def p_leq(q: PCondition, p: PCondition) -> bool:
    """q extends p and every new color avoids old-domain neighbors.

    True iff p's assignment is contained in q's and, for every
    x in dom(q) - dom(p), the box q(x) contains no point of dom(p)
    adjacent to x.
    """
    for x, box in p.assignment.items():
        if q.assignment.get(x) != box:
            return False
    dom_p = q.universe.mask_of(p.assignment)
    return not any(
        box_contains(box, y)
        for x, box in q.assignment.items()
        if x not in p.assignment
        for y in _neighbors_in(q.universe, x, dom_p)
    )


def p_incompatibility_witness(p0: PCondition, p1: PCondition):
    """None when compatible, else a tuple describing the first clash."""
    for x, box in p0.assignment.items():
        other = p1.assignment.get(x)
        if other is not None and other != box:
            return ("function-clash", x, box, other)
    universe = p0.universe
    dom0, dom1 = universe.mask_of(p0.assignment), universe.mask_of(p1.assignment)
    for x0 in universe.ordered_points_of(dom0 & ~dom1):
        for x1 in _neighbors_in(universe, x0, dom1 & ~dom0):
            if box_contains(p0.assignment[x0], x1):
                return ("box-contains", x0, x1, p0.assignment[x0])
            if box_contains(p1.assignment[x1], x0):
                return ("box-contains", x1, x0, p1.assignment[x1])
    return None


def p_compatible(p0: PCondition, p1: PCondition) -> bool:
    """The finite compatibility criterion: union is a function, and for
    adjacent points split across the two domains neither color swallows
    the other's point."""
    return p_incompatibility_witness(p0, p1) is None


def is_separated(p: PCondition) -> bool:
    """No color of p contains a domain point adjacent to its own point.

    The compatibility criterion is equivalent to the existence of a common
    lower bound exactly on families of separated conditions; without
    separation, a color swallowing a shared domain point yields pairwise
    compatible families with no amalgamation (see p_lower_bound).
    """
    dom = p.universe.mask_of(p.assignment)
    return not any(
        box_contains(box, y)
        for x, box in p.assignment.items()
        for y in _neighbors_in(p.universe, x, dom)
    )


def p_lower_bound(
    conditions: Iterable[PCondition],
    x: Optional[Point] = None,
    universe: Optional[SampleUniverse] = None,
) -> PCondition:
    """Common lower bound of pairwise-compatible conditions, containing x.

    Takes the good closure of the union of domains (plus x), then colors
    each new point by a separating box against all member domains, using
    pairwise-distinct fresh boxes; verifies p_leq against every member
    before returning.  Raises IncompatibilityError on an incompatible
    pair, and AmalgamationError for the non-separated corner where the
    pairwise criterion holds but no common lower bound exists.
    """
    conds = list(conditions)
    if universe is None:
        if not conds:
            raise PreconditionError("empty condition set needs an explicit universe")
        universe = conds[0].universe
    for i, c0 in enumerate(conds):
        for j in range(i + 1, len(conds)):
            witness = p_incompatibility_witness(c0, conds[j])
            if witness is not None:
                raise IncompatibilityError(
                    f"conditions {i} and {j} are incompatible: {witness}",
                    witness=witness,
                )
    merged: dict[Point, TaggedBox] = {}
    for c in conds:
        merged.update(c.assignment)
    old_domain = frozenset(merged)
    seed = old_domain
    if x is not None:
        if x not in universe:
            raise PreconditionError(f"{x} not in the universe")
        seed = old_domain | {x}
    b = good_closure(universe, seed)
    fresh: list[TaggedBox] = []
    for y in sorted(b - old_domain, key=universe.index):
        box = separating_box(universe, y, old_domain, exclude=fresh)
        fresh.append(box)
        merged[y] = box
    q = PCondition(universe, merged)
    validate_pcondition(q)
    for i, c in enumerate(conds):
        if not p_leq(q, c):
            # Pairwise compatibility does not suffice when some member's
            # color swallows a point shared with another member's domain;
            # the criterion is silent about shared points.  Separated
            # conditions never reach this branch.
            raise AmalgamationError(
                f"no common lower bound: the merged coloring is not below member {i}",
                witness=i,
            )
    return q
