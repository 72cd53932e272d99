"""The finite-condition control poset: natural-valued partial colorings
ordered by reverse inclusion, locations, centeredness, and predensity.

Locations over distance instances are families of disjoint tagged boxes;
over explicit instances, cells may also be plain vertex subsets.  Location
validation accepts only certified edge-freeness or explicit color
separation between distinct cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .coloring import check_proper
from .errors import (
    IncompatibilityError,
    InvalidConditionError,
    LocationError,
    OracleBoundError,
    PreconditionError,
    ReductionFailureError,
    UnsupportedKindError,
    VerificationError,
)
from .geometry import Point, TaggedBox, box_contains, boxes_disjoint, iter_boxes_containing
from .graphs import (
    EXPLICIT,
    SampleUniverse,
    adjacent,
    box_edge_free,
    common_neighborhood_mask,
)


@dataclass
class QCondition:
    """Finite partial coloring Point -> natural over a declared universe."""

    universe: SampleUniverse
    assignment: dict[Point, int]

    def domain(self) -> frozenset[Point]:
        return frozenset(self.assignment)

    def __len__(self):
        return len(self.assignment)


def validate_qcondition(q: QCondition) -> None:
    for x, c in q.assignment.items():
        if x not in q.universe:
            raise InvalidConditionError(f"{x} not in the universe")
        if c < 0:
            raise InvalidConditionError(f"color {c} is not a natural")
    problems = check_proper(q.universe, q.assignment)
    if problems:
        raise InvalidConditionError("; ".join(problems))


def q_incompatibility_witness(q0: QCondition, q1: QCondition):
    """None when q0 u q1 is a proper function, else the first clash."""
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


def q_compatible(q0: QCondition, q1: QCondition) -> bool:
    return q_incompatibility_witness(q0, q1) is None


def q_meet(q0: QCondition, q1: QCondition) -> QCondition:
    """Union of compatible conditions; their infimum under reverse inclusion."""
    witness = q_incompatibility_witness(q0, q1)
    if witness is not None:
        raise IncompatibilityError(f"incompatible conditions: {witness}", witness=witness)
    merged = dict(q0.assignment)
    merged.update(q1.assignment)
    out = QCondition(q0.universe, merged)
    validate_qcondition(out)
    return out


def q_extends(r: QCondition, base: QCondition) -> bool:
    """Reverse-inclusion order: r <= base iff base's assignment is in r's."""
    return all(r.assignment.get(x) == c for x, c in base.assignment.items())


# -- locations ----------------------------------------------------------------

Cell = object  # TaggedBox, or frozenset[Point] over explicit instances


def cell_contains(cell, x: Point) -> bool:
    if isinstance(cell, TaggedBox):
        return box_contains(cell, x)
    return x in cell


def cells_disjoint(cell0, cell1) -> bool:
    if isinstance(cell0, TaggedBox) and isinstance(cell1, TaggedBox):
        return boxes_disjoint(cell0, cell1)
    if isinstance(cell0, frozenset) and isinstance(cell1, frozenset):
        return not (cell0 & cell1)
    box, pts = (cell0, cell1) if isinstance(cell0, TaggedBox) else (cell1, cell0)
    return all(not box_contains(box, p) for p in pts)


@dataclass(frozen=True)
class Location:
    """Pairwise disjoint cells with colors; same-colored cells carry no edges."""

    cells: tuple
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.colors):
            raise LocationError("cells and colors must align")
        if not self.cells:
            raise LocationError("a location needs at least one cell")

    def validate(self, instance) -> None:
        for cell in self.cells:
            if isinstance(cell, frozenset) and instance.kind != EXPLICIT:
                raise UnsupportedKindError("vertex-subset cells need an explicit instance")
        for i, c0 in enumerate(self.cells):
            for j in range(i + 1, len(self.cells)):
                c1 = self.cells[j]
                if not cells_disjoint(c0, c1):
                    raise LocationError(f"cells {i} and {j} overlap")
                if self.colors[i] == self.colors[j]:
                    verdict = box_edge_free(instance, c0, c1)
                    if verdict.status != "empty":
                        raise LocationError(
                            f"same-colored cells {i},{j} are not certified edge-free"
                            f" (status {verdict.status})"
                        )


def is_at_location(q: QCondition, loc: Location) -> bool:
    """dom(q) selects exactly one point per cell with the cell's color."""
    hits = [0] * len(loc.cells)
    for x, c in q.assignment.items():
        cell_idx = None
        for i, cell in enumerate(loc.cells):
            if cell_contains(cell, x):
                cell_idx = i
                break
        if cell_idx is None:
            return False
        if c != loc.colors[cell_idx]:
            return False
        hits[cell_idx] += 1
    return all(h == 1 for h in hits)


def selection(q: QCondition, loc: Location, cell_idx: int) -> Point:
    """The unique domain point of q inside the given cell."""
    for x in q.assignment:
        if cell_contains(loc.cells[cell_idx], x):
            return x
    raise LocationError(f"condition selects nothing in cell {cell_idx}")


def _box_at_level(x: Point, level: int) -> Optional[TaggedBox]:
    for box in iter_boxes_containing(x, tag=0, min_level=level):
        if box.level == level:
            return box
        if box.level > level:
            return None
    return None


def canonical_location(q: QCondition, *, max_level: int = 64) -> Location:
    """A location carrying q: singleton subsets (explicit) or small boxes.

    For geometric instances the level is raised until the per-point boxes
    are pairwise disjoint and every same-colored pair is certified
    edge-free.
    """
    validate_qcondition(q)
    universe = q.universe
    pts = sorted(q.assignment, key=universe.index)
    colors = tuple(q.assignment[x] for x in pts)
    if universe.instance.kind == EXPLICIT:
        cells = tuple(frozenset([x]) for x in pts)
        loc = Location(cells, colors)
        loc.validate(universe.instance)
        return loc
    for level in range(max_level):
        boxes = [_box_at_level(x, level) for x in pts]
        if any(b is None for b in boxes):
            continue
        loc = Location(tuple(boxes), colors)
        try:
            loc.validate(universe.instance)
        except (LocationError, UnsupportedKindError):
            continue
        return loc
    raise LocationError("no separating level found; raise max_level")


# -- Ramsey centeredness ------------------------------------------------------

_RAMSEY_ORACLE_LIMIT = 7


def two_coloring_forces_clique(n: int, m: int) -> bool:
    """Exhaustive oracle: every red/blue coloring of K_n has a mono K_m."""
    if n > _RAMSEY_ORACLE_LIMIT:
        raise OracleBoundError(f"K_{n} edge-coloring scan exceeds the oracle bound")
    edges = list(combinations(range(n), 2))
    edge_pos = {e: i for i, e in enumerate(edges)}
    clique_masks = []
    for verts in combinations(range(n), m):
        mask = 0
        for e in combinations(verts, 2):
            mask |= 1 << edge_pos[e]
        clique_masks.append(mask)
    if not clique_masks:
        return False
    for coloring in range(1 << len(edges)):
        if not any(
            coloring & cm == cm or coloring & cm == 0 for cm in clique_masks
        ):
            return False
    return True


# Exact values substituted into the recursion once re-verified by the
# exhaustive oracle (tests assert two_coloring_forces_clique(6,3) and not (5,3)).
_VERIFIED_EXACT = {(3, 3): 6}


@lru_cache(maxsize=None)
def _multicolor_ramsey(goals: tuple[int, ...]) -> int:
    goals = tuple(sorted(g for g in goals if g > 2))
    if not goals:
        return 2
    if len(goals) == 1:
        return goals[0]
    if goals in _VERIFIED_EXACT:
        return _VERIFIED_EXACT[goals]
    c = len(goals)
    total = 0
    for i in range(c):
        reduced = goals[:i] + (goals[i] - 1,) + goals[i + 1 :]
        total += _multicolor_ramsey(reduced)
    return total - c + 2


def ramsey_bound(m: int, s: int) -> int:
    """A certified k with k -> (m)^2_{s+1}, by the standard recursion.

    The only substituted exact value, R(3,3)=6, is re-verified by the
    brute-force edge-coloring oracle in the test suite.
    """
    if m < 2:
        raise PreconditionError("m must be >= 2")
    if s < 1:
        raise PreconditionError("s must be >= 1")
    if m == 2:
        return 2
    return _multicolor_ramsey((m,) * (s + 1))


COMPATIBLE = "!"


def pair_coloring(conditions: Sequence[QCondition], loc: Location):
    """The proof's map on index pairs: witnessing cell index, or '!'.

    Two conditions at one location are incompatible exactly when some cell's
    two selected points are adjacent; the first such cell is the color.
    """
    sels = [[selection(q, loc, i) for i in range(len(loc.cells))] for q in conditions]
    instance = conditions[0].universe.instance

    def color(i: int, j: int):
        for cell_idx in range(len(loc.cells)):
            a, b = sels[i][cell_idx], sels[j][cell_idx]
            if a != b and adjacent(instance, a, b):
                return cell_idx
        return COMPATIBLE

    return color


def ramsey_compatible_subset(
    conditions: Sequence[QCondition], m: int, loc: Location
) -> Optional[tuple[tuple[int, ...], QCondition]]:
    """A size-m subcollection with a common lower bound, or None.

    Guaranteed to exist when len(conditions) >= ramsey_bound(m, #cells) and
    the instance has no m-clique; the returned union is verified to be a
    common lower bound.
    """
    if not conditions:
        return None
    loc.validate(conditions[0].universe.instance)
    for q in conditions:
        if not is_at_location(q, loc):
            raise LocationError("condition is not at the given location")
    color = pair_coloring(conditions, loc)
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


# -- liminf centeredness ------------------------------------------------------

@dataclass(frozen=True)
class ThinningResult:
    """Partition of cells into constant (a0) and injective (a1) parts, plus
    the kept condition indices after threshold thinning."""

    constant_cells: tuple[int, ...]
    injective_cells: tuple[int, ...]
    kept: tuple[int, ...]
    threshold: int


def liminf_thin(
    conditions: Sequence[QCondition],
    loc: Location,
    test_set: Iterable[Point],
    threshold: Optional[int] = None,
) -> ThinningResult:
    """Finite surrogate of the liminf-centeredness thinning.

    Cells where all conditions select the same point form a0; on the rest
    the kept subfamily selects pairwise distinct points; and each test
    point ends adjacent to at most `threshold` of any a1 cell's selections,
    or to all of them.  The threshold (default 2 * #cells) is the
    artifact's stand-in for "finitely many" and is reported back.
    """
    if len(conditions) < 2:
        raise PreconditionError("need at least two conditions")
    loc.validate(conditions[0].universe.instance)
    for q in conditions:
        if not is_at_location(q, loc):
            raise LocationError("condition is not at the given location")
    ncells = len(loc.cells)
    thr = 2 * ncells if threshold is None else threshold
    sels = [[selection(q, loc, i) for i in range(ncells)] for q in conditions]
    constant = tuple(
        i for i in range(ncells) if len({sel[i] for sel in sels}) == 1
    )
    injective = tuple(i for i in range(ncells) if i not in constant)

    kept: list[int] = []
    for n in range(len(conditions)):
        if all(
            sels[n][i] not in {sels[k][i] for k in kept} for i in injective
        ):
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
    return ThinningResult(constant, injective, tuple(kept), thr)


def compatible_tail(
    r: QCondition, base: QCondition, family: Sequence[QCondition]
) -> int:
    """Least N with r compatible with family[n] for every n >= N."""
    if not family:
        raise PreconditionError("family must be nonempty")
    if family[0].assignment != base.assignment:
        raise PreconditionError("base must be the first family member")
    if not q_extends(r, base):
        raise PreconditionError("r must extend the base condition")
    last_bad = -1
    for n, q in enumerate(family):
        if not q_compatible(r, q):
            last_bad = n
    return last_bad + 1


# -- predensity ---------------------------------------------------------------

def reduced_support(
    d: Sequence[QCondition], universe: SampleUniverse, max_arity: int
) -> tuple[int, int]:
    """Masks (b, c): union of member domains, and its neighborhood closure.

    c adds every common neighborhood of a nonempty subset of b of size at
    most max_arity.  Nonemptiness matters: the empty family's neighborhood
    is the whole universe and would trivialize the reduction.
    """
    b_mask = 0
    for q in d:
        b_mask |= universe.mask_of(q.assignment)
    b_points = universe.ordered_points_of(b_mask)
    c_mask = b_mask
    for size in range(1, min(max_arity, len(b_points)) + 1):
        for combo in combinations(b_points, size):
            c_mask |= common_neighborhood_mask(universe, combo)
    return b_mask, c_mask


def _member_tables(d: Sequence[QCondition], universe: SampleUniverse):
    tables = []
    for q in d:
        dom_mask = universe.mask_of(q.assignment)
        values = {universe.index(x): c for x, c in q.assignment.items()}
        by_color: dict[int, int] = {}
        for x, c in q.assignment.items():
            by_color[c] = by_color.get(c, 0) | 1 << universe.index(x)
        tables.append((dom_mask, values, by_color))
    return tables


def predense_check(
    d: Sequence[QCondition],
    universe: SampleUniverse,
    color_budget: int,
    *,
    domain_mask: Optional[int] = None,
    node_limit: int = 2_000_000,
) -> bool:
    """Whether every condition with colors < color_budget is compatible
    with some member of d; domains range over subsets of domain_mask
    (default: the whole universe).

    Exhaustive search with two sound prunes: a clash with a member can
    never be undone by extension, and a member whose domain and neighbors
    avoid all remaining points stays compatible forever.
    """
    if color_budget < 1:
        raise PreconditionError("color budget must be >= 1")
    if not d:
        return False
    full = universe.full_mask if domain_mask is None else domain_mask
    idxs = [i for i in range(len(universe)) if full >> i & 1]
    tables = _member_tables(d, universe)
    open_masks = universe.open_masks
    relevant = []
    for dom_mask, _, _ in tables:
        rel = dom_mask
        m = dom_mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            rel |= open_masks[i]
        relevant.append(rel)
    nodes = 0

    def clashes(member: int, i: int, c: int) -> bool:
        dom_mask, values, by_color = tables[member]
        if dom_mask >> i & 1 and values[i] != c:
            return True
        return bool(open_masks[i] & by_color.get(c, 0))

    def rec(pos: int, alive: tuple[int, ...], partial: dict[int, int]) -> bool:
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
            improper = any(
                open_masks[i] >> j & 1 and pc == c for j, pc in partial.items()
            )
            if improper:
                continue
            new_alive = tuple(s for s in alive if not clashes(s, i, c))
            partial[i] = c
            ok = rec(pos + 1, new_alive, partial)
            del partial[i]
            if not ok:
                return False
        return True

    return rec(0, tuple(range(len(d))), {})


def predense_check_reduced(
    d: Sequence[QCondition],
    universe: SampleUniverse,
    color_budget: int,
    max_arity: int,
) -> bool:
    """predense_check restricted to domains inside the reduced support c."""
    if not d:
        return False
    _, c_mask = reduced_support(d, universe, max_arity)
    return predense_check(d, universe, color_budget, domain_mask=c_mask)


def predense_reduce(
    d: Sequence[QCondition],
    q: QCondition,
    loc: Location,
    universe: SampleUniverse,
    max_arity: Optional[int] = None,
) -> QCondition:
    """The location-preserving reduction of an everywhere-incompatible
    condition into the support set c.

    Cell by cell: keep b-points; otherwise move to a b-point of the minimal
    common neighborhood C_x disconnected from x when one exists in the
    cell, else to the first c-point of C_x in the cell outside the clique
    C_x n cell n b.  The output is verified incompatible with every member;
    a cell with no admissible point raises ReductionFailureError.
    """
    if not d:
        raise PreconditionError("predensity reduction needs a nonempty family")
    loc.validate(universe.instance)
    if not is_at_location(q, loc):
        raise LocationError("q is not at the given location")
    for i, s in enumerate(d):
        if q_compatible(q, s):
            raise PreconditionError(f"q is compatible with member {i}")
    b_mask, c_mask = reduced_support(
        d, universe, len(universe) if max_arity is None else max_arity
    )
    open_masks = universe.open_masks
    assignment: dict[Point, int] = {}
    for cell_idx, cell in enumerate(loc.cells):
        x = selection(q, loc, cell_idx)
        xi = universe.index(x)
        color = loc.colors[cell_idx]
        if b_mask >> xi & 1:
            assignment[x] = color
            continue
        nbrs_in_b = open_masks[xi] & b_mask
        cx_mask = common_neighborhood_mask(
            universe, universe.ordered_points_of(nbrs_in_b)
        )
        cell_mask = universe.mask_of(
            p for p in universe.points if cell_contains(cell, p)
        )
        pool = cx_mask & cell_mask & b_mask
        disconnected = pool & ~open_masks[xi] & ~(1 << xi)
        if disconnected:
            y = universe.points[(disconnected & -disconnected).bit_length() - 1]
            assignment[y] = color
            continue
        candidates = cx_mask & cell_mask & c_mask & ~pool
        if not candidates:
            raise ReductionFailureError(
                f"no admissible point in cell {cell_idx} (selection {x})"
            )
        y = universe.points[(candidates & -candidates).bit_length() - 1]
        assignment[y] = color
    r = QCondition(universe, assignment)
    validate_qcondition(r)
    if not is_at_location(r, loc):
        raise ReductionFailureError("reduced condition left its location")
    dom_mask = universe.mask_of(r.assignment)
    if dom_mask & ~c_mask:
        raise ReductionFailureError("reduced condition escaped the support set")
    for i, s in enumerate(d):
        if q_compatible(r, s):
            raise ReductionFailureError(
                f"reduced condition became compatible with member {i}"
            )
    return r
