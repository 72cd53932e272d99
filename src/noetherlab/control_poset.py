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
from itertools import accumulate, combinations, combinations_with_replacement, islice
from math import comb
from operator import or_
from typing import Iterable, Optional, Sequence

from . import errors
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
from .geometry import Point, TaggedBox, box_contains, boxes_disjoint, first_box_containing
from .graphs import (
    EXPLICIT,
    SampleUniverse,
    box_edge_free,
    closed_union,
    common_neighborhood_mask,
    vertex_point,
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
    universe = q0.universe
    by_color = _color_classes(q1, universe)
    for x, c in q0.assignment.items():
        clash = universe.open_masks[universe.index(x)] & by_color.get(c, 0)
        if clash:
            y = next(y for y in q1.assignment if clash >> universe.index(y) & 1)
            return ("edge-clash", x, y, c)
    return None


def _color_classes(q: QCondition, universe: SampleUniverse) -> dict[int, int]:
    """Color -> mask of the indices in universe of the points q gives that
    color; a point outside universe raises UnknownPointError."""
    index = universe.index
    classes: dict[int, int] = {}
    for x, c in q.assignment.items():
        classes[c] = classes.get(c, 0) | 1 << index(x)
    return classes


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

def cell_contains(cell, x: Point) -> bool:
    """Membership in a cell: a TaggedBox, or a vertex subset (explicit)."""
    if isinstance(cell, TaggedBox):
        return box_contains(cell, x)
    return x in cell


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
        """Raise unless the cells are pairwise disjoint and each same-colored
        pair is certified edge-free: by box_edge_free on a distance
        instance, from one scan of the edge list on an explicit one.  The
        error names the least failing pair (i, j), an overlap before an edge."""
        cells, colors = self.cells, self.colors
        for cell in cells:
            if isinstance(cell, TaggedBox):
                instance.validate_box(cell)
        if instance.kind != EXPLICIT:
            if any(isinstance(cell, frozenset) for cell in cells):
                raise UnsupportedKindError("vertex-subset cells need an explicit instance")
            for i, j in combinations(range(len(cells)), 2):
                if not boxes_disjoint(cells[i], cells[j]):
                    raise LocationError(_OVERLAP.format(i, j))
                if colors[i] == colors[j]:
                    status = box_edge_free(instance, cells[i], cells[j]).status
                    if status != "empty":
                        raise LocationError(_NOT_EDGE_FREE.format(i, j, status))
            return
        if len(cells) == 1:
            return
        owners = [[] for _ in range(instance.n_vertices)]  # the cells holding each vertex
        for k, cell in enumerate(cells):
            if isinstance(cell, TaggedBox):
                cell = _box_vertices(cell, instance.n_vertices)
            for p in cell:
                instance.validate_point(p)  # so that pt(1/2) never reads as vertex 1
                owners[p.coords[0].numerator].append(k)
        boxes = [k for k, cell in enumerate(cells) if isinstance(cell, TaggedBox)]
        # the least overlapping pair: the first two cells of a vertex, or two boxes
        overlap = min(
            [(ks[0], ks[1]) for ks in owners if len(ks) > 1]
            + [(i, j) for i, j in combinations(boxes, 2) if not boxes_disjoint(cells[i], cells[j])],
            default=None,
        )
        ends = ((a, b) for u, v in instance.edges for a in owners[u] for b in owners[v])
        joined = min(
            ((min(a, b), max(a, b)) for a, b in ends if a != b and colors[a] == colors[b]),
            default=None,
        )
        if overlap is not None and (joined is None or overlap <= joined):
            raise LocationError(_OVERLAP.format(*overlap))
        if joined is not None:
            raise LocationError(_NOT_EDGE_FREE.format(*joined, "nonempty"))


def _box_vertices(box: TaggedBox, n: int) -> list[Point]:
    """The vertices of 0..n-1 in a 1-D box: the integers strictly between
    m/2^k and (m+2)/2^k, each confirmed by box_contains."""
    (m,), k = box.corners, box.level
    first, stop = max(0, (m >> k) + 1), min(n, -(-(m + 2) >> k))
    return [p for p in map(vertex_point, range(first, stop)) if box_contains(box, p)]


_OVERLAP = "cells {} and {} overlap"
_NOT_EDGE_FREE = "same-colored cells {},{} are not certified edge-free (status {})"


def _selected(q: QCondition, loc: Location) -> Optional[list[Point]]:
    """The point q selects in each cell, or None when q is not at loc.  The
    cells claim q's points in index order, so a point of two cells is the
    first one's; q is at loc when each cell claims one point of its color
    and none is left over."""
    unclaimed = dict(q.assignment)
    picks = []
    for cell, color in zip(loc.cells, loc.colors):
        if isinstance(cell, TaggedBox):
            mine = [x for x in unclaimed if box_contains(cell, x)]
        else:
            small, large = (cell, unclaimed) if len(cell) < len(unclaimed) else (unclaimed, cell)
            mine = [x for x in small if x in large]
        if len(mine) != 1 or unclaimed.pop(mine[0]) != color:
            return None
        picks.append(mine[0])
    return None if unclaimed else picks


def is_at_location(q: QCondition, loc: Location) -> bool:
    """dom(q) selects exactly one point per cell with the cell's color."""
    return _selected(q, loc) is not None


_CANONICAL_MAX_LEVEL = 64


def canonical_location(q: QCondition) -> Location:
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
        loc = Location(tuple(frozenset([x]) for x in pts), colors)
        loc.validate(universe.instance)
        return loc
    for level in range(_CANONICAL_MAX_LEVEL):
        boxes = tuple(first_box_containing(x, tag=0, min_level=level) for x in pts)
        if any(box.level != level for box in boxes):
            continue
        loc = Location(boxes, colors)
        try:
            loc.validate(universe.instance)
        except LocationError:
            continue
        return loc
    raise LocationError(f"no separating level below {_CANONICAL_MAX_LEVEL}")


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
def _multicolor_ramsey(m: int, colors: int) -> int:
    """A k with k -> (m)^2_colors, by R(g) <= sum_i R(g - e_i) - |g| + 2
    over multisets g of goals, one goal per color.

    Goal multisets are computed in the order combinations_with_replacement
    gives them, so lowering a goal always reaches a computed one; goals of
    2 drop out.  Lowering any one of k equal goals reaches the same
    multiset, so the sum takes one term per distinct goal, k times over.
    """
    bound: dict[tuple[int, ...], int] = {(): 2}
    for size in range(1, colors + 1):
        for goals in combinations_with_replacement(range(3, m + 1), size):
            if size == 1 or goals in _VERIFIED_EXACT:
                bound[goals] = _VERIFIED_EXACT.get(goals, goals[0])
                continue
            total = 0
            for g in set(goals):
                i = goals.index(g)
                lowered = goals[:i] + ((g - 1,) if g > 3 else ()) + goals[i + 1 :]
                total += goals.count(g) * bound[lowered]
            bound[goals] = total - size + 2
    return bound[(m,) * colors]


# ramsey_bound's limits: the recursion lowers a goal (m - 2)(s + 1) times
# on its way down, through comb(s + m - 1, m - 2) goal multisets.  At the
# limits it takes 0.01 s at (m, s) = (3, 511) and 0.11 s at (4, 138), with
# 9,870 multisets (2-vCPU host, CPython 3.11).
MAX_RAMSEY_DEPTH = 512
MAX_RAMSEY_STATES = 10_000


def ramsey_bound(m: int, s: int) -> int:
    """A certified k with k -> (m)^2_{s+1}, by the standard recursion.

    The only substituted exact value, R(3,3)=6, is re-verified by the
    brute-force edge-coloring oracle in the test suite.  A recursion past
    MAX_RAMSEY_DEPTH or MAX_RAMSEY_STATES raises OracleBoundError.
    """
    if m < 2:
        raise PreconditionError("m must be >= 2")
    if s < 1:
        raise PreconditionError("s must be >= 1")
    if m == 2:
        return 2
    if (m - 2) * (s + 1) > MAX_RAMSEY_DEPTH:
        raise OracleBoundError(
            f"the Ramsey recursion for m={m}, s={s} lowers a goal {(m - 2) * (s + 1)}"
            f" times, past the bound {MAX_RAMSEY_DEPTH}"
        )
    if comb(s + m - 1, m - 2) > MAX_RAMSEY_STATES:
        raise OracleBoundError(
            f"the Ramsey recursion for m={m}, s={s} passes through {comb(s + m - 1, m - 2)}"
            f" goal multisets, past the bound {MAX_RAMSEY_STATES}"
        )
    return _multicolor_ramsey(m, s + 1)


COMPATIBLE = "!"


def _selections(conditions: Sequence[QCondition], loc: Location) -> list[list[int]]:
    """sels[n][cell]: the universe index that condition n selects in cell.

    Validates the location and that every condition is at it.
    """
    universe = conditions[0].universe
    loc.validate(universe.instance)
    picks = [_selected(q, loc) for q in conditions]
    if any(p is None for p in picks):
        raise LocationError("condition is not at the given location")
    return [[universe.index(x) for x in p] for p in picks]


def pair_coloring(conditions: Sequence[QCondition], loc: Location):
    """The proof's map on index pairs: witnessing cell index, or '!'.

    Two conditions at one location are incompatible exactly when some cell's
    two selected points are adjacent; the first such cell is the color.
    """
    sels = _selections(conditions, loc)
    masks = conditions[0].universe.open_masks

    def color(i: int, j: int):
        for cell_idx, (a, b) in enumerate(zip(sels[i], sels[j])):
            if masks[a] >> b & 1:
                return cell_idx
        return COMPATIBLE

    return color


def ramsey_compatible_subset(
    conditions: Sequence[QCondition], m: int, loc: Location
) -> Optional[tuple[tuple[int, ...], QCondition]]:
    """A size-m subcollection with a common lower bound, or None.

    Guaranteed to exist when len(conditions) >= ramsey_bound(m, #cells) and
    the instance has no m-clique; the returned union is verified to be a
    common lower bound.  The subset is the first pairwise compatible one in
    combinations order: subsets grow depth first in index order, each
    member's candidates are the later indices compatible with every member
    so far, and a branch ends once too few candidates remain.  Pairs are
    colored as the search meets them.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if not conditions:
        return None
    color = pair_coloring(conditions, loc)
    # frames[d] = (candidates for combo[d], position of the next to try)
    combo: list[int] = []
    frames = [(range(len(conditions)), 0)]
    while True:
        if not frames:
            return None
        candidates, pos = frames.pop()
        if len(candidates) - pos < m - len(combo):
            if combo:
                combo.pop()
            continue
        i = candidates[pos]
        combo.append(i)
        if len(combo) == m:
            break
        frames.append((candidates, pos + 1))
        frames.append(([j for j in candidates[pos + 1 :] if color(i, j) == COMPATIBLE], 0))
    # the union of the chosen conditions, checked proper once
    meet = QCondition(conditions[combo[0]].universe, {})
    for i in combo:
        meet.assignment.update(conditions[i].assignment)
    validate_qcondition(meet)
    for i in combo:
        if not q_extends(meet, conditions[i]):
            raise VerificationError(f"meet is not below condition {i}")
    return tuple(combo), meet


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
    or to all of them.  The threshold (default 2 * #cells, and never
    negative) is the artifact's stand-in for "finitely many" and is
    reported back.  Test points are universe points; any other point
    raises UnknownPointError.
    """
    if len(conditions) < 2:
        raise PreconditionError("need at least two conditions")
    if threshold is not None and threshold < 0:
        raise PreconditionError("threshold must be >= 0")
    sels = _selections(conditions, loc)
    ncells = len(loc.cells)
    thr = 2 * ncells if threshold is None else threshold
    selected = [len({sel[i] for sel in sels}) for i in range(ncells)]
    constant = tuple(i for i, k in enumerate(selected) if k == 1)
    injective = tuple(i for i, k in enumerate(selected) if k > 1)

    kept: list[int] = []
    for n in range(len(conditions)):
        if all(
            sels[n][i] not in {sels[k][i] for k in kept} for i in injective
        ):
            kept.append(n)

    universe = conditions[0].universe
    test_masks = [universe.open_masks[universe.index(t)] for t in test_set]
    changed = True
    while changed:
        changed = False
        for t_mask in test_masks:
            for i in injective:
                adj = [n for n in kept if t_mask >> sels[n][i] & 1]
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

def reduced_support(d: Sequence[QCondition]) -> tuple[int, int]:
    """Masks (b, c) in the universe of the nonempty family d, its first
    member's: the union b of the member domains, and the union c of the
    closed neighborhoods N[x] of its points.  The common neighborhood of a
    nonempty subset of b lies inside N[x] for each x of it, so c is also the
    union of those; the empty subset's would be the whole universe.
    """
    universe = d[0].universe
    b = universe.mask_of(x for q in d for x in q.assignment)
    return b, closed_union(universe, b)


def budget_clamp(d: Sequence[QCondition]) -> int:
    """K = top + 1 + |b|, with top = max(d) (0 if d colors nothing) and b
    the union of the member domains: P(B) = P(K) for all B >= K, where P(B)
    is predense_check(d, B, domain_mask=m) for any domain mask m.

    Proof.  More colors allow more conditions, so P is non-increasing.  Let
    q (colors < B, B > K) clash with every member.  A color above top is no
    member's color: it makes no edge clash, and function clashes only on b.
    Drop q's points off b with colors above top, and give its points on b
    with colors above top distinct colors in top+1 .. top+|b|.  This q' is
    proper, lies inside dom(q), keeps every clash and has colors < K; so
    not P(B) implies not P(K).  chi(G[b]) for |b| is sound too, at a kernel call.
    """
    top = max((c for q in d for c in q.assignment.values()), default=0)
    return top + 1 + len({x for q in d for x in q.assignment})


def predense_check(
    d: Sequence[QCondition], color_budget: int, *, domain_mask: Optional[int] = None
) -> bool:
    """Whether every condition with colors < color_budget is compatible
    with some member of d; domains range over subsets of domain_mask
    (default: the whole universe).  The universe of d is its first
    member's, and a member point outside it raises UnknownPointError.

    The budget is first lowered to budget_clamp(d), which keeps the answer.
    Exhaustive search over the domain points in index order; a node holds
    the members still compatible and the partial condition as one mask per
    color.  Three sound prunes: a clash with a member can never be undone by
    extension; a member whose domain and neighbors avoid all remaining
    points stays compatible forever; and of the colors that no member names
    and no point holds yet, only the lowest is tried, since swapping two
    such colors maps the subtree of one onto that of the other, clash for
    clash.  More than errors.NODE_LIMIT nodes raise OracleBoundError.
    """
    if color_budget < 1:
        raise PreconditionError("color budget must be >= 1")
    if not d:
        return False
    full = d[0].universe.full_mask if domain_mask is None else domain_mask
    return _predense_search(d, min(color_budget, budget_clamp(d)), full)


def _predense_search(d: Sequence[QCondition], color_budget: int, full: int) -> bool:
    """predense_check's search for a nonempty d, with no budget clamp."""
    universe = d[0].universe
    idxs = [i for i in range(len(universe)) if full >> i & 1]
    open_masks = universe.open_masks
    classes = [_color_classes(q, universe) for q in d]
    # each member's domain, and its domain with the neighbors
    doms = [universe.mask_of(q.assignment) for q in d]
    relevant = [closed_union(universe, m) for m in doms]
    # remaining[pos]: the mask of idxs[pos:]
    remaining = list(accumulate((1 << i for i in reversed(idxs)), or_, initial=0))[::-1]
    named = {c for q in d for c in q.assignment.values()}
    # the colors a node may try, ascending: the named ones, and the first
    # len(idxs) others.  Of the others a node tries only the lowest that no
    # point holds, and fewer than len(idxs) points hold one.
    others = (c for c in range(color_budget) if c not in named)
    colors = sorted({c for c in named if 0 <= c < color_budget}.union(islice(others, len(idxs))))
    # partial[k]: the mask of the points that hold colors[k]
    partial = [0] * len(colors)
    nodes, limit = 0, errors.NODE_LIMIT

    def clashes(member: int, i: int, c: int) -> bool:
        # function clash (i in the member's domain, not in its class c), or edge clash
        same = classes[member].get(c, 0)
        return bool((doms[member] & ~same) >> i & 1 or open_masks[i] & same)

    def children(pos: int, alive: tuple[int, ...]):
        """The members still alive in each child of the node at pos: its
        point left out, then each color tried for it, which partial holds
        while that child is searched."""
        i = idxs[pos]
        yield alive
        fresh_tried = False
        for k, c in enumerate(colors):
            if open_masks[i] & partial[k]:
                continue
            if not partial[k] and c not in named:
                if fresh_tried:
                    continue
                fresh_tried = True
            new_alive = tuple(s for s in alive if not clashes(s, i, c))
            partial[k] |= 1 << i
            yield new_alive
            partial[k] ^= 1 << i

    # Depth first with an explicit stack, one frame per open node.  The
    # answer holds iff every leaf holds, so the first failing leaf ends it.
    pos, alive, stack = 0, tuple(range(len(d))), []
    while True:
        nodes += 1
        if nodes > limit:
            raise OracleBoundError(f"predensity search stopped at its limit of {limit} nodes")
        if not alive:
            return False
        # at pos == len(idxs) nothing remains, so this is a leaf that holds
        if all(relevant[s] & remaining[pos] for s in alive):
            stack.append((pos + 1, children(pos, alive)))
        while stack:
            alive = next(stack[-1][1], None)
            if alive is not None:
                pos = stack[-1][0]
                break
            stack.pop()
        else:
            return True


def predense_check_reduced(d: Sequence[QCondition], color_budget: int) -> bool:
    """predense_check restricted to domains inside the reduced support c."""
    if not d:
        return False
    _, c_mask = reduced_support(d)
    return predense_check(d, color_budget, domain_mask=c_mask)


def predense_reduce(d: Sequence[QCondition], q: QCondition, loc: Location) -> QCondition:
    """The location-preserving reduction of an everywhere-incompatible
    condition into the support set c, over the universe of d.

    Cell by cell: keep b-points; otherwise move to a b-point of the minimal
    common neighborhood C_x disconnected from x when one exists in the
    cell, else to the first c-point of C_x in the cell outside the clique
    C_x n cell n b.  The output is verified incompatible with every member;
    a cell with no admissible point raises ReductionFailureError.
    """
    if not d:
        raise PreconditionError("predensity reduction needs a nonempty family")
    universe = d[0].universe
    loc.validate(universe.instance)
    sels = _selected(q, loc)
    if sels is None:
        raise LocationError("q is not at the given location")
    for i, s in enumerate(d):
        if q_compatible(q, s):
            raise PreconditionError(f"q is compatible with member {i}")
    b_mask, c_mask = reduced_support(d)
    open_masks = universe.open_masks
    assignment: dict[Point, int] = {}
    for cell_idx, (cell, x) in enumerate(zip(loc.cells, sels)):
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
    if universe.mask_of(r.assignment) & ~c_mask:
        raise ReductionFailureError("reduced condition escaped the support set")
    for i, s in enumerate(d):
        if q_compatible(r, s):
            raise ReductionFailureError(
                f"reduced condition became compatible with member {i}"
            )
    return r
