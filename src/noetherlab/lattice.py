"""The neighborhood-intersection lattice relative to a universe.

The heart operator, the good-closure fixpoint, minimal generating
subfamilies, and longest strictly-descending chains of intersections,
found by one exact search under a state budget.  Both quantifiers of the
heart are relativized to the sample universe; reports carry that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import _kernels, errors
from .graphs import SampleUniverse, closed_union, common_neighborhood_mask


@dataclass(frozen=True)
class ClosedFamilyElement:
    """A finite union of common neighborhoods, kept with its generators."""

    generators: tuple[frozenset, ...]
    extent: frozenset

    @staticmethod
    def of(universe: SampleUniverse, generators: Iterable[Iterable]) -> "ClosedFamilyElement":
        gens = tuple(frozenset(g) for g in generators)
        extent_mask = 0
        for g in gens:
            extent_mask |= common_neighborhood_mask(universe, g)
        return ClosedFamilyElement(gens, universe.points_of(extent_mask))


def heart(universe: SampleUniverse, a: Iterable) -> frozenset:
    """The heart of a finite set: always a clique (verified by its definition).

    heart(a) = {x in Gamma(a) : x is adjacent-or-equal to every member of
    Gamma(a)}, with Gamma relativized to the universe.
    """
    extent = common_neighborhood_mask(universe, a)
    closed = universe.closed_masks
    out = 0
    m = extent
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        if closed[i] & extent == extent:
            out |= 1 << i
    return universe.points_of(out)


def good_closure(universe: SampleUniverse, a: Iterable) -> frozenset:
    """Least superset closed under hearts of all its finite subsets.

    A closure operator: extensive, monotone, idempotent.  Computed by
    iterating to a fixpoint.  A point x is in the heart of Gamma(s) for some
    s subseteq current exactly when s subseteq Gamma(x) and Gamma(s)
    subseteq Gamma(x); Gamma is antitone, so the largest such s,
    current & Gamma(x), decides.  Each test is linear in the neighbours of
    x, and only points whose verdict can change are tested: with s empty, x
    joins only if it is joined to every point, so the first round tests the
    closed neighbourhoods of current (every point when current is empty),
    and each later round the neighbours of the last round's additions,
    the only points whose s grew.
    """
    closed = universe.closed_masks
    full = universe.full_mask
    current = universe.mask_of(a)
    candidates = closed_union(universe, current) if current else full
    while True:
        added = 0
        outside = candidates & ~current
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
            return universe.points_of(current)
        current |= added
        candidates = closed_union(universe, added)


def is_good(universe: SampleUniverse, a: Iterable) -> bool:
    a = frozenset(a)
    return good_closure(universe, a) == a


@dataclass(frozen=True)
class SubfamilyResult:
    points: frozenset
    certified: bool  # the search finished within its state budget


def minimal_subfamily(universe: SampleUniverse, a: Iterable) -> SubfamilyResult:
    """Smallest b subseteq a with Gamma(b) = Gamma(a); canonical tie-break.

    One exact search at every size; past its state budget the best family
    found, never larger than the one-pass greedy one, comes uncertified.
    """
    pts = sorted(frozenset(a), key=universe.index)
    masks = [universe.closed_masks[universe.index(p)] for p in pts]
    combo, finished = _kernels.min_subfamily(masks, universe.full_mask)
    return SubfamilyResult(frozenset(pts[i] for i in combo), finished)


@dataclass(frozen=True)
class DescentChain:
    """Strictly decreasing Gamma(a_0) > Gamma(a_1) > ... with nested a_i."""

    elements: tuple[ClosedFamilyElement, ...]
    certified: bool

    def __len__(self):
        return len(self.elements)


def longest_descent_chain(universe: SampleUniverse, max_arity: int) -> DescentChain:
    """Longest strictly-descending chain grown from nested generator sets.

    Chains start at Gamma(emptyset) = universe and add one generator point
    per step (the normal form of the finite-descent argument); max_arity is
    clamped to the number of points.  An exact search, memoized on (extent,
    arity left) and walked with an explicit stack.  Closed neighborhoods are
    symmetric, so a point meets a non-empty extent exactly when it lies in
    the union of the closed neighborhoods over the extent; every other point
    empties it, and the lowest-index one stands for all of them.  Candidates
    are scanned in ascending index order, and a state stops once its count
    reaches min(arity left, |extent|), since each step removes a point: the
    picks are those of scoring every point in every state.  Past
    errors.STATE_LIMIT states the best chain found so far is returned,
    flagged uncertified unless it reaches the clamped arity.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be >= 1")
    closed = universe.closed_masks
    full = universe.full_mask
    arity = min(max_arity, len(universe))

    def frame(extent: int, left: int) -> list[int]:
        reach = closed_union(universe, extent)
        outside = full & ~reach
        # extent, arity left, candidates to scan, cap, best steps, first pick
        return [extent, left, reach | outside & -outside, min(left, extent.bit_count()), 0, -1]

    memo: dict[tuple[int, int], tuple[int, int]] = {}  # state -> (steps, first pick)
    stack = [frame(full, arity)] if full else []
    states, cut, limit = len(stack), False, errors.STATE_LIMIT
    while stack:
        top = stack[-1]
        extent, left, todo, cap, best, pick = top
        child = 0
        while todo and best < cap:
            i = (todo & -todo).bit_length() - 1
            nxt = extent & closed[i]
            if nxt != extent:
                done = memo.get((nxt, left - 1)) if nxt and left > 1 else (0, -1)
                if done is None:
                    # Past the budget a state keeps what it has found, and
                    # each state below it on the stack takes that answer.
                    if states < limit:
                        child = nxt
                    else:
                        cut = True
                    break
                if done[0] + 1 > best:
                    best, pick = done[0] + 1, i
            todo &= todo - 1
        if child:
            top[2], top[4], top[5] = todo, best, pick
            stack.append(frame(child, left - 1))
            states += 1
        else:
            memo[extent, left] = best, pick
            stack.pop()

    elements = [ClosedFamilyElement((frozenset(),), universe.points_of(full))]
    gens: set = set()
    extent, left = full, arity
    while extent and left:
        pick = memo[extent, left][1]
        if pick < 0:
            break
        gens.add(universe.points[pick])
        extent &= closed[pick]
        elements.append(ClosedFamilyElement((frozenset(gens),), universe.points_of(extent)))
        left -= 1
    return DescentChain(tuple(elements), not cut or len(elements) - 1 == arity)
