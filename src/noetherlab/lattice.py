"""The neighborhood-intersection lattice relative to a universe.

The heart operator, the good-closure fixpoint, minimal generating
subfamilies, and longest strictly-descending chains of intersections.
Both quantifiers of the heart are relativized to the sample universe;
reports carry that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import _kernels
from .graphs import SampleUniverse, common_neighborhood_mask

EXACT_SUBFAMILY_LIMIT = 20
EXHAUSTIVE_CHAIN_LIMIT = 10


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

    def recomputed_extent(self, universe: SampleUniverse) -> frozenset:
        return ClosedFamilyElement.of(universe, self.generators).extent


def _heart_of_extent_mask(universe: SampleUniverse, extent: int) -> int:
    """Members of the extent adjacent-or-equal to every member of the extent."""
    closed = universe.closed_masks
    out = 0
    m = extent
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        if closed[i] & extent == extent:
            out |= 1 << i
    return out


def heart(universe: SampleUniverse, a: Iterable) -> frozenset:
    """The heart of a finite set: always a clique (verified by its definition).

    heart(a) = {x in Gamma(a) : x is adjacent-or-equal to every member of
    Gamma(a)}, with Gamma relativized to the universe.
    """
    extent = common_neighborhood_mask(universe, a)
    return universe.points_of(_heart_of_extent_mask(universe, extent))


def good_closure(universe: SampleUniverse, a: Iterable) -> frozenset:
    """Least superset closed under hearts of all its finite subsets.

    A closure operator: extensive, monotone, idempotent.  Computed by
    iterating to a fixpoint.  A point x is in the heart of Gamma(s) for some
    s subseteq current exactly when s subseteq Gamma(x) and Gamma(s)
    subseteq Gamma(x); Gamma is antitone, so the largest such s,
    current & Gamma(x), decides.  Each round tests every point outside
    current once, in time linear in its neighbours, so the cost does not
    grow with the number of distinct intersections inside current.
    """
    closed = universe.closed_masks
    full = universe.full_mask
    current = universe.mask_of(a)
    while True:
        added = 0
        outside = full & ~current
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


def is_good(universe: SampleUniverse, a: Iterable) -> bool:
    mask = universe.mask_of(a)
    return universe.mask_of(good_closure(universe, universe.points_of(mask))) == mask


@dataclass(frozen=True)
class SubfamilyResult:
    points: frozenset
    certified: bool  # exact minimality only below EXACT_SUBFAMILY_LIMIT


def minimal_subfamily(universe: SampleUniverse, a: Iterable) -> SubfamilyResult:
    """Smallest b subseteq a with Gamma(b) = Gamma(a); canonical tie-break.

    Exact subset search up to EXACT_SUBFAMILY_LIMIT generators; greedy
    shrinking with a non-certified flag above that.
    """
    pts = sorted(frozenset(a), key=universe.index)
    masks = [universe.closed_masks[universe.index(p)] for p in pts]
    full = universe.full_mask
    if len(pts) <= EXACT_SUBFAMILY_LIMIT:
        combo = _kernels.min_subfamily(masks, full)
        return SubfamilyResult(frozenset(pts[i] for i in combo), True)
    target = full
    for m in masks:
        target &= m
    keep = list(range(len(pts)))
    changed = True
    while changed:
        changed = False
        for i in list(keep):
            trial = [j for j in keep if j != i]
            acc = full
            for j in trial:
                acc &= masks[j]
            if acc == target:
                keep = trial
                changed = True
    return SubfamilyResult(frozenset(pts[i] for i in keep), False)


@dataclass(frozen=True)
class DescentChain:
    """Strictly decreasing Gamma(a_0) > Gamma(a_1) > ... with nested a_i."""

    elements: tuple[ClosedFamilyElement, ...]
    certified: bool

    def __len__(self):
        return len(self.elements)


def longest_descent_chain(
    universe: SampleUniverse, max_arity: int, beam_width: int = 64
) -> DescentChain:
    """Longest strictly-descending chain grown from nested generator sets.

    Chains start at Gamma(emptyset) = universe and add one generator point
    per step (the normal form of the finite-descent argument).  Exhaustive
    with memoization for universes up to EXHAUSTIVE_CHAIN_LIMIT points;
    beam search, flagged uncertified, above.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be >= 1")
    n = len(universe)
    closed = universe.closed_masks
    full = universe.full_mask
    exhaustive = n <= EXHAUSTIVE_CHAIN_LIMIT

    if exhaustive:
        memo: dict[tuple[int, int], tuple[int, Optional[int]]] = {}

        def best_from(extent: int, arity_left: int) -> tuple[int, Optional[int]]:
            # returns (#further strict steps, first point index achieving it)
            key = (extent, arity_left)
            if key in memo:
                return memo[key]
            best = (0, None)
            if arity_left > 0:
                for i in range(n):
                    nxt = extent & closed[i]
                    if nxt != extent:
                        steps, _ = best_from(nxt, arity_left - 1)
                        if steps + 1 > best[0]:
                            best = (steps + 1, i)
            memo[key] = best
            return best

        chain_sets = [frozenset()]
        extent = full
        gens: set = set()
        arity = max_arity
        while True:
            steps, pick = best_from(extent, arity)
            if steps == 0 or pick is None:
                break
            gens.add(universe.points[pick])
            chain_sets.append(frozenset(gens))
            extent &= closed[pick]
            arity -= 1
        elements = tuple(ClosedFamilyElement.of(universe, [g]) for g in chain_sets)
        return DescentChain(elements, True)

    # beam search on (generator mask, extent)
    frontier: list[tuple[int, int, tuple[int, ...]]] = [(full, 0, ())]
    best_path: tuple[int, ...] = ()
    for _ in range(max_arity):
        nxt: list[tuple[int, int, tuple[int, ...]]] = []
        seen: set[tuple[int, int]] = set()
        for extent, gen_mask, path in frontier:
            for i in range(n):
                if gen_mask >> i & 1:
                    continue
                new_extent = extent & closed[i]
                if new_extent == extent:
                    continue
                key = (new_extent, gen_mask | 1 << i)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((new_extent, gen_mask | 1 << i, path + (i,)))
        if not nxt:
            break
        nxt.sort(key=lambda t: (t[0].bit_count(), t[2]))
        frontier = nxt[:beam_width]
        best_path = frontier[0][2]
    chain_sets = [frozenset()]
    acc: set = set()
    for i in best_path:
        acc.add(universe.points[i])
        chain_sets.append(frozenset(acc))
    elements = tuple(ClosedFamilyElement.of(universe, [g]) for g in chain_sets)
    return DescentChain(elements, False)
