"""The neighborhood-intersection lattice relative to a universe.

The heart operator, the good-closure fixpoint, minimal generating
subfamilies, and longest strictly-descending chains of intersections.
Both quantifiers of the heart are relativized to the sample universe;
reports carry that caveat.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from . import _kernels
from .graphs import SampleUniverse, closed_union, common_neighborhood_mask

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


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    # Dropping generators only enlarges the intersection, so a generator
    # that cannot go now never can: one pass reaches the fixpoint.
    keep = list(range(len(pts)))
    for i in range(len(pts)):
        trial = [j for j in keep if j != i]
        acc = full
        for j in trial:
            acc &= masks[j]
        if acc == target:
            keep = trial
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
                            # each step spends one arity, so no later i beats this
                            if steps + 1 == arity_left:
                                break
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

    # Beam search.  A state is its generator mask (the extent is a function
    # of it); a generator already in the mask leaves the extent unchanged and
    # is skipped with the other non-strict steps.  A candidate's sort key
    # packs its extent size above its path, one index per `width` bits, so at
    # a fixed path length the int keys sort as (size, path tuple) would.  Of
    # two candidates with one generator mask, the first seen in frontier
    # order is kept.
    width = (n - 1).bit_length()
    digit = (1 << width) - 1
    frontier: list[tuple[int, int, int]] = [(full, 0, 0)]  # extent, gen mask, path
    best_path, length = 0, 0
    for step in range(1, max_arity + 1):
        shift = step * width
        # Closed masks are symmetric and reflexive, so closed[i] meets a
        # non-empty extent exactly when i lies in `reach`, the union of the
        # closed masks over the extent.  Every other i empties the extent.
        reach = []
        for extent, _, _ in frontier:
            union, m = extent, extent
            while m and union != full:
                low = m & -m
                m ^= low
                union |= closed[low.bit_length() - 1]
            reach.append(union)
        # Emptying candidates have key prefix | i, below every non-empty key,
        # so they fill the beam first: by path, then i, taken lazily.  One is
        # a duplicate when an earlier state with a non-empty extent has its
        # generator mask less one generator of this state.
        rank = {gen_mask: k for k, (extent, gen_mask, _) in enumerate(frontier) if extent}
        keys: list[int] = []
        for k in sorted(range(len(frontier)), key=lambda k: frontier[k][2]):
            if len(keys) == beam_width:
                break
            extent, gen_mask, path = frontier[k]
            out = full & ~reach[k]
            if not extent or not out:
                continue
            prefix = path << width
            singles = [1 << j for j in _indices(gen_mask)]
            while out and len(keys) < beam_width:
                low = out & -out
                out ^= low
                g = gen_mask | low
                if not any(rank.get(g ^ j, k) < k for j in singles):
                    keys.append(prefix | low.bit_length() - 1)
        if len(keys) < beam_width:
            # Top up from the candidates that keep a non-empty extent.
            others: list[int] = []
            seen: set[int] = set()
            for (extent, gen_mask, path), m in zip(frontier, reach):
                prefix = path << width
                for i in range(n) if m == full else _indices(m):
                    new_extent = extent & closed[i]
                    if new_extent == extent:
                        continue
                    g = gen_mask | 1 << i
                    if g in seen:
                        continue
                    seen.add(g)
                    others.append(new_extent.bit_count() << shift | prefix | i)
            keys += heapq.nsmallest(beam_width - len(keys), others)
        if not keys:
            break
        frontier = []
        for key in keys:
            path = key & (1 << shift) - 1
            extent, gen_mask, rest = full, 0, path
            for _ in range(step):
                i = rest & digit
                rest >>= width
                extent &= closed[i]
                gen_mask |= 1 << i
            frontier.append((extent, gen_mask, path))
        best_path, length = frontier[0][2], step
    chain_sets = [frozenset()]
    acc: set = set()
    for k in reversed(range(length)):
        acc.add(universe.points[best_path >> k * width & digit])
        chain_sets.append(frozenset(acc))
    elements = tuple(ClosedFamilyElement.of(universe, [g]) for g in chain_sets)
    return DescentChain(elements, False)
