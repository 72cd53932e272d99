"""Forbidden-pattern detection: half/three-quarter-graph prefixes, cliques,
and the greedy homogeneous-subset extractor.

Finite universes cannot contain the infinitary forbidden patterns; the
detectors search for depth-k prefixes (the pattern restricted to vertices
{0..k-1} x {0,1}) as vertex-induced subgraphs.  Witness search order is
lexicographic in universe order, so outputs are reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import _kernels, errors
from .errors import InvalidSpecError, OracleBoundError, VerificationError
from .graphs import SampleUniverse
from .geometry import Point

HALF = "half"
THREE_QUARTER = "threeQuarter"
CLIQUE = "clique"
ANTICLIQUE = "anticlique"


@dataclass(frozen=True)
class VariationSpec:
    """One of the eight variations, truncated at a finite depth.

    Pattern vertices are (n, side) for n < depth, side in {0, 1}; a cross
    pair (n,0)-(m,1) is an edge iff m < n (half) or m != n (threeQuarter);
    each side is internally complete or empty according to left/right.
    """

    family: str
    left: str
    right: str
    depth: int

    def __post_init__(self):
        if self.family not in (HALF, THREE_QUARTER):
            raise InvalidSpecError(f"unknown family {self.family!r}")
        if self.left not in (CLIQUE, ANTICLIQUE) or self.right not in (CLIQUE, ANTICLIQUE):
            raise InvalidSpecError("sides must be 'clique' or 'anticlique'")
        if self.depth < 2:
            raise InvalidSpecError("depth must be >= 2")

    def vertices(self) -> list[tuple[int, int]]:
        """Pattern vertices in search order: (0,0), (0,1), (1,0), (1,1), ..."""
        return [(n, side) for n in range(self.depth) for side in (0, 1)]

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        (n, i), (m, j) = a, b
        if i == j:
            side = self.left if i == 0 else self.right
            return side == CLIQUE and n != m
        if i == 1:
            (n, i), (m, j) = b, a
        # now a is on side 0 and b on side 1
        if self.family == HALF:
            return m < n
        return m != n


def all_variations(depth: int) -> list[VariationSpec]:
    return [
        VariationSpec(family, left, right, depth)
        for family in (HALF, THREE_QUARTER)
        for left in (CLIQUE, ANTICLIQUE)
        for right in (CLIQUE, ANTICLIQUE)
    ]


@dataclass(frozen=True)
class PatternWitness:
    """Injective map from pattern vertices (in spec order) into the universe."""

    spec: VariationSpec
    mapping: tuple[Point, ...]

    def verify(self, universe: SampleUniverse) -> bool:
        """Re-check the induced subgraph edge-by-edge; never trust the search.

        A mapping that leaves the universe, repeats a point or has the wrong
        length is no witness.
        """
        verts = self.spec.vertices()
        if not len(verts) == len(self.mapping) == len(set(self.mapping)):
            return False
        if not all(p in universe for p in self.mapping):
            return False
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                want = self.spec.has_edge(verts[i], verts[j])
                if want != universe.reference_adjacent(self.mapping[i], self.mapping[j]):
                    return False
        return True


@dataclass
class SearchStats:
    nodes_explored: int = 0  # candidates taken from the candidate masks


# Both caches are bounded, since --depth takes any integer.
@functools.lru_cache(maxsize=64)
def _edges(spec: VariationSpec) -> tuple[int, ...]:
    """Bit s of row t is set iff the pattern joins vertices t and s.

    Vertex (n, side) is bit 2n + side, so side 0 holds the even bits and
    side 1 the odd ones.  Each row is built from these bit patterns, as
    has_edge reads the spec; PatternWitness.verify calls has_edge itself.
    """
    even = int("01" * spec.depth, 2)
    odd = even << 1
    left = even if spec.left == CLIQUE else 0
    right = odd if spec.right == CLIQUE else 0
    rows = []
    for n in range(spec.depth):
        own = 1 << 2 * n  # the bit of (n, 0); the bit of (n, 1) is own << 1
        if spec.family == HALF:  # (n, 0) ~ (m, 1) iff m < n
            to_right, to_left = odd & (own - 1), even & ~((own << 2) - 1)
        else:  # (n, 0) ~ (m, 1) iff m != n
            to_right, to_left = odd & ~(own << 1), even & ~own
        rows += [left & ~own | to_right, right & ~(own << 1) | to_left]
    return tuple(rows)


@functools.lru_cache(maxsize=128)
def _plan(spec: VariationSpec, placed: int, dense: bool):
    """``(order, known, joined)`` for completing a prefix of ``placed``
    pattern vertices.  ``order`` puts the others in a connected order: next
    the lowest one related to a placed vertex, else the lowest one related
    to an unplaced one, and those related to no unplaced vertex last, where
    any candidate will do.  The relation is the pattern's edges, or its
    non-edges on a dense universe, so that each vertex picks from the
    smaller side of a row.  The first ``known - placed`` entries of
    ``order`` are placed, placed + 1, ..., and ``joined[a][c]`` tells
    whether the pattern joins order[a] and order[a + 1 + c]."""
    edges = rows = _edges(spec)
    k = len(rows)
    if dense:
        rows = [((1 << k) - 1) ^ r ^ (1 << t) for t, r in enumerate(rows)]
    rest, reach, order = ((1 << k) - 1) >> placed << placed, 0, []
    for t in range(placed):
        reach |= rows[t]
    while rest:
        nxt = reach & rest or sum(1 << s for s in range(k) if rest >> s & 1 and rows[s] & rest) or rest
        t = (nxt & -nxt).bit_length() - 1
        order.append(t)
        rest ^= 1 << t
        reach |= rows[t]
    known = placed
    while known < k and order[known - placed] == known:
        known += 1
    return order, known, tuple(tuple(edges[t] >> s & 1 for s in order[a + 1 :]) for a, t in enumerate(order))


def find_variation_prefix(
    universe: SampleUniverse, spec: VariationSpec, stats: Optional[SearchStats] = None
) -> Optional[PatternWitness]:
    """Exhaustive search for an induced copy of the prefix.

    Returns the first witness in lexicographic universe order, or None
    (certified by exhaustion).  Requires 2*depth <= |universe| to have any
    chance; smaller universes return None before any pattern table is built.

    ``complete`` extends images of the pattern vertices (0,0), (0,1),
    (1,0), ... up to some level to a whole witness, or finds that none
    exists.  It places the others in the connected order of ``_plan``,
    along pattern edges, or along non-edges when more than half of the
    universe's pairs are adjacent.  Each unplaced vertex keeps a mask of
    the indices whose adjacency to every image so far fits the pattern,
    and a placement that empties a mask is undone at once.  Absence is the
    failure of the empty prefix.  Otherwise a walk makes that witness W
    the first one: level i tries the candidates u < W[i] in ascending
    order, and the first prefix W[:i] + [u] that completes gives the new
    W.  The walk skips the levels whose lowest image the last completion
    found.  ``nodes_explored`` counts the candidates that the completions
    and the walk took.  Once it would pass errors.NODE_LIMIT, counting
    those already in ``stats``, the search raises OracleBoundError.
    """
    n = len(universe)
    if 2 * spec.depth > n:
        return None
    edges = _edges(spec)
    full = universe.full_mask
    # fit[w][joined]: the indices that fit a pattern vertex joined (or not)
    # to the one at w; neither holds w itself, which is in full but not in m
    fit = [(full ^ m ^ (1 << w), m) for w, m in enumerate(universe.open_masks)]
    dense = 2 * sum(m.bit_count() for m in universe.open_masks) > n * (n - 1)
    nodes, limit = (0 if stats is None else stats.nodes_explored), errors.NODE_LIMIT

    def fits(t: int, prefix: list[int]) -> int:
        m = full
        for j, w in enumerate(prefix):
            m &= fit[w][edges[t] >> j & 1]
        return m

    def complete(prefix: list[int]) -> Optional[tuple[list[int], int]]:
        """A witness that extends ``prefix``, and the ``known`` of its plan."""
        nonlocal nodes
        order, known, joined = _plan(spec, len(prefix), dense)
        witness = prefix + [0] * len(order)
        allowed = [fits(t, prefix) for t in order]
        # stack[a][0]: the candidates left for order[a]; stack[a][1:]: the
        # masks of order[a + 1:].  A frame with no masks is a whole witness.
        stack = [allowed] if all(allowed) else []
        while stack:
            masks = stack[-1]
            if not masks:
                return witness, known
            if not masks[0]:
                stack.pop()
                continue
            low = masks[0] & -masks[0]
            masks[0] ^= low
            a = len(stack) - 1
            witness[order[a]] = v = low.bit_length() - 1
            nodes += 1
            if nodes > limit:
                raise OracleBoundError(f"pattern search stopped at its limit of {limit} nodes")
            narrowed = [m & fit[v][e] for m, e in zip(masks[1:], joined[a])]
            if all(narrowed):
                stack.append(narrowed)
        return None

    found = complete([])
    if found is not None:
        found, i = found
        while i < len(edges):
            below = fits(i, found[:i]) & ((1 << found[i]) - 1)
            better = None
            while below and better is None:
                low = below & -below
                below ^= low
                nodes += 1
                better = complete(found[:i] + [low.bit_length() - 1])
            found, i = better or (found, i + 1)
    if nodes > limit:  # walk candidates whose completion placed no vertex
        raise OracleBoundError(f"pattern search stopped at its limit of {limit} nodes")
    if stats is not None:
        stats.nodes_explored = nodes
    if found is None:
        return None
    witness = PatternWitness(spec, tuple(universe.points[v] for v in found))
    if not witness.verify(universe):
        raise VerificationError(f"search returned a non-induced copy of {spec}")
    return witness


def max_embedded_depth(
    universe: SampleUniverse, spec_template: VariationSpec, max_depth: int, stats: Optional[SearchStats] = None
) -> int:
    """Largest depth <= max_depth whose prefix embeds; the Noetherian stress
    statistic.  Its searches add to ``stats``, so they share one node limit."""
    best = 0
    for depth in range(2, max_depth + 1):
        spec = VariationSpec(spec_template.family, spec_template.left, spec_template.right, depth)
        if find_variation_prefix(universe, spec, stats) is None:
            break
        best = depth
    return best


def find_clique(universe: SampleUniverse, m: int) -> Optional[frozenset[Point]]:
    """A verified m-clique relative to the universe, or certified None."""
    if m < 1:
        raise InvalidSpecError("clique size must be >= 1")
    found = _kernels.find_clique(universe.open_masks, m)
    if found is None:
        return None
    pts = frozenset(universe.points[i] for i in found)
    if not all(universe.reference_adjacent(p, q) for p in pts for q in pts if p != q):
        raise VerificationError(f"kernel returned a non-clique for m={m}")
    return pts


def homogeneous_guarantee(n: int, c: int) -> int:
    """Exact size guarantee of the iterated-majority construction.

    Chain length L follows n_{t+1} = ceil((n_t - 1)/c) until exhaustion;
    the output keeps the majority tag among L-1 tagged pivots plus the
    final pivot.  This finite constant is an artifact choice, documented
    here rather than derived from any infinitary statement.
    """
    if n <= 0:
        return 0
    length = 0
    remaining = n
    while remaining > 0:
        length += 1
        remaining = -((remaining - 1) // -c)  # ceil division
    if length == 1:
        return 1
    return -((length - 1) // -c) + 1


def homogeneous_subset(
    items: Sequence, pair_color: Callable[[int, int], int], colors: int
) -> tuple[tuple[int, ...], Optional[int]]:
    """Greedy Ramsey thinning: an index subset homogeneous for pair_color.

    pair_color(i, j) with i < j must return a color in range(colors).
    Returns (indices ascending, color); color is None for singletons where
    no pair was ever evaluated.  Output size >= homogeneous_guarantee.
    """
    if colors < 1:
        raise InvalidSpecError("colors must be >= 1")
    if not items:
        raise InvalidSpecError("items must be nonempty")
    live = list(range(len(items)))
    pivots: list[int] = []
    tags: list[int] = []
    while live:
        pivot = live[0]
        rest = live[1:]
        pivots.append(pivot)
        if not rest:
            break
        classes: dict[int, list[int]] = {}
        for j in rest:
            classes.setdefault(pair_color(pivot, j), []).append(j)
        tag = max(classes, key=lambda col: (len(classes[col]), -col))
        tags.append(tag)
        live = classes[tag]
    if not tags:
        return (pivots[0],), None
    majority = max(set(tags), key=lambda col: (tags.count(col), -col))
    subset = [p for p, t in zip(pivots, tags) if t == majority]
    subset.append(pivots[-1])
    subset = sorted(set(subset))
    for a in range(len(subset)):
        for b in range(a + 1, len(subset)):
            if pair_color(subset[a], subset[b]) != majority:
                raise VerificationError("extracted subset is not homogeneous")
    return tuple(subset), majority
