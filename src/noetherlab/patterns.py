"""Forbidden-pattern detection: half/three-quarter-graph prefixes, cliques,
K_{2,n}, and the greedy homogeneous-subset extractor.

Finite universes cannot contain the infinitary forbidden patterns; the
detectors search for depth-k prefixes (the pattern restricted to vertices
{0..k-1} x {0,1}) as vertex-induced subgraphs.  Witness search order is
lexicographic in universe order, so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import _kernels
from .errors import InvalidSpecError, VerificationError
from .graphs import SampleUniverse, adjacent
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
        """Re-check the induced subgraph edge-by-edge; never trust the search."""
        verts = self.spec.vertices()
        if len(set(self.mapping)) != len(self.mapping):
            return False
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                want = self.spec.has_edge(verts[i], verts[j])
                got = adjacent(universe.instance, self.mapping[i], self.mapping[j])
                if want != got:
                    return False
        return True


@dataclass
class SearchStats:
    nodes_explored: int = 0


def find_variation_prefix(
    universe: SampleUniverse, spec: VariationSpec, stats: Optional[SearchStats] = None
) -> Optional[PatternWitness]:
    """Exhaustive backtracking search for an induced copy of the prefix.

    Returns the first witness in lexicographic universe order, or None
    (certified by exhaustion).  Requires 2*depth <= |universe| to have any
    chance; smaller universes return None immediately.
    """
    verts = spec.vertices()
    k = len(verts)
    n = len(universe)
    if k > n:
        return None
    masks = universe.open_masks
    pattern_edges = [
        [spec.has_edge(verts[i], verts[j]) for j in range(i)] for i in range(k)
    ]
    assignment: list[int] = []
    used = 0

    def rec() -> Optional[tuple[int, ...]]:
        nonlocal used
        i = len(assignment)
        if i == k:
            return tuple(assignment)
        for v in range(n):
            if used >> v & 1:
                continue
            ok = True
            for j, w in enumerate(assignment):
                if bool(masks[w] >> v & 1) != pattern_edges[i][j]:
                    ok = False
                    break
            if stats is not None:
                stats.nodes_explored += 1
            if not ok:
                continue
            assignment.append(v)
            used |= 1 << v
            found = rec()
            if found is not None:
                return found
            assignment.pop()
            used &= ~(1 << v)
        return None

    found = rec()
    if found is None:
        return None
    witness = PatternWitness(spec, tuple(universe.points[v] for v in found))
    if not witness.verify(universe):
        raise VerificationError(f"search returned a non-induced copy of {spec}")
    return witness


def max_embedded_depth(universe: SampleUniverse, spec_template: VariationSpec, max_depth: int) -> int:
    """Largest depth <= max_depth whose prefix embeds; the Noetherian stress statistic."""
    best = 0
    for depth in range(2, max_depth + 1):
        spec = VariationSpec(spec_template.family, spec_template.left, spec_template.right, depth)
        if find_variation_prefix(universe, spec) is None:
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
    if not all(adjacent(universe.instance, p, q) for p in pts for q in pts if p != q):
        raise VerificationError(f"kernel returned a non-clique for m={m}")
    return pts


def find_bipartite_k2n(
    universe: SampleUniverse, n: int
) -> Optional[tuple[tuple[Point, Point], frozenset[Point]]]:
    """Two distinct points with n common neighbors (excluding the pair), or None."""
    if n < 1:
        raise InvalidSpecError("n must be >= 1")
    size = len(universe)
    closed = universe.closed_masks
    for i in range(size):
        for j in range(i + 1, size):
            common = closed[i] & closed[j] & ~(1 << i) & ~(1 << j)
            if common.bit_count() >= n:
                commons = universe.ordered_points_of(common)[:n]
                return (universe.points[i], universe.points[j]), frozenset(commons)
    return None


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
