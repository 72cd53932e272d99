"""Graph instances, sample universes, and the neighborhood operators.

Five instance kinds share one adjacency interface: geometric distance
graphs (membership of the exact squared distance in a finite set),
curve-difference graphs (vanishing of a two-variable polynomial on the
coordinate difference), uniform and diagonal Hamming graphs (differ in
exactly one entry), and explicit finite graphs.  Everything is computed
over rationals; there is no floating point anywhere.

All set operators relativize to a finite SampleUniverse, which fixes a
reproducible point order and exposes bitmask views used by the search
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import Iterable, Optional

from .errors import InvalidPointError, UnknownPointError, UnsupportedKindError
from .geometry import Point, TaggedBox, box_contains, pt, squared_distance

DISTANCE = "distance"
CURVE_DIFFERENCE = "curveDifference"
HAMMING_UNIFORM = "hammingUniform"
HAMMING_DIAGONAL = "hammingDiagonal"
EXPLICIT = "explicit"

KINDS = (DISTANCE, CURVE_DIFFERENCE, HAMMING_UNIFORM, HAMMING_DIAGONAL, EXPLICIT)


@dataclass(frozen=True)
class TwoVarPoly:
    """Polynomial in two variables with rational coefficients.

    ``terms`` maps (i, j) exponent pairs to nonzero coefficients.
    """

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_dict(d) -> "TwoVarPoly":
        items = tuple(
            sorted(((i, j), Fraction(c)) for (i, j), c in d.items() if Fraction(c) != 0)
        )
        return TwoVarPoly(items)

    def evaluate(self, u: Fraction, v: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j), c in self.terms:
            total += c * u**i * v**j
        return total

    @property
    def degree(self) -> int:
        return max((i + j for (i, j), _ in self.terms), default=0)


@dataclass(frozen=True)
class GraphInstance:
    """A finitely specified adjacency predicate with exact arithmetic."""

    kind: str
    dimension: int
    squared_distances: frozenset[Fraction] = frozenset()
    poly: Optional[TwoVarPoly] = None
    alphabet: int = 0
    n_vertices: int = 0
    edges: frozenset[frozenset[int]] = frozenset()

    def validate_point(self, x: Point) -> None:
        if x.dimension != self.dimension:
            raise InvalidPointError(
                f"point dimension {x.dimension} != instance dimension {self.dimension}"
            )
        if self.kind in (HAMMING_UNIFORM, HAMMING_DIAGONAL):
            for n, c in enumerate(x.coords):
                if c.denominator != 1 or c < 0:
                    raise InvalidPointError(f"Hamming entry {c} is not a natural")
                if self.kind == HAMMING_UNIFORM and c >= self.alphabet:
                    raise InvalidPointError(f"entry {c} >= alphabet {self.alphabet}")
                if self.kind == HAMMING_DIAGONAL and c > n:
                    raise InvalidPointError(f"entry {c} exceeds diagonal bound {n}")
        elif self.kind == EXPLICIT:
            c = x.coords[0]
            if c.denominator != 1 or not (0 <= c < self.n_vertices):
                raise InvalidPointError(f"vertex index {c} out of range")


def distance_graph(dimension: int, squared: Iterable) -> GraphInstance:
    """Distance graph on R^dimension; edges at exact squared distances."""
    sq = frozenset(Fraction(s) for s in squared)
    if any(s <= 0 for s in sq):
        raise ValueError("squared distances must be positive")
    if not sq:
        raise ValueError("squared distance set must be nonempty")
    return GraphInstance(kind=DISTANCE, dimension=dimension, squared_distances=sq)


def curve_difference_graph(poly: TwoVarPoly) -> GraphInstance:
    """Planar graph with x ~ y iff p(x-y) = 0 or p(y-x) = 0, exactly."""
    return GraphInstance(kind=CURVE_DIFFERENCE, dimension=2, poly=poly)


def hamming_uniform(breadth: int, alphabet: int) -> GraphInstance:
    if breadth < 1 or alphabet < 1:
        raise ValueError("breadth and alphabet must be >= 1")
    return GraphInstance(kind=HAMMING_UNIFORM, dimension=breadth, alphabet=alphabet)


def hamming_diagonal(breadth: int) -> GraphInstance:
    if breadth < 1:
        raise ValueError("breadth must be >= 1")
    return GraphInstance(kind=HAMMING_DIAGONAL, dimension=breadth)


def explicit_graph(n_vertices: int, edges: Iterable) -> GraphInstance:
    """Explicit graph on vertices 0..n-1 embedded at integer points of R^1."""
    es = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"edge ({u},{v}) out of range")
        es.add(frozenset((u, v)))
    return GraphInstance(
        kind=EXPLICIT, dimension=1, n_vertices=n_vertices, edges=frozenset(es)
    )


def vertex_point(i: int) -> Point:
    return pt(i)


def adjacent(instance: GraphInstance, x: Point, y: Point) -> bool:
    """Exact, symmetric, irreflexive adjacency for every kind."""
    instance.validate_point(x)
    instance.validate_point(y)
    if x == y:
        return False
    if instance.kind == DISTANCE:
        return squared_distance(x, y) in instance.squared_distances
    if instance.kind == CURVE_DIFFERENCE:
        u = x.coords[0] - y.coords[0]
        v = x.coords[1] - y.coords[1]
        p = instance.poly
        return p.evaluate(u, v) == 0 or p.evaluate(-u, -v) == 0
    if instance.kind in (HAMMING_UNIFORM, HAMMING_DIAGONAL):
        diffs = sum(1 for a, b in zip(x.coords, y.coords) if a != b)
        return diffs == 1
    if instance.kind == EXPLICIT:
        return frozenset((int(x.coords[0]), int(y.coords[0]))) in instance.edges
    raise UnsupportedKindError(instance.kind)


class SampleUniverse:
    """Finite, duplicate-free, ordered point sample standing in for the space.

    The point order is fixed at construction and drives every greedy
    construction and canonical tie-break downstream.
    """

    def __init__(self, instance: GraphInstance, points: Iterable[Point]):
        self.instance = instance
        pts = tuple(points)
        seen = set()
        for i, p in enumerate(pts):
            instance.validate_point(p)
            if p.coords in seen:
                raise InvalidPointError(f"duplicate point at index {i}: {p}")
            seen.add(p.coords)
        self.points = pts
        self._index = {p: i for i, p in enumerate(pts)}

    def __len__(self):
        return len(self.points)

    def __contains__(self, p: Point):
        return p in self._index

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPointError(f"{p} is not in the universe") from None

    @cached_property
    def closed_masks(self) -> list[int]:
        """closed_masks[i] = bitmask of Gamma(points[i]) within the universe.

        Built from the structure of the instance kind on point indices (see
        _EDGE_BUILDERS); adjacent() stays the exact pairwise reference.
        """
        try:
            edges = _EDGE_BUILDERS[self.instance.kind]
        except KeyError:
            raise UnsupportedKindError(self.instance.kind) from None
        masks = [1 << i for i in range(len(self.points))]
        for i, j in edges(self.instance, self.points):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    @cached_property
    def open_masks(self) -> list[int]:
        return [m & ~(1 << i) for i, m in enumerate(self.closed_masks)]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def mask_of(self, pts: Iterable[Point]) -> int:
        m = 0
        for p in pts:
            m |= 1 << self.index(p)
        return m

    def points_of(self, mask: int) -> frozenset[Point]:
        return frozenset(p for i, p in enumerate(self.points) if mask >> i & 1)

    def ordered_points_of(self, mask: int) -> list[Point]:
        return [p for i, p in enumerate(self.points) if mask >> i & 1]


# -- mask builders --------------------------------------------------------------
# Each yields the index pairs (i, j) of adjacent points, at least once per
# edge.  The points are already validated by SampleUniverse, and may be any
# subset of the space in any order.

def _distance_edges(instance: GraphInstance, points: tuple[Point, ...]):
    """Integer squared distances after scaling to one common denominator D.

    |x - y|^2 = s exactly iff the scaled points differ by s * D^2, so only
    targets s * D^2 that are integers can be hit.
    """
    d = lcm(*(c.denominator for p in points for c in p.coords))
    scaled = [tuple(c.numerator * (d // c.denominator) for c in p.coords) for p in points]
    dd = d * d
    targets = {
        s.numerator * (dd // s.denominator)
        for s in instance.squared_distances
        if dd % s.denominator == 0
    }
    if instance.dimension == 1:
        where = {x: i for i, (x,) in enumerate(scaled)}
        roots = [r for t in targets if (r := isqrt(t)) * r == t]
        for i, (x,) in enumerate(scaled):
            for r in roots:
                j = where.get(x + r)
                if j is not None:
                    yield i, j
        return
    for i, x in enumerate(scaled):
        for j in range(i + 1, len(scaled)):
            if sum((a - b) ** 2 for a, b in zip(x, scaled[j])) in targets:
                yield i, j


def _curve_difference_edges(instance: GraphInstance, points: tuple[Point, ...]):
    p = instance.poly
    for i, x in enumerate(points):
        x0, x1 = x.coords
        for j in range(i + 1, len(points)):
            u, v = x0 - points[j].coords[0], x1 - points[j].coords[1]
            if p.evaluate(u, v) == 0 or p.evaluate(-u, -v) == 0:
                yield i, j


def _hamming_edges(instance: GraphInstance, points: tuple[Point, ...]):
    """Look up every one-coordinate mutation: O(n * sum of alphabets)."""
    words = [tuple(c.numerator for c in p.coords) for p in points]
    where = {w: i for i, w in enumerate(words)}
    values = [sorted({w[k] for w in words}) for k in range(instance.dimension)]
    for i, w in enumerate(words):
        for k, vals in enumerate(values):
            head, tail = w[:k], w[k + 1 :]
            for v in vals:
                if v > w[k]:
                    j = where.get(head + (v,) + tail)
                    if j is not None:
                        yield i, j


def _explicit_edges(instance: GraphInstance, points: tuple[Point, ...]):
    where = {p.coords[0].numerator: i for i, p in enumerate(points)}
    for u, v in instance.edges:
        i, j = where.get(u), where.get(v)
        if i is not None and j is not None:
            yield i, j


_EDGE_BUILDERS = {
    DISTANCE: _distance_edges,
    CURVE_DIFFERENCE: _curve_difference_edges,
    HAMMING_UNIFORM: _hamming_edges,
    HAMMING_DIAGONAL: _hamming_edges,
    EXPLICIT: _explicit_edges,
}


def neighborhood(universe: SampleUniverse, x: Point) -> frozenset[Point]:
    """Closed neighborhood of x relative to the universe; always contains x."""
    i = universe.index(x)
    return universe.points_of(universe.closed_masks[i])


def common_neighborhood_mask(universe: SampleUniverse, pts: Iterable[Point]) -> int:
    m = universe.full_mask
    for p in pts:
        m &= universe.closed_masks[universe.index(p)]
    return m


def common_neighborhood(universe: SampleUniverse, pts: Iterable[Point]) -> frozenset[Point]:
    """Intersection of closed neighborhoods; the empty family yields everything."""
    return universe.points_of(common_neighborhood_mask(universe, pts))


# -- box edge-freeness --------------------------------------------------------

@dataclass(frozen=True)
class EdgeFreeResult:
    """Verdict of the exact cell-pair edge check.

    status is "empty" (certified no edge), "nonempty" (certified some edge;
    a rational witness pair is attached when one was constructed), or
    "unknown" (a candidate squared distance touches the achievable-range
    boundary, so neither certificate applies).
    """

    status: str
    witness: Optional[tuple[Point, Point]] = None

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("compare EdgeFreeResult.status explicitly")


def _cell_points(instance: GraphInstance, cell) -> frozenset[Point]:
    """Vertices of an explicit instance lying in a cell (box or point set)."""
    if isinstance(cell, TaggedBox):
        return frozenset(
            p
            for p in (vertex_point(i) for i in range(instance.n_vertices))
            if box_contains(cell, p)
        )
    return frozenset(cell)


def _diff_interval_squares(b0: TaggedBox, b1: TaggedBox):
    """Per-coordinate ranges of (x_i - y_i)^2 over the closed boxes."""
    lows, highs = [], []
    for (a, b), (c, d) in zip(b0.intervals(), b1.intervals()):
        lo, hi = a - d, b - c
        sq_lo = Fraction(0) if lo <= 0 <= hi else min(lo * lo, hi * hi)
        lows.append(sq_lo)
        highs.append(max(lo * lo, hi * hi))
    return lows, highs


def _is_rational_square(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _mid(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def _witness_search(b0: TaggedBox, b1: TaggedBox, target: Fraction):
    """Best-effort exact witness pair at the target squared distance.

    Picks simple rationals for all coordinate differences but the first and
    demands that the remainder be a perfect rational square.  Returns None
    when no candidate is found; the nonempty verdict does not depend on it.
    """
    iv0, iv1 = b0.intervals(), b1.intervals()
    diff_ranges = [(a - d, b - c) for (a, b), (c, d) in zip(iv0, iv1)]

    def assemble(diffs):
        xs, ys = [], []
        for (a, b), (c, d), delta in zip(iv0, iv1, diffs):
            # need x in (a,b), y in (c,d), x - y = delta
            lo = max(a, c + delta)
            hi = min(b, d + delta)
            if lo >= hi:
                return None
            x = _mid(lo, hi)
            xs.append(x)
            ys.append(x - delta)
        return Point(tuple(xs)), Point(tuple(ys))

    def candidates(lo, hi):
        vals = []
        for denom_pow in range(0, 8):
            step = Fraction(1, 2**denom_pow)
            m = (lo // step + 1) * step
            while m < hi and len(vals) < 40:
                if m not in vals:
                    vals.append(m)
                m += step
            if len(vals) >= 40:
                break
        return vals

    def rec(idx, remaining, chosen):
        if idx == len(diff_ranges) - 1:
            root = _is_rational_square(remaining)
            if root is None:
                return None
            lo, hi = diff_ranges[idx]
            for delta in (root, -root):
                if lo < delta < hi:
                    result = assemble(chosen + [delta])
                    if result is not None:
                        return result
            return None
        lo, hi = diff_ranges[idx]
        for delta in candidates(lo, hi):
            rem = remaining - delta * delta
            if rem < 0:
                continue
            result = rec(idx + 1, rem, chosen + [delta])
            if result is not None:
                return result
        return None

    return rec(0, target, [])


def box_edge_free(instance: GraphInstance, cell0, cell1) -> EdgeFreeResult:
    """Decide whether (cell0 x cell1) meets the edge relation, exactly.

    Distance kind: exact interval arithmetic on the achievable squared
    distance between the closed boxes; a squared distance strictly inside
    the open achievable range certifies an edge over the ambient space even
    when no rational witness exists.  Explicit kind: cells are vertex
    subsets and the check is literal.  Other kinds are unsupported
    (conservative).
    """
    if instance.kind == EXPLICIT:
        pts0 = sorted(_cell_points(instance, cell0), key=lambda p: p.coords)
        pts1 = sorted(_cell_points(instance, cell1), key=lambda p: p.coords)
        for p in pts0:
            for q in pts1:
                if adjacent(instance, p, q):
                    return EdgeFreeResult("nonempty", (p, q))
        return EdgeFreeResult("empty")
    if instance.kind != DISTANCE:
        raise UnsupportedKindError(f"box_edge_free undefined for kind {instance.kind}")
    if not (isinstance(cell0, TaggedBox) and isinstance(cell1, TaggedBox)):
        raise UnsupportedKindError("distance instances use TaggedBox cells")
    lows, highs = _diff_interval_squares(cell0, cell1)
    lo_total = sum(lows, Fraction(0))
    hi_total = sum(highs, Fraction(0))
    interior = [s for s in instance.squared_distances if lo_total < s < hi_total]
    boundary = [s for s in instance.squared_distances if s == lo_total or s == hi_total]
    if interior:
        witness = None
        for s in sorted(interior):
            witness = _witness_search(cell0, cell1, s)
            if witness is not None:
                break
        return EdgeFreeResult("nonempty", witness)
    if boundary:
        return EdgeFreeResult("unknown")
    return EdgeFreeResult("empty")
