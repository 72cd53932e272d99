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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, prod
from typing import Iterable, Optional

from .errors import InvalidPointError, UnknownPointError, UnsupportedKindError, quoted
from .geometry import Point, TaggedBox, _common_level, _common_scale, _scaled_targets, pt

DISTANCE = "distance"
CURVE_DIFFERENCE = "curveDifference"
HAMMING_UNIFORM = "hammingUniform"
HAMMING_DIAGONAL = "hammingDiagonal"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class TwoVarPoly:
    """Polynomial in two variables with rational coefficients.

    ``terms`` maps (i, j) exponent pairs to nonzero coefficients.
    """

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_dict(d) -> "TwoVarPoly":
        for i, j in d:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
        items = tuple(
            sorted(((i, j), Fraction(c)) for (i, j), c in d.items() if Fraction(c) != 0)
        )
        return TwoVarPoly(items)

    def evaluate(self, u: Fraction, v: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j), c in self.terms:
            total += c * u**i * v**j
        return total


@dataclass(frozen=True)
class GraphInstance:
    """A finitely specified adjacency predicate with exact arithmetic."""

    kind: str
    dimension: int
    squared_distances: frozenset[Fraction] = frozenset()
    poly: Optional[TwoVarPoly] = None
    alphabet: int = 0
    n_vertices: int = 0
    edges: frozenset[tuple[int, int]] = frozenset()  # (u, v) with u < v

    def validate_point(self, x: Point) -> None:
        if x.dimension != self.dimension:
            raise InvalidPointError(
                f"point dimension {x.dimension} != instance dimension {self.dimension}"
            )
        # numerators compare as ints, far cheaper than Fraction comparisons
        if self.kind in (HAMMING_UNIFORM, HAMMING_DIAGONAL):
            uniform = self.kind == HAMMING_UNIFORM
            for n, c in enumerate(x.coords):
                v = c.numerator
                if c.denominator != 1 or v < 0:
                    raise InvalidPointError(f"Hamming entry {quoted(c, str)} is not a natural")
                if uniform and v >= self.alphabet:
                    raise InvalidPointError(f"entry {quoted(c, str)} >= alphabet {self.alphabet}")
                if not uniform and v > n:
                    raise InvalidPointError(f"entry {quoted(c, str)} exceeds diagonal bound {n}")
        elif self.kind == EXPLICIT:
            c = x.coords[0]
            if c.denominator != 1 or not (0 <= c.numerator < self.n_vertices):
                raise InvalidPointError(f"vertex index {quoted(c, str)} out of range")

    def validate_box(self, box: TaggedBox) -> None:
        if box.dimension != self.dimension:
            raise InvalidPointError(
                f"box dimension {box.dimension} != instance dimension {self.dimension}"
            )


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
        es.add((u, v) if u < v else (v, u))
    return GraphInstance(
        kind=EXPLICIT, dimension=1, n_vertices=n_vertices, edges=frozenset(es)
    )


@lru_cache(maxsize=4096)  # hamming.DEFAULT_SIZE_BOUND vertices
def vertex_point(i: int) -> Point:
    """The point of vertex i; one shared Point per index."""
    return pt(i)


def adjacent(instance: GraphInstance, x: Point, y: Point) -> bool:
    """Exact, symmetric, irreflexive adjacency for every kind.

    Validates both points against the instance; library logic reads a
    universe's masks instead, and SampleUniverse.reference_adjacent is the
    coordinate route for points a universe has already validated.
    """
    instance.validate_point(x)
    instance.validate_point(y)
    return _exact_adjacent(instance, x, y)


def _exact_adjacent(instance: GraphInstance, x: Point, y: Point) -> bool:
    """The coordinate predicate behind adjacent(), on validated points.

    Integer arithmetic on each pair's own numerators and denominators.  The
    mask builders scale a whole universe to one denominator instead, so the
    two routes share no arithmetic.  Every kind but curve-difference is
    irreflexive without a guard: equal points are at squared distance 0,
    differ in no entry, and explicit graphs refuse self-loops.
    """
    kind = instance.kind
    if kind == DISTANCE:
        # sum of (a - b)^2 as num/den, with a - b = (an*bd - bn*ad) / (ad*bd)
        num, den = 0, 1
        for a, b in zip(x.coords, y.coords):
            ad, bd = a.denominator, b.denominator
            diff = a.numerator * bd - b.numerator * ad
            square = (ad * bd) ** 2
            num = num * square + diff * diff * den
            den *= square
        return any(
            num * s.denominator == s.numerator * den for s in instance.squared_distances
        )
    if kind in (HAMMING_UNIFORM, HAMMING_DIAGONAL):
        # validated entries are naturals, so they compare by numerator
        diffs = 0
        for a, b in zip(x.coords, y.coords):
            if a.numerator != b.numerator:
                diffs += 1
        return diffs == 1
    if kind == EXPLICIT:
        u, v = x.coords[0].numerator, y.coords[0].numerator
        return ((u, v) if u < v else (v, u)) in instance.edges
    if kind == CURVE_DIFFERENCE:
        if x == y:
            return False
        # u = a/b and v = c/e; with L the product of the coefficient
        # denominators and deg the largest exponent, p(u, v) = 0 exactly when
        # the sum of (L * c_ij) * a^i * b^(deg-i) * c^j * e^(deg-j) is 0
        (xu, xv), (yu, yv) = x.coords, y.coords
        b = xu.denominator * yu.denominator
        a = xu.numerator * yu.denominator - yu.numerator * xu.denominator
        e = xv.denominator * yv.denominator
        c = xv.numerator * yv.denominator - yv.numerator * xv.denominator
        terms = instance.poly.terms
        scale = prod(coef.denominator for _, coef in terms)
        deg = max((max(i, j) for (i, j), _ in terms), default=0)
        scaled = [
            (i, j, coef.numerator * (scale // coef.denominator) * b ** (deg - i) * e ** (deg - j))
            for (i, j), coef in terms
        ]
        return any(
            sum(k * sa**i * sc**j for i, j, k in scaled) == 0 for sa, sc in ((a, c), (-a, -c))
        )
    raise UnsupportedKindError(kind)


class SampleUniverse:
    """Finite, duplicate-free, ordered point sample standing in for the space.

    The point order is fixed at construction and drives every greedy
    construction and canonical tie-break downstream.  A universe refuses
    attribute writes after construction, as Point does, so the fixed
    builders can share one among all their callers; the cached masks are
    stored in its __dict__ directly.
    """

    def __init__(self, instance: GraphInstance, points: Iterable[Point]):
        points = tuple(points)
        index: dict[Point, int] = {}
        for i, p in enumerate(points):
            instance.validate_point(p)
            if index.setdefault(p, i) != i:
                raise InvalidPointError(f"duplicate point at index {i}: {quoted(p)}")
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError(f"SampleUniverse is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SampleUniverse is immutable: cannot delete {name!r}")

    def __len__(self):
        return len(self.points)

    def __contains__(self, p: Point):
        return p in self._index

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPointError(f"{quoted(p)} is not in the universe") from None

    def reference_adjacent(self, x: Point, y: Point) -> bool:
        """Exact adjacency of two universe points, from their coordinates.

        The independent second route to the masks: it never reads them, and
        skips the validation the points passed when the universe was built.
        A point outside the universe raises UnknownPointError.
        """
        self.index(x)
        self.index(y)
        return _exact_adjacent(self.instance, x, y)

    @cached_property
    def closed_masks(self) -> list[int]:
        """closed_masks[i] = bitmask of Gamma(points[i]) within the universe.

        Built from the structure of the instance kind on point indices (see
        _MASK_BUILDERS).  Library logic reads adjacency here; adjacent() and
        reference_adjacent() stay the exact pairwise reference.
        """
        try:
            build = _MASK_BUILDERS[self.instance.kind]
        except KeyError:
            raise UnsupportedKindError(self.instance.kind) from None
        return build(self.instance, self.points, [1 << i for i in range(len(self.points))])

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
        return frozenset(self.ordered_points_of(mask))

    def ordered_points_of(self, mask: int) -> list[Point]:
        """The points of the set bits of mask, in universe order; the walk
        visits set bits only, so a sparse mask costs its size, not n."""
        points = self.points
        out = []
        while mask:
            low = mask & -mask
            out.append(points[low.bit_length() - 1])
            mask ^= low
        return out


# -- mask builders --------------------------------------------------------------
# Each returns the closed masks of the points, given bits[i] = 1 << i: it
# ORs bits[j] into masks[i] and bits[i] into masks[j] for every adjacent
# pair it meets.  The points are already validated by SampleUniverse, and
# may be any subset of the space in any order.

def _distance_masks(instance: GraphInstance, points: tuple[Point, ...], bits: list[int]):
    """Integer squared distances D^2 * s after scaling to one common
    denominator D.  In dimension 2 each pair's squared gap is computed
    inline; dimension 3 and up use _gap.
    """
    masks = bits.copy()
    d, scaled = _common_scale([p.coords for p in points])
    targets = _scaled_targets(d, instance.squared_distances)
    if not targets:
        return masks
    if instance.dimension == 1:
        where = {x: i for i, (x,) in enumerate(scaled)}
        roots = [r for t in targets if (r := isqrt(t)) * r == t]
        for i, (x,) in enumerate(scaled):
            for r in roots:
                j = where.get(x + r)
                if j is not None:
                    masks[i] |= bits[j]
                    masks[j] |= bits[i]
        return masks
    # Grid cells of side r on the first two coordinates.  An adjacent pair
    # differs by at most sqrt(max target) < r in every coordinate, so its
    # cells differ by at most one step in each keyed coordinate: each pair
    # is met once, inside one cell or across one of the four
    # lexicographically positive offsets.
    r = isqrt(max(targets)) + 1
    cells: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
    for i, x in enumerate(scaled):
        cells.setdefault((x[0] // r, x[1] // r), []).append((i, x))
    if instance.dimension == 2:
        for left, right in _cell_blocks(cells):
            for i, (x0, x1) in left:
                for j, (y0, y1) in right:
                    d0 = x0 - y0
                    d1 = x1 - y1
                    if d0 * d0 + d1 * d1 in targets:
                        masks[i] |= bits[j]
                        masks[j] |= bits[i]
        return masks
    for left, right in _cell_blocks(cells):
        for i, x in left:
            for j, y in right:
                if _gap(x, y) in targets:
                    masks[i] |= bits[j]
                    masks[j] |= bits[i]
    return masks


def _cell_blocks(cells: dict):
    """Pairs (left, right) of member lists whose cross pairs are every pair
    of points in one cell or in cells one forward offset apart, each once."""
    for (a, b), members in cells.items():
        for k in range(len(members) - 1):
            yield members[k : k + 1], members[k + 1 :]
        for da, db in ((0, 1), (1, -1), (1, 0), (1, 1)):
            others = cells.get((a + da, b + db))
            if others:
                yield members, others


def _gap(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Squared distance of two integer points."""
    return sum((a - b) ** 2 for a, b in zip(x, y))


def _curve_difference_masks(
    instance: GraphInstance, points: tuple[Point, ...], bits: list[int]
):
    """Integer evaluation after scaling to one common denominator D.

    With U = D*u and V = D*v, L * D^deg * p(u, v) = q(U, V) for the integer
    polynomial q with coefficients L * c * D^(deg - i - j), where deg is the
    total degree of p and L the lcm of its coefficient denominators.  Split
    q into the terms of even and of odd total degree, E and O: then
    q(U, V) = E + O and q(-U, -V) = E - O, so p(u, v) = 0 or p(-u, -v) = 0
    exactly when E = O or E = -O.
    """
    masks = bits.copy()
    terms = instance.poly.terms
    d, scaled = _common_scale([p.coords for p in points])
    _, (coefs,) = _common_scale([[c for _, c in terms]])
    deg = max((i + j for (i, j), _ in terms), default=0)
    even, odd = [], []
    for ((i, j), _), c in zip(terms, coefs):
        (odd if (i + j) % 2 else even).append((i, j, c * d ** (deg - i - j)))
    for i, (x0, x1) in enumerate(scaled):
        for j in range(i + 1, len(scaled)):
            y0, y1 = scaled[j]
            u, v = x0 - y0, x1 - y1
            e = sum(c * u**a * v**b for a, b, c in even)
            o = sum(c * u**a * v**b for a, b, c in odd)
            if e == o or e == -o:
                masks[i] |= bits[j]
                masks[j] |= bits[i]
    return masks


def _hamming_masks(instance: GraphInstance, points: tuple[Point, ...], bits: list[int]):
    """One line mask per (entry k, word with entry k blanked): n * breadth
    dict steps.

    Each word gets a mixed-radix integer code, where entry k has the radix
    1 + the largest entry at k over the words, so the codes are distinct,
    and code - word[k] * stride[k] keys the word with entry k blanked.  The
    words of one key differ from each other in entry k alone, so each
    word's closed mask is the union of its lines.  An entry where every
    word agrees keys each word alone and is skipped.
    """
    masks = bits.copy()
    columns = list(zip(*(p.ints for p in points)))
    strides = [1] * len(columns)
    for k in range(len(columns) - 1, 0, -1):
        strides[k - 1] = strides[k] * (1 + max(columns[k]))
    codes = [0] * len(points)
    for column, stride in zip(columns, strides):
        codes = [code + a * stride for code, a in zip(codes, column)]
    for column, stride in zip(columns, strides):
        if min(column) == max(column):
            continue
        keys = [code - a * stride for code, a in zip(codes, column)]
        lines: dict[int, int] = {}
        for key, bit in zip(keys, bits):
            lines[key] = lines.get(key, 0) | bit
        masks = [mask | lines[key] for mask, key in zip(masks, keys)]
    return masks


def _explicit_masks(instance: GraphInstance, points: tuple[Point, ...], bits: list[int]):
    masks = bits.copy()
    where = {p.ints[0]: i for i, p in enumerate(points)}
    for u, v in instance.edges:
        i, j = where.get(u), where.get(v)
        if i is not None and j is not None:
            masks[i] |= bits[j]
            masks[j] |= bits[i]
    return masks


_MASK_BUILDERS = {
    DISTANCE: _distance_masks,
    CURVE_DIFFERENCE: _curve_difference_masks,
    HAMMING_UNIFORM: _hamming_masks,
    HAMMING_DIAGONAL: _hamming_masks,
    EXPLICIT: _explicit_masks,
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


def closed_union(universe: SampleUniverse, mask: int) -> int:
    """The union of the closed neighborhoods of the points of mask."""
    closed = universe.closed_masks
    out = 0
    while mask:
        low = mask & -mask
        out |= closed[low.bit_length() - 1]
        mask ^= low
    return out


def common_neighborhood(universe: SampleUniverse, pts: Iterable[Point]) -> frozenset[Point]:
    """Intersection of closed neighborhoods; the empty family yields everything."""
    return universe.points_of(common_neighborhood_mask(universe, pts))


# -- box edge-freeness --------------------------------------------------------

@dataclass(frozen=True)
class EdgeFreeResult:
    """Verdict of the exact cell-pair edge check.

    status is "empty" (certified no edge), "nonempty" (certified some
    edge), or "unknown" (a candidate squared distance touches the
    achievable-range boundary, so neither certificate applies).
    """

    status: str

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("compare EdgeFreeResult.status explicitly")


def box_edge_free(instance: GraphInstance, box0: TaggedBox, box1: TaggedBox) -> EdgeFreeResult:
    """Decide whether (box0 x box1) meets the edge relation of a distance
    instance, exactly.

    At the boxes' common level k the least and greatest squared distance
    between the closed boxes are integers lo and hi over 4^k, compared with
    each squared distance s as s * 4^k.  An s strictly between them
    certifies an edge even when no rational witness exists; an s equal to
    one is "unknown".  Boxes of different dimensions, or of another
    dimension than the instance's, raise InvalidPointError.  Other kinds
    are unsupported (conservative); Location.validate certifies the cells
    of an explicit instance from its edge list.
    """
    if instance.kind != DISTANCE:
        raise UnsupportedKindError(f"box_edge_free undefined for kind {instance.kind}")
    if not (isinstance(box0, TaggedBox) and isinstance(box1, TaggedBox)):
        raise UnsupportedKindError("distance instances use TaggedBox cells")
    k, ends = _common_level(box0, box1)
    instance.validate_box(box0)  # box1 has box0's dimension
    lo_total = hi_total = 0
    for lo0, hi0, lo1, hi1 in ends:
        lo, hi = lo0 - hi1, hi0 - lo1  # the scaled ends of x - y
        if not lo <= 0 <= hi:
            lo_total += min(lo * lo, hi * hi)
        hi_total += max(lo * lo, hi * hi)
    targets = [(s.numerator << 2 * k, s.denominator) for s in instance.squared_distances]
    if any(lo_total * q < t < hi_total * q for t, q in targets):
        return EdgeFreeResult("nonempty")
    if any(t in (lo_total * q, hi_total * q) for t, q in targets):
        return EdgeFreeResult("unknown")
    return EdgeFreeResult("empty")
