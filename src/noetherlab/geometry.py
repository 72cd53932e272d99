"""Points and tagged dyadic boxes, with the canonical box enumeration.

A box of level k with corner vector m is the open product
prod_i (m_i / 2^k, (m_i + 2) / 2^k); corners are constrained to
|m_i| <= 4^k so each level covers a bounded window that grows without
bound.  Every box additionally carries a natural-number tag, so for every
tag value the tagged boxes of that value still form a basis of arbitrarily
small boxes around every rational point.

The canonical enumeration interleaves tags in stages: stage s lists, in
(level ascending, corners lexicographic, tag ascending) order, the boxes
with max(level, tag) = s.  This is a bijection with the naturals; the
canonical order on boxes is the index order.

Answers stay exact on integers by two rescaling rules, one helper each:
rationals times D, the lcm of their denominators, hit a squared distance s
only as D^2 * s, an integer (_common_scale, _scaled_targets); two boxes
compare at their finer level k, by integer ends over 2^k (_common_level).
A point p/q lies in (m/2^k, (m+2)/2^k) iff m*q < p*2^k < (m+2)*q.  The
references ``TaggedBox.intervals`` and ``squared_distance`` use neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Iterator, Sequence

from .errors import InvalidPointError


class Point:
    """A point with exact rational coordinates; immutable and hashable."""

    __slots__ = ("coords", "ints", "_hash")

    def __init__(self, coords: tuple[Fraction, ...]):
        # Points key every universe index, so the hash is computed once, here.
        # It stays hash((coords,)): set iteration order, and so the golden
        # report bytes, depend on it.  hash(Fraction(n)) == hash(n), so
        # integer coordinates hash by their numerators, without the slower
        # Fraction.__hash__.  Those numerators are kept as ``ints`` (None
        # when a coordinate is not an integer) for the Hamming and explicit
        # mask builders and the Vitali verifier; the reference routes read
        # only ``coords``.
        nums = []
        for c in coords:
            if c.denominator != 1:
                ints = None
                h = hash((coords,))
                break
            nums.append(c.numerator)
        else:
            ints = tuple(nums)
            h = hash((ints,))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "_hash", h)

    def __setattr__(self, name, value):
        raise AttributeError(f"Point is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Point is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Point, (self.coords,)

    def __repr__(self):
        return "Point(" + ", ".join(str(c) for c in self.coords) + ")"

    @property
    def dimension(self) -> int:
        return len(self.coords)


def pt(*coords) -> Point:
    """Build a Point from ints, strings or Fractions."""
    return Point(tuple(map(Fraction, coords)))


def squared_distance(x: Point, y: Point) -> Fraction:
    if len(x.coords) != len(y.coords):
        raise InvalidPointError(f"dimension mismatch: {len(x.coords)} vs {len(y.coords)}")
    return sum(((a - b) ** 2 for a, b in zip(x.coords, y.coords)), Fraction(0))


def _common_scale(rows) -> tuple[int, list[tuple[int, ...]]]:
    """D, the lcm of the denominators of the rationals in ``rows`` (a list of
    sequences), and each row multiplied by D, as a tuple of integers."""
    d = lcm(*(c.denominator for row in rows for c in row))
    return d, [tuple(c.numerator * (d // c.denominator) for c in row) for row in rows]


def _scaled_targets(d: int, squares) -> set[int]:
    """The integers D^2 * s over the rationals s of ``squares``: a squared
    gap of points scaled by D is an integer, so it equals D^2 * s only
    where that is one."""
    dd = d * d
    return {s.numerator * (dd // s.denominator) for s in squares if dd % s.denominator == 0}


@dataclass(frozen=True)
class TaggedBox:
    """Open dyadic box ``prod_i (m_i/2^k, (m_i+2)/2^k)`` with a natural tag."""

    tag: int
    level: int
    corners: tuple[int, ...]

    def __post_init__(self):
        if self.tag < 0 or self.level < 0:
            raise ValueError("tag and level must be naturals")
        bound = 4 ** self.level
        for m in self.corners:
            if abs(m) > bound:
                raise ValueError(f"corner {m} exceeds bound {bound} at level {self.level}")

    @property
    def dimension(self) -> int:
        return len(self.corners)

    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        d = Fraction(1, 2 ** self.level)
        return tuple((m * d, (m + 2) * d) for m in self.corners)

    def __repr__(self):
        ivs = "x".join(f"({lo},{hi})" for lo, hi in self.intervals())
        return f"TaggedBox(tag={self.tag}, {ivs})"


def box_contains(box: TaggedBox, x: Point) -> bool:
    """Exact strict-inequality membership of a point in an open box."""
    if len(box.corners) != len(x.coords):
        raise InvalidPointError(f"box dimension {box.dimension} vs point {x.dimension}")
    k = box.level
    for m, c in zip(box.corners, x.coords):
        q = c.denominator
        lo = m * q
        if not lo < c.numerator << k < lo + 2 * q:
            return False
    return True


def _common_level(b0: TaggedBox, b1: TaggedBox) -> tuple[int, list[tuple[int, ...]]]:
    """The finer level k of two boxes and, per coordinate, the integer ends
    (lo0, hi0, lo1, hi1) of their intervals (lo0/2^k, hi0/2^k) and
    (lo1/2^k, hi1/2^k).  Raises InvalidPointError on different dimensions."""
    if len(b0.corners) != len(b1.corners):
        raise InvalidPointError(f"box dimensions differ: {b0.dimension} vs {b1.dimension}")
    k = max(b0.level, b1.level)
    s0, s1 = k - b0.level, k - b1.level
    return k, [(m0 << s0, m0 + 2 << s0, m1 << s1, m1 + 2 << s1)
               for m0, m1 in zip(b0.corners, b1.corners)]


def box_within(inner: TaggedBox, outer: TaggedBox) -> bool:
    """Whether ``inner`` is a subset of ``outer`` (as open sets)."""
    _, ends = _common_level(inner, outer)
    return all(lo1 <= lo0 and hi0 <= hi1 for lo0, hi0, lo1, hi1 in ends)


def boxes_disjoint(b0: TaggedBox, b1: TaggedBox) -> bool:
    """Open boxes are disjoint iff some coordinate's intervals do not overlap."""
    _, ends = _common_level(b0, b1)
    return any(hi0 <= lo1 or hi1 <= lo0 for lo0, hi0, lo1, hi1 in ends)


# -- canonical enumeration ---------------------------------------------------

def _corner_range(level: int) -> int:
    # number of admissible corner values per coordinate at this level
    return 2 * 4 ** level + 1


def _corner_count(dim: int, level: int) -> int:
    return _corner_range(level) ** dim


def _corner_rank(corners: Sequence[int], level: int) -> int:
    base = _corner_range(level)
    shift = 4 ** level
    rank = 0
    for m in corners:
        rank = rank * base + (m + shift)
    return rank


def _corner_unrank(rank: int, dim: int, level: int) -> tuple[int, ...]:
    base = _corner_range(level)
    shift = 4 ** level
    digits = []
    for _ in range(dim):
        rank, digit = divmod(rank, base)
        digits.append(digit - shift)
    return tuple(reversed(digits))


def box_index(box: TaggedBox) -> int:
    """Position of a box in the canonical enumeration of its dimension."""
    dim = box.dimension
    s = max(box.level, box.tag)
    # One walk over the stages below s.  Stage t holds, for every level
    # k < t, the corner vectors of level k (part A), then those of level t
    # once per tag 0..t (part B); `below` sums the levels under t.
    idx = below = below_level = 0
    for t in range(s):
        if t == box.level:
            below_level = below
        count = _corner_count(dim, t)
        idx += below + count * (t + 1)
        below += count
    if box.level < s:
        # part A of the stage: levels below s, tag forced to s
        return idx + below_level + _corner_rank(box.corners, box.level)
    # part B: level s, tags 0..s per corner vector
    return idx + below + _corner_rank(box.corners, s) * (s + 1) + box.tag


def box_from_index(dim: int, index: int) -> TaggedBox:
    """Inverse of :func:`box_index`; bijective onto all boxes of a dimension."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if index < 0:
        raise ValueError("index must be a natural")
    # the same one walk as box_index, keeping the levels' corner counts
    counts: list[int] = []
    below = 0
    while True:
        stage = len(counts)
        counts.append(_corner_count(dim, stage))
        size = below + counts[stage] * (stage + 1)
        if index < size:
            break
        index -= size
        below += counts[stage]
    for k in range(stage):
        if index < counts[k]:
            return TaggedBox(tag=stage, level=k, corners=_corner_unrank(index, dim, k))
        index -= counts[k]
    rank, tag = divmod(index, stage + 1)
    return TaggedBox(tag=tag, level=stage, corners=_corner_unrank(rank, dim, stage))


def _containing_corners(x: Point, level: int) -> list[tuple[int, ...]]:
    """Corner vectors of level-`level` boxes that strictly contain ``x``."""
    per_coord: list[list[int]] = []
    bound = 4 ** level
    for c in x.coords:
        # m must satisfy m < v < m + 2 for v = c * 2^level = p / q, so m runs
        # from floor(v) - 1 to ceil(v) - 1 (one value when v is an integer)
        p, q = c.numerator << level, c.denominator
        first = max(p // q - 1, -bound)
        last = min(-(-p // q) - 1, bound)
        if first > last:
            return []
        per_coord.append(list(range(first, last + 1)))
    combos: list[tuple[int, ...]] = [()]
    for cands in per_coord:
        combos = [c + (m,) for c in combos for m in cands]
    return combos


def _first_level(x: Point) -> int:
    """Least level whose corner window |m| <= 4^k holds a box around ``x``.

    By the bounds of _containing_corners, a coordinate v = c * 2^k has a
    corner at level k iff floor(v) - 1 <= 4^k and ceil(v) - 1 >= -4^k, that
    is iff -4^k < c * 2^k < 4^k + 2.  Both conditions are monotone in k:
    from c * 2^k < 4^k + 2 follows c * 2^(k+1) < 2 * 4^k + 4 <= 4^(k+1) + 2,
    and from -c * 2^k < 4^k follows -c * 2^(k+1) < 2 * 4^k <= 4^(k+1).  So
    the levels below this one hold no box around ``x`` at all, and skipping
    them leaves the canonical order of the boxes that remain unchanged.
    """
    level = 0
    for c in x.coords:
        p, q = c.numerator, c.denominator
        while not -(q << 2 * level) < p << level < (q << 2 * level) + 2 * q:
            level += 1
    return level


def iter_boxes_containing(
    x: Point, *, tag: int | None = None, min_level: int = 0
) -> Iterator[TaggedBox]:
    """Boxes containing ``x`` in canonical order, optionally filtered.

    The subsequence of the canonical enumeration consisting of boxes that
    strictly contain ``x``, restricted to a fixed tag and to levels >=
    ``min_level`` when requested.  Never exhausts: arbitrarily small boxes
    around any rational point exist at every tag.
    """
    # stage s lists boxes of levels <= s only, so the stages below the
    # least admissible level yield nothing
    min_level = max(min_level, _first_level(x))
    for stage in count(min_level):
        # part A: levels k < stage, tag = stage
        if tag is None or tag == stage:
            for k in range(min_level, stage):
                for corners in _containing_corners(x, k):
                    yield TaggedBox(tag=stage, level=k, corners=corners)
        # part B: level = stage, tags 0..stage
        for corners in _containing_corners(x, stage):
            if tag is None:
                for t in range(stage + 1):
                    yield TaggedBox(tag=t, level=stage, corners=corners)
            elif tag <= stage:
                yield TaggedBox(tag=tag, level=stage, corners=corners)


def first_box_containing(x: Point, **kwargs) -> TaggedBox:
    """Canonically first box containing ``x`` under the given filters."""
    return next(iter_boxes_containing(x, **kwargs))
