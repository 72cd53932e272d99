"""Hamming truncations, the epsilon-matrix homomorphism into the Vitali
classes, and the embedding of the diagonal Hamming graph into a distance
graph on the line.  Everything is exact; verification reports carry zero
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, product
from operator import getitem, sub
from typing import Iterable, Optional, Sequence

from .coloring import chromatic_number
from .errors import (
    InvalidPointError,
    InvalidSequenceError,
    OracleBoundError,
    PartitionError,
)
from .geometry import Point, _common_scale, _scaled_targets
from .graphs import (
    GraphInstance,
    SampleUniverse,
    distance_graph,
    hamming_diagonal,
    hamming_uniform,
)
from .patterns import find_clique

DEFAULT_SIZE_BOUND = 4096


def _diagonal_size(breadth: int) -> int:
    """The number of diagonal words, breadth!; raises OracleBoundError above
    DEFAULT_SIZE_BOUND."""
    size = 1
    for n in range(breadth):
        size *= n + 1
        if size > DEFAULT_SIZE_BOUND:
            raise OracleBoundError(f"diagonal truncation exceeds size bound {DEFAULT_SIZE_BOUND}")
    return size


@lru_cache(maxsize=16)
def make_diagonal_hamming(breadth: int) -> SampleUniverse:
    """All vectors x with x(n) <= n for n < breadth, in lexicographic order.

    One shared universe per breadth, like the fixed builders of generators.
    """
    _diagonal_size(breadth)
    instance = hamming_diagonal(breadth)
    values = [Fraction(v) for v in range(breadth)]
    points = [Point(vec) for vec in product(*(values[: n + 1] for n in range(breadth)))]
    return SampleUniverse(instance, points)


@lru_cache(maxsize=16)
def make_uniform_hamming(breadth: int, alphabet: int) -> SampleUniverse:
    """All words of the given breadth over the alphabet, in lexicographic order.

    One shared universe per argument pair, like make_diagonal_hamming.
    """
    # alphabet 1 makes one word at any breadth, while the power and the
    # instance grow with the breadth, so the breadth is bounded first, and
    # the alphabet, a lower bound of the power, before the power is computed
    if (breadth > DEFAULT_SIZE_BOUND or alphabet > DEFAULT_SIZE_BOUND
            or alphabet**breadth > DEFAULT_SIZE_BOUND):
        raise OracleBoundError(f"uniform truncation exceeds size bound {DEFAULT_SIZE_BOUND}")
    instance = hamming_uniform(breadth, alphabet)
    values = [Fraction(v) for v in range(alphabet)]
    points = [Point(vec) for vec in product(values, repeat=breadth)]
    return SampleUniverse(instance, points)


def mixed_radix_coloring(universe: SampleUniverse) -> dict[Point, int]:
    """Coordinate-sum mod breadth; proper on the diagonal truncation."""
    n = universe.instance.dimension
    return {p: int(sum(p.coords)) % n for p in universe.points}


# -- epsilon data -------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonMatrix:
    """Pairwise distinct positive rationals eps[n][m] with total sum < 1."""

    rows: int
    cols: int
    values: tuple[tuple[Fraction, ...], ...]

    def at(self, n: int, m: int) -> Fraction:
        return self.values[n][m]

    def total(self) -> Fraction:
        return sum((v for row in self.values for v in row), Fraction(0))


def epsilon_matrix(rows: int, cols: int) -> EpsilonMatrix:
    """The canonical matrix: eps[n][m] = 2^-(1 + n*cols + m).

    Row-major ranks make all entries distinct with total strictly below 1;
    deterministic so every report is reproducible.
    """
    if rows < 1 or cols < 1:
        raise InvalidSequenceError("matrix needs at least one row and column")
    values = tuple(
        tuple(Fraction(1, 2 ** (1 + n * cols + m)) for m in range(cols))
        for n in range(rows)
    )
    return EpsilonMatrix(rows, cols, values)


def _columns(x: Point, eps: EpsilonMatrix) -> list[int]:
    """The matrix column x(n) of every row n; raises InvalidPointError."""
    if x.dimension > eps.rows:
        raise InvalidPointError("point breadth exceeds the epsilon matrix rows")
    columns = []
    for c in x.coords:
        if c.denominator != 1 or not (0 <= c.numerator < eps.cols):
            raise InvalidPointError(f"entry {c} outside the matrix columns")
        columns.append(c.numerator)
    return columns


def vitali_map(x: Point, eps: EpsilonMatrix) -> Fraction:
    """h(x) = sum_n eps[n][x(n)], exactly."""
    total = Fraction(0)
    for n, m in enumerate(_columns(x, eps)):
        total += eps.at(n, m)
    return total


def _edges(universe: SampleUniverse):
    """Index pairs i < j of adjacent points, in lexicographic order."""
    for i, m in enumerate(universe.open_masks):
        m >>= i + 1
        while m:
            low = m & -m
            yield i, i + low.bit_length()
            m ^= low


def verify_vitali_homomorphism(universe: SampleUniverse, eps: EpsilonMatrix) -> dict:
    """Check every edge maps to a nonzero (automatically rational) shift.

    The images are vitali_map scaled by D, the lcm of the denominators of
    the matrix, so they are integers and a shift is zero exactly when the
    scaled shift is.  They are summed from the integer words of the points;
    a point that is no word of matrix columns goes through _columns, which
    raises the InvalidPointError of vitali_map.
    """
    _, table = _common_scale(eps.values)
    words = [p.ints for p in universe.points]
    if (
        None in words
        or max(map(len, words), default=0) > eps.rows
        or not all(0 <= c < eps.cols for c in set(chain.from_iterable(words)))
    ):
        words = [_columns(p, eps) for p in universe.points]
    images = [sum(map(getitem, table, word)) for word in words]
    pairs_checked = 0
    failures = []
    for i, j in _edges(universe):
        pairs_checked += 1
        if images[i] - images[j] == 0:
            failures.append((i, j))
    return {
        "edges_checked": pairs_checked,
        "failures": failures,
        "passed": not failures,
        "relative_to_universe": True,
    }


@dataclass(frozen=True)
class EpsilonSequence:
    """Positive eps_n with sum (n+1) * eps_n below a declared bound."""

    values: tuple[Fraction, ...]
    bound: Fraction

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise InvalidSequenceError("epsilon values must be positive")
        weighted = sum(((n + 1) * v for n, v in enumerate(self.values)), Fraction(0))
        if weighted >= self.bound:
            raise InvalidSequenceError(
                f"sum (n+1) eps_n = {weighted} is not below the bound {self.bound}"
            )


def geometric_epsilon_sequence(breadth: int, ratio: Fraction = Fraction(1, 4)) -> EpsilonSequence:
    """eps_n = ratio^n; the default witness used by the embedding tests."""
    values = tuple(ratio**n for n in range(breadth))
    weighted = sum(((n + 1) * v for n, v in enumerate(values)), Fraction(0))
    return EpsilonSequence(values, bound=weighted + 1)


def derived_distances(eps: EpsilonSequence) -> tuple[dict[Fraction, list], list]:
    """The set {m * eps_n : 1 <= m <= n} with its (m, n) provenance.

    Returns (value -> list of (m, n) pairs, collisions), where collisions
    lists every value produced by more than one pair.  Collisions merge
    harmlessly in the distance set; they are reported, and rejected only
    by strict callers.
    """
    table: dict[Fraction, list] = {}
    for n in range(len(eps.values)):
        for m in range(1, n + 1):
            table.setdefault(m * eps.values[n], []).append((m, n))
    collisions = [(v, pairs) for v, pairs in sorted(table.items()) if len(pairs) > 1]
    return table, collisions


def embed_diagonal_into_distance(
    breadth: int, eps: Optional[EpsilonSequence] = None
) -> tuple[dict[Point, Fraction], GraphInstance, dict]:
    """h(x) = sum_n x(n) eps_n plus the line distance graph it maps into.

    The instance's squared distance set is {(m eps_n)^2 : 1 <= m <= n}.
    Collisions, distinct (m, n) with one value m eps_n, are merged (set
    semantics) and listed in the report.
    """
    eps, instance, report = _diagonal_embedding(breadth, eps)
    images = {
        p: sum((c * eps.values[n] for n, c in enumerate(p.coords)), Fraction(0))
        for p in make_diagonal_hamming(breadth).points
    }
    return images, instance, report


def _diagonal_embedding(breadth, eps):
    """The epsilon sequence cut to the breadth, the line instance and the
    report of embed_diagonal_into_distance."""
    if breadth < 1:
        raise InvalidSequenceError("breadth must be >= 1")
    if eps is not None and len(eps.values) < breadth:
        raise InvalidSequenceError("epsilon sequence shorter than the breadth")
    vertices = _diagonal_size(breadth)
    if eps is None:
        eps = geometric_epsilon_sequence(breadth)
    elif len(eps.values) > breadth:
        eps = EpsilonSequence(eps.values[:breadth], eps.bound)
    table, collisions = derived_distances(eps)
    if breadth == 1:
        # single vertex, no edges; any positive distance yields a valid instance
        instance = distance_graph(1, [Fraction(1)])
    else:
        instance = distance_graph(1, [v * v for v in table])
    report = {
        "breadth": breadth,
        "vertices": vertices,
        "collisions": [
            [str(v), [[m, n] for m, n in pairs]] for v, pairs in collisions
        ],
    }
    return eps, instance, report


def _diagonal_blocks(breadth: int):
    """(offset, selector) for each entry n >= 1 and each shift d in 1..n.
    The diagonal words i that ``compress(range(breadth!), selector)`` keeps
    are those whose entry n is at most n - d, and word i + offset differs
    from word i only by d at entry n.  Flattened and sorted, the pairs
    (i, i + offset) are the edges of make_diagonal_hamming in the order of
    _edges.

    The words are in lexicographic order, so word i has the mixed-radix
    index i, where entry n has the stride (n + 2)(n + 3)...breadth, and
    raising entry n by d adds d * stride to the index.  Entry n steps
    through 0..n once every (n + 1) * stride indices, holding each value
    for stride indices, so the selector keeps (n + 1 - d) * stride indices,
    skips d * stride, and repeats.
    """
    size = stride = _diagonal_size(breadth)
    for n in range(1, breadth):  # entry 0 takes only the value 0
        stride //= n + 1
        for d in range(1, n + 1):
            period = [True] * ((n + 1 - d) * stride) + [False] * (d * stride)
            yield d * stride, period * (size // len(period))


def verify_embedding(
    breadth: int, eps: Optional[EpsilonSequence] = None
) -> dict:
    """Every diagonal-Hamming edge maps to an exact edge of the line graph.

    The check runs on integer words and builds no universe.  The images
    are h scaled by D, the lcm of the denominators of the epsilon sequence,
    so they are integers; they are built in the lexicographic order of the
    words, one entry at a time.  A gap g is an edge exactly when (g D)^2
    lies in the integers of {s D^2 : s a squared distance}.  The edges come
    in the blocks of _diagonal_blocks: every edge's gap is computed, each
    distinct gap of a block is tested once, and only a block with a failing
    gap lists its failing pairs.  The failures are sorted into the order of
    _edges.
    """
    eps, instance, report = _diagonal_embedding(breadth, eps)
    scale, (steps,) = _common_scale([eps.values])
    images = [0]
    for n, step in enumerate(steps):
        images = [a + c * step for a in images for c in range(n + 1)]
    squares = _scaled_targets(scale, instance.squared_distances)
    edges_checked = 0
    failures = []
    for offset, selector in _diagonal_blocks(breadth):
        gaps = list(map(sub, compress(images, selector), compress(images[offset:], selector)))
        edges_checked += len(gaps)
        bad = {g for g in set(gaps) if g * g not in squares}
        if bad:
            lefts = compress(range(len(images)), selector)
            failures += [
                (i, i + offset, str(Fraction(g, scale))) for i, g in zip(lefts, gaps) if g in bad
            ]
    failures.sort()  # the pairs (i, j) are distinct, so this is the order of _edges
    report.update(
        {
            "edges_checked": edges_checked,
            "failures": failures,
            "passed": not failures,
            "zero_tolerance": True,
        }
    )
    return report


def sigma_bounded_check(universe: SampleUniverse, pieces: Sequence[Iterable[Point]]) -> dict:
    """Exact chromatic number and clique size of every piece of a partition.

    Piece n passes when its chromatic number is at most n + 2 (the
    sigma-bounded chromatic bound on finite truncations).
    """
    piece_sets = [frozenset(p) for p in pieces]
    union: set[Point] = set()
    total = 0
    for ps in piece_sets:
        total += len(ps)
        union |= ps
    if union != set(universe.points) or total != len(universe.points):
        raise PartitionError("pieces do not partition the universe")
    out = []
    for n, ps in enumerate(piece_sets):
        sub = SampleUniverse(
            universe.instance, [p for p in universe.points if p in ps]
        )
        chi, _ = chromatic_number(sub)
        clique = 0
        for m in range(1, len(sub) + 1):
            if find_clique(sub, m) is None:
                break
            clique = m
        out.append(
            {
                "piece": n,
                "size": len(sub),
                "chromatic_number": chi,
                "bound": n + 2,
                "passed": chi <= n + 2,
                "max_clique": clique,
            }
        )
    return {"pieces": out, "passed": all(p["passed"] for p in out)}
