"""Hamming truncations, the epsilon-matrix homomorphism into the Vitali
classes, and the embedding of the diagonal Hamming graph into a distance
graph on the line.  Everything is exact; verification reports carry zero
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from .coloring import chromatic_number
from .errors import (
    InvalidPointError,
    InvalidSequenceError,
    OracleBoundError,
    PartitionError,
)
from .geometry import Point
from .graphs import (
    GraphInstance,
    SampleUniverse,
    distance_graph,
    hamming_diagonal,
    hamming_uniform,
)

DEFAULT_SIZE_BOUND = 4096


def make_diagonal_hamming(breadth: int, *, size_bound: int = DEFAULT_SIZE_BOUND) -> SampleUniverse:
    """All vectors x with x(n) <= n for n < breadth, in lexicographic order."""
    size = 1
    for n in range(breadth):
        size *= n + 1
        if size > size_bound:
            raise OracleBoundError(f"diagonal truncation exceeds size bound {size_bound}")
    instance = hamming_diagonal(breadth)
    points = [
        Point(tuple(Fraction(v) for v in vec))
        for vec in product(*(range(n + 1) for n in range(breadth)))
    ]
    return SampleUniverse(instance, points)


def make_uniform_hamming(
    breadth: int, alphabet: int, *, size_bound: int = DEFAULT_SIZE_BOUND
) -> SampleUniverse:
    if alphabet**breadth > size_bound:
        raise OracleBoundError(f"uniform truncation exceeds size bound {size_bound}")
    instance = hamming_uniform(breadth, alphabet)
    points = [
        Point(tuple(Fraction(v) for v in vec))
        for vec in product(range(alphabet), repeat=breadth)
    ]
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


def vitali_map(x: Point, eps: EpsilonMatrix) -> Fraction:
    """h(x) = sum_n eps[n][x(n)], exactly."""
    if x.dimension > eps.rows:
        raise InvalidPointError("point breadth exceeds the epsilon matrix rows")
    total = Fraction(0)
    for n, c in enumerate(x.coords):
        if c.denominator != 1 or not (0 <= c < eps.cols):
            raise InvalidPointError(f"entry {c} outside the matrix columns")
        total += eps.at(n, int(c))
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
    """Check every edge maps to a nonzero (automatically rational) shift."""
    images = [vitali_map(p, eps) for p in universe.points]
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
    breadth: int,
    eps: Optional[EpsilonSequence] = None,
    *,
    strict_distinct: bool = False,
) -> tuple[dict[Point, Fraction], GraphInstance, dict]:
    """h(x) = sum_n x(n) eps_n plus the line distance graph it maps into.

    The instance's squared distance set is {(m eps_n)^2 : 1 <= m <= n}.
    With strict_distinct, any (m, n) collision raises; by default
    collisions are merged and reported (set semantics).
    """
    universe, images, instance, report = _diagonal_embedding(breadth, eps, strict_distinct)
    return dict(zip(universe.points, images)), instance, report


def _diagonal_embedding(breadth, eps, strict_distinct):
    """The diagonal universe, its images listed by point index, the line
    instance and the report of embed_diagonal_into_distance."""
    if breadth < 1:
        raise InvalidSequenceError("breadth must be >= 1")
    if eps is None:
        eps = geometric_epsilon_sequence(breadth)
    if len(eps.values) < breadth:
        raise InvalidSequenceError("epsilon sequence shorter than the breadth")
    if len(eps.values) > breadth:
        eps = EpsilonSequence(eps.values[:breadth], eps.bound)
    table, collisions = derived_distances(eps)
    if strict_distinct and collisions:
        raise InvalidSequenceError(f"derived distance collisions: {collisions}")
    universe = make_diagonal_hamming(breadth)
    images = [sum((c * eps.values[n] for n, c in enumerate(p.coords)), Fraction(0))
              for p in universe.points]
    if breadth == 1:
        # single vertex, no edges; any positive distance yields a valid instance
        instance = distance_graph(1, [Fraction(1)])
    else:
        instance = distance_graph(1, [v * v for v in table])
    report = {
        "breadth": breadth,
        "vertices": len(universe),
        "collisions": [
            [str(v), [[m, n] for m, n in pairs]] for v, pairs in collisions
        ],
    }
    return universe, images, instance, report


def verify_embedding(
    breadth: int, eps: Optional[EpsilonSequence] = None
) -> dict:
    """Every diagonal-Hamming edge maps to an exact edge of the line graph."""
    universe, images, instance, report = _diagonal_embedding(breadth, eps, False)
    edges_checked = 0
    failures = []
    for i, j in _edges(universe):
        edges_checked += 1
        gap = images[i] - images[j]
        if gap * gap not in instance.squared_distances:
            failures.append((i, j, str(gap)))
    report.update(
        {
            "edges_checked": edges_checked,
            "failures": failures,
            "passed": not failures,
            "zero_tolerance": True,
        }
    )
    return report


def layer_supremum_distances(eps: EpsilonSequence) -> list[Fraction]:
    """Per-layer largest jump n * eps_n; tends to zero for tight witnesses."""
    return [n * v for n, v in enumerate(eps.values)]


def sigma_bounded_check(
    universe: SampleUniverse,
    pieces: Sequence[Iterable[Point]],
    *,
    oracle_bound: int = 64,
) -> dict:
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
    from . import patterns

    for n, ps in enumerate(piece_sets):
        sub = SampleUniverse(
            universe.instance, [p for p in universe.points if p in ps]
        )
        chi, _ = chromatic_number(sub, bound=oracle_bound)
        clique = 0
        for m in range(1, len(sub) + 1):
            if patterns.find_clique(sub, m) is None:
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
