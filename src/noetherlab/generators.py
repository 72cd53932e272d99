"""Seeded random builders for property campaigns.

Distributions (documented in every campaign report header):
rational grid samples for geometric instances, clustered line samples with
planted unit edges, planar unit-distance samples from rational circle
points, random explicit graphs with an edge-probability parameter, and
random conditions.  All draws come from the supplied random.Random, so
identical seeds reproduce identical objects.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .coloring import PCondition, separating_box, validate_pcondition
from .control_poset import QCondition, validate_qcondition
from .errors import InvalidConditionError
from .geometry import Point, pt
from .graphs import SampleUniverse, distance_graph, explicit_graph, vertex_point
from .hamming import make_diagonal_hamming
from .lattice import good_closure

GENERATOR_NOTES = {
    "line": "unit-distance R^1 on 0..n-1 (integer grid)",
    "clustered-line": "unit-distance R^1, two rational clusters one unit apart",
    "planar": "unit-distance R^2, grid bases plus rational circle offsets",
    "hamming": "diagonal Hamming truncation, breadth <= 3",
    "explicit": "G(n, p) explicit graph, seeded",
}


# The fixed builders below take no rng, so each returns one shared universe
# per argument tuple: it is built, validated and given its masks once per
# process.  SampleUniverse refuses attribute writes, so no caller can change
# it under another.  The bound keeps at most 16 universes per builder; the
# largest, 4096 points with both mask lists, holds 3.8-5.5 MB (tracemalloc).
@lru_cache(maxsize=16)
def line_universe(n: int) -> SampleUniverse:
    instance = distance_graph(1, [1])
    return SampleUniverse(instance, [pt(i) for i in range(n)])


@lru_cache(maxsize=16)
def path_explicit_universe(n: int) -> SampleUniverse:
    """The explicit twin of the integer unit-distance line."""
    instance = explicit_graph(n, [(i, i + 1) for i in range(n - 1)])
    return SampleUniverse(instance, [vertex_point(i) for i in range(n)])


@lru_cache(maxsize=16)
def clustered_line_universe() -> SampleUniverse:
    """Two clusters of rationals one unit apart, all inside the box (0, 2).

    Points i/16 and 1 + i/16 for 1 <= i <= 8; the only unit-distance pairs
    are the matched cluster positions, so the sample is triangle-free while
    a single level-0 box carries every point.
    """
    instance = distance_graph(1, [1])
    points = [pt(Fraction(i, 16)) for i in range(1, 9)]
    points += [pt(1 + Fraction(i, 16)) for i in range(1, 9)]
    return SampleUniverse(instance, points)


def rational_circle_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational point on the unit circle via the tangent parametrization."""
    return _circle_point(rng.randint(-6, 6), rng.randint(1, 6))


@lru_cache(maxsize=128)  # the 13 * 6 = 78 pairs (a, b) the draws can give
def _circle_point(a: int, b: int) -> tuple[Fraction, Fraction]:
    """The circle point at slope t = a/b: ((1 - t^2), 2t) / (1 + t^2)."""
    t = Fraction(a, b)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def planar_unit_universe(rng: random.Random, n_points: int) -> SampleUniverse:
    """Planar unit-distance sample: small grid bases plus circle offsets."""
    instance = distance_graph(2, [1])
    seen = set()
    points = []
    while len(points) < n_points:
        if points and rng.random() < 0.6:
            base = rng.choice(points)
            dx, dy = rational_circle_point(rng)
            cand = Point((base.coords[0] + dx, base.coords[1] + dy))
        else:
            cand = pt(rng.randint(-2, 2), rng.randint(-2, 2))
        if cand not in seen:  # a Point hashes once, at construction
            seen.add(cand)
            points.append(cand)
    return SampleUniverse(instance, points)


def random_explicit_edges(
    rng: random.Random, n: int, edge_probability: float
) -> Iterator[tuple[int, int]]:
    """The edges of a G(n, p) draw in index order, drawn as they are read."""
    return ((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_probability)


def random_explicit_universe(
    rng: random.Random, n: int, edge_probability: float = 0.35
) -> SampleUniverse:
    instance = explicit_graph(n, random_explicit_edges(rng, n, edge_probability))
    return SampleUniverse(instance, [vertex_point(i) for i in range(n)])


def random_universe(rng: random.Random, max_points: int = 12) -> SampleUniverse:
    """The acceptance mix: line/planar unit distance, Hamming, explicit."""
    kind = rng.choice(["line", "planar", "hamming", "explicit"])
    if kind == "line":
        return line_universe(rng.randint(3, max_points))
    if kind == "planar":
        return planar_unit_universe(rng, rng.randint(4, min(10, max_points)))
    if kind == "hamming":
        return make_diagonal_hamming(rng.randint(2, 3))
    return random_explicit_universe(rng, rng.randint(3, min(10, max_points)), rng.uniform(0.2, 0.6))


def random_good_domain(rng: random.Random, universe: SampleUniverse) -> frozenset[Point]:
    """The good closure of one to three random points."""
    seeds = rng.sample(universe.points, k=min(len(universe), rng.randint(1, 3)))
    return good_closure(universe, seeds)


def random_pcondition(rng: random.Random, universe: SampleUniverse) -> PCondition:
    """A valid separated condition: good domain, random tags.

    Every color avoids all adjacent domain points (not just earlier ones),
    which is the class on which the pairwise compatibility criterion
    exactly characterizes amalgamation.
    """
    domain = sorted(random_good_domain(rng, universe), key=universe.index)
    assignment = {}
    for x in domain:
        assignment[x] = separating_box(
            universe, x, [y for y in domain if y != x], tag=rng.randint(0, 2)
        )
    p = PCondition(universe, assignment)
    validate_pcondition(p, require_good=True)
    return p


def random_qcondition(
    rng: random.Random, universe: SampleUniverse, color_budget: int
) -> QCondition:
    """A proper natural-valued partial coloring of one to four points,
    drawn by rejection."""
    for _ in range(200):
        pts = rng.sample(universe.points, k=min(len(universe), rng.randint(1, 4)))
        assignment = {x: rng.randrange(color_budget) for x in pts}
        q = QCondition(universe, assignment)
        try:
            validate_qcondition(q)
        except InvalidConditionError:
            continue
        return q
    raise AssertionError("rejection sampling failed to find a proper condition")

