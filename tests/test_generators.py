"""The campaign's seeded generators against copies of their earlier forms.

A generator change must keep every draw: the same points in the same order
and the rng left in the same state, or every campaign report moves.
"""

import random
from fractions import Fraction

from noetherlab.generators import _circle_point, planar_unit_universe, rational_circle_point
from noetherlab.geometry import Point, pt


def test_circle_table_matches_the_tangent_formula():
    # t = a/b gives ((b^2 - a^2), 2ab) / (a^2 + b^2), on the unit circle
    for a in range(-6, 7):
        for b in range(1, 7):
            x, y = _circle_point(a, b)
            n = a * a + b * b
            assert (x, y) == (Fraction(b * b - a * a, n), Fraction(2 * a * b, n))
            assert x * x + y * y == 1
    assert _circle_point.cache_info().currsize == 78 <= _circle_point.cache_info().maxsize


def _circle_point_by_formula(rng):
    """rational_circle_point before its table: the same two draws."""
    t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def test_circle_points_make_the_same_draws():
    for seed in range(20):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert rational_circle_point(new) == _circle_point_by_formula(old)
        assert new.getstate() == old.getstate()


def _planar_points_by_coordinate_tuples(rng, n_points):
    """planar_unit_universe's points before its Point dedup set, and the
    number of duplicate candidates it dropped."""
    seen, points, dropped = set(), [], 0
    while len(points) < n_points:
        if points and rng.random() < 0.6:
            base = rng.choice(points)
            dx, dy = _circle_point_by_formula(rng)
            cand = Point((base.coords[0] + dx, base.coords[1] + dy))
        else:
            cand = pt(rng.randint(-2, 2), rng.randint(-2, 2))
        if cand.coords in seen:
            dropped += 1
        else:
            seen.add(cand.coords)
            points.append(cand)
    return points, dropped


def test_planar_universe_matches_the_tuple_deduplicating_generator():
    rng = random.Random(44)
    dropped = 0
    for seed in range(60):
        n = rng.choice([rng.randint(4, 10), rng.randint(10, 40), 300])
        old, new = random.Random(seed), random.Random(seed)
        expected, skipped = _planar_points_by_coordinate_tuples(old, n)
        assert list(planar_unit_universe(new, n).points) == expected
        assert new.getstate() == old.getstate()
        dropped += skipped
    assert dropped > 100
