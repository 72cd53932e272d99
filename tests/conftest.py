import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from noetherlab import SampleUniverse, distance_graph, explicit_graph, pt, vertex_point


# Strings outside the rational grammar -?[0-9]+(/[0-9]+)?, each of which
# Fraction() alone would read as a number or refuse: underscores, blanks,
# exponents, decimals, a plus sign, a signed denominator, a non-ASCII digit,
# the empty string, a zero denominator, and one digit past Python's limit.
MALFORMED_RATIONALS = [
    "1_0", " 11/1 ", "1e3", "1.5", "+1", "1/-2", "\u0661", "", "1/0", "7" * 4301,
]


def explicit_universe(n, edges):
    return SampleUniverse(explicit_graph(n, edges), [vertex_point(i) for i in range(n)])


def universes_of_every_kind(rng, max_points=12):
    """One seeded random universe per instance kind, in a random point order.

    Distance universes come in 1 to 3 dimensions with mixed denominators, as
    planar unit-distance samples, as the clustered line, whose level-0 box
    around any point holds that point's neighbor, and as a dense line in
    (0, 2), where such a box holds several neighbors.
    """
    from noetherlab.campaign import _curve_universe, _rational_distance_universe
    from noetherlab.generators import (
        clustered_line_universe,
        planar_unit_universe,
        random_explicit_universe,
    )
    from noetherlab.hamming import make_diagonal_hamming, make_uniform_hamming

    full = [
        _rational_distance_universe(rng),
        planar_unit_universe(rng, rng.randint(4, 10)),
        clustered_line_universe(),
        SampleUniverse(
            distance_graph(1, ["1/64", "1/16", "1/4"]), [pt(Fraction(i, 8)) for i in range(1, 16)]
        ),
        _curve_universe(rng),
        make_uniform_hamming(rng.randint(2, 3), rng.randint(2, 3)),
        make_diagonal_hamming(rng.randint(2, 3)),
        random_explicit_universe(rng, rng.randint(3, 10), rng.uniform(0.2, 0.6)),
    ]
    return [
        SampleUniverse(u.instance, rng.sample(u.points, k=rng.randint(1, min(max_points, len(u)))))
        for u in full
    ]


@pytest.fixture
def triangle():
    return explicit_universe(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return explicit_universe(3, [(0, 1), (1, 2)])


@pytest.fixture
def edgeless2():
    return explicit_universe(2, [])
