import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from conftest import explicit_universe
from noetherlab import (
    SampleUniverse,
    TwoVarPoly,
    VariationSpec,
    adjacent,
    all_variations,
    common_neighborhood,
    curve_difference_graph,
    find_bipartite_k2n,
    find_clique,
    find_variation_prefix,
    homogeneous_guarantee,
    homogeneous_subset,
    neighborhood,
    pt,
    vertex_point,
)
from noetherlab.campaign import _plant_variation, _variation_oracle
import noetherlab
from noetherlab import _kernels
from noetherlab.errors import InvalidSpecError, VerificationError
from noetherlab.generators import line_universe, planar_unit_universe
from noetherlab.patterns import SearchStats, max_embedded_depth


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        VariationSpec("half", "anticlique", "anticlique", 1)
    with pytest.raises(InvalidSpecError):
        VariationSpec("quarter", "anticlique", "anticlique", 2)
    assert len(all_variations(2)) == 8


def test_pattern_edges_by_definition():
    half = VariationSpec("half", "anticlique", "clique", 3)
    assert half.has_edge((1, 0), (0, 1))  # cross edge: m < n
    assert not half.has_edge((0, 0), (1, 1))
    assert not half.has_edge((0, 0), (2, 0))  # left anticlique
    assert half.has_edge((0, 1), (2, 1))  # right clique
    tq = VariationSpec("threeQuarter", "anticlique", "anticlique", 3)
    assert tq.has_edge((0, 0), (1, 1)) and tq.has_edge((1, 0), (0, 1))
    assert not tq.has_edge((1, 0), (1, 1))  # m = n


def test_planted_prefix_found_with_identity_witness():
    spec = VariationSpec("half", "anticlique", "anticlique", 3)
    verts = spec.vertices()
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if spec.has_edge(verts[i], verts[j])
    ]
    u = explicit_universe(6, edges)
    witness = find_variation_prefix(u, spec)
    assert witness is not None
    assert [int(p.coords[0]) for p in witness.mapping] == list(range(6))
    assert witness.verify(u)


def test_complete_graph_contains_no_variation():
    k6 = explicit_universe(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    for spec in all_variations(2):
        assert find_variation_prefix(k6, spec) is None


def test_path_has_no_half_prefix():
    p4 = explicit_universe(4, [(0, 1), (1, 2), (2, 3)])
    spec = VariationSpec("half", "anticlique", "anticlique", 2)
    assert find_variation_prefix(p4, spec) is None


def test_edgeless_graph_rejects_cross_edge_patterns():
    empty = explicit_universe(6, [])
    for spec in all_variations(2):
        # every variation truncation has some cross edge or side edge except
        # the fully edgeless one (half, anticlique, anticlique at depth 2 has
        # the single cross edge (1,0)-(0,1)), so the edgeless graph only
        # carries patterns with no edges at all
        verts = spec.vertices()
        has_edge = any(
            spec.has_edge(verts[i], verts[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        found = find_variation_prefix(empty, spec)
        assert (found is None) == has_edge


def test_universe_smaller_than_pattern_returns_none():
    tiny = explicit_universe(3, [(0, 1)])
    assert find_variation_prefix(tiny, VariationSpec("half", "clique", "clique", 2)) is None


def test_detector_vs_bruteforce_oracle():
    rng = random.Random(42)
    for _ in range(80):
        n = rng.randint(5, 10)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        u = explicit_universe(n, edges)
        spec = rng.choice(all_variations(2))
        assert (find_variation_prefix(u, spec) is not None) == _variation_oracle(u, spec)


def test_planted_depth5_in_40_vertices():
    rng = random.Random(9)
    spec = VariationSpec("threeQuarter", "clique", "anticlique", 5)
    u = _plant_variation(rng, spec, 30, 0.25)
    assert len(u) == 40
    stats = SearchStats()
    witness = find_variation_prefix(u, spec, stats)
    assert witness is not None and witness.verify(u)
    assert stats.nodes_explored > 0


def test_noetherian_stress_statistic():
    spec = VariationSpec("half", "anticlique", "anticlique", 2)
    verts_depth4 = VariationSpec("half", "anticlique", "anticlique", 4)
    pattern = verts_depth4.vertices()
    edges = [
        (i, j)
        for i in range(8)
        for j in range(i + 1, 8)
        if verts_depth4.has_edge(pattern[i], pattern[j])
    ]
    u = explicit_universe(8, edges)
    assert max_embedded_depth(u, spec, 6) == 4


def test_find_clique_examples(triangle):
    assert find_clique(triangle, 3) == frozenset(triangle.points)
    line = line_universe(3)
    assert find_clique(line, 2) == frozenset([pt(0), pt(1)])
    assert find_clique(line, 3) is None


def test_find_clique_post_condition_raises(monkeypatch, path3):
    # a kernel that reports the non-edge {0, 2} as a 2-clique
    monkeypatch.setattr(_kernels, "find_clique", lambda masks, m: (0, 2))
    with pytest.raises(VerificationError):
        find_clique(path3, 2)


_BROKEN_KERNEL_UNDER_O = """
import sys
from noetherlab import SampleUniverse, _kernels, explicit_graph, vertex_point
from noetherlab.errors import VerificationError
from noetherlab.patterns import find_clique

if not sys.flags.optimize:
    sys.exit(3)
_kernels.find_clique = lambda masks, m: (0, 2)
path3 = SampleUniverse(explicit_graph(3, [(0, 1), (1, 2)]), [vertex_point(i) for i in range(3)])
try:
    find_clique(path3, 2)
except VerificationError:
    sys.exit(0)
sys.exit(1)
"""


def test_post_condition_survives_python_O():
    package_root = str(Path(noetherlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_KERNEL_UNDER_O],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_rational_unit_triangles_do_not_exist():
    rng = random.Random(1)
    for _ in range(40):
        u = planar_unit_universe(rng, 9)
        assert find_clique(u, 3) is None


def test_k2n_examples():
    k4 = explicit_universe(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    found = find_bipartite_k2n(k4, 2)
    assert found is not None
    (a, b), commons = found
    assert len(commons) == 2 and not commons & {a, b}

    line = line_universe(3)
    (a, b), commons = find_bipartite_k2n(line, 1)
    assert {a, b} == {pt(0), pt(2)} and commons == frozenset([pt(1)])


def test_k2n_parabola_grid_excluded():
    inst = curve_difference_graph(TwoVarPoly.from_dict({(0, 1): 1, (2, 0): -1}))
    grid = SampleUniverse(inst, [pt(i, j) for i in range(5) for j in range(5)])
    assert find_bipartite_k2n(grid, 5) is None
    # independent enumeration of the densest common neighborhood
    best = max(
        len((neighborhood(grid, a) & neighborhood(grid, b)) - {a, b})
        for a, b in combinations(grid.points, 2)
    )
    assert best < 5


def test_k2n_returned_witness_verifies():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(4, 9)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        u = explicit_universe(n, edges)
        found = find_bipartite_k2n(u, 2)
        if found is None:
            continue
        (a, b), commons = found
        for z in commons:
            assert adjacent(u.instance, z, a) and adjacent(u.instance, z, b)


def test_homogeneous_subset_examples():
    # constant coloring keeps everything
    subset, color = homogeneous_subset(list(range(5)), lambda i, j: 1, 3)
    assert subset == (0, 1, 2, 3, 4) and color == 1
    # parity of the sum on {0..5} with 2 colors
    subset, color = homogeneous_subset(list(range(6)), lambda i, j: (i + j) % 2, 2)
    assert subset == (1, 3, 5) and color == 0
    assert len(subset) >= 3
    # singleton is vacuously homogeneous
    subset, color = homogeneous_subset([99], lambda i, j: 0, 2)
    assert subset == (0,) and color is None


def test_homogeneous_guarantee_on_random_colorings():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(1, 14)
        colors = rng.randint(1, 4)
        table = {
            (i, j): rng.randrange(colors)
            for i in range(n)
            for j in range(i + 1, n)
        }
        subset, color = homogeneous_subset(
            list(range(n)), lambda i, j: table[(i, j)], colors
        )
        assert len(subset) >= homogeneous_guarantee(n, colors)
        for i, j in combinations(subset, 2):
            assert table[(i, j)] == color
