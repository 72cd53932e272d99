import os
import random
import subprocess
import sys
import time
from itertools import chain, combinations, permutations
from pathlib import Path

import pytest

from conftest import explicit_universe
from noetherlab import (
    PatternWitness,
    VariationSpec,
    all_variations,
    find_clique,
    find_variation_prefix,
    homogeneous_guarantee,
    homogeneous_subset,
    pt,
)
from noetherlab.campaign import _plant_variation, _variation_oracle, _variation_shapes
import noetherlab
from noetherlab import _kernels, patterns
from noetherlab.errors import InvalidSpecError, OracleBoundError, VerificationError
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


def test_pattern_table_matches_has_edge():
    for depth in range(2, 41):
        for spec in all_variations(depth):
            verts = spec.vertices()
            table = tuple(
                sum(spec.has_edge(a, b) << s for s, b in enumerate(verts)) for a in verts
            )
            assert patterns._edges(spec) == table, spec


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


def test_witness_outside_the_universe_does_not_verify():
    # the mapped points have the right induced subgraph in the unit-distance
    # line, but none of them is a point of the universe
    spec = VariationSpec("half", "anticlique", "anticlique", 2)
    witness = PatternWitness(spec, (pt(10), pt(20), pt(21), pt(30)))
    assert not witness.verify(line_universe(4))
    assert witness.verify(line_universe(31))
    # a mapping longer or shorter than the pattern is no witness either
    u = line_universe(6)
    assert PatternWitness(spec, (pt(0), pt(2), pt(3), pt(5))).verify(u)
    assert not PatternWitness(spec, (pt(0), pt(2), pt(3), pt(5), pt(1))).verify(u)
    assert not PatternWitness(spec, (pt(0), pt(2), pt(3))).verify(u)


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
    # a pattern far larger than the universe is ruled out before its
    # tables are built or cached
    tables = patterns._edges.cache_info().currsize
    started = time.monotonic()
    assert find_variation_prefix(line_universe(3), VariationSpec("half", "clique", "clique", 10**5)) is None
    assert time.monotonic() - started < 0.5
    assert patterns._edges.cache_info().currsize == tables


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


def _injection_oracle(universe, spec):
    """Every ordered injection of the pattern: the reference for _variation_oracle."""
    verts = spec.vertices()
    k = len(verts)
    pts = universe.points
    if k > len(pts):
        return False
    masks = universe.open_masks
    want = [
        [spec.has_edge(verts[i], verts[j]) for j in range(k)] for i in range(k)
    ]
    for image in permutations(range(len(pts)), k):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if bool(masks[image[i]] >> image[j] & 1) != want[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_variation_oracle_matches_the_injection_oracle():
    rng = random.Random(17)
    seen = set()
    for depth in (2, 3):
        k = 2 * depth
        for spec in all_variations(depth):
            universes = [_plant_variation(rng, spec, 0, 0.3), explicit_universe(k - 1, [])]
            for n in range(4, 11) if depth == 2 else (4, 6, 8, 10):
                universes.append(
                    explicit_universe(
                        n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
                    )
                )
                # no copy in an empty or complete graph: the full enumeration,
                # whose cost at n = 10 and depth 3 is left to the random graphs
                if depth == 2 or n < 10:
                    universes.append(explicit_universe(n, []))
                    universes.append(explicit_universe(n, list(combinations(range(n), 2))))
                if n > k:
                    # the planted copy moved off the first vertices
                    planted = _plant_variation(rng, spec, n - k, 0.3)
                    order = rng.sample(range(n), n)
                    edges = [
                        (order[i], order[j])
                        for i in range(n)
                        for j in range(i + 1, n)
                        if planted.open_masks[i] >> j & 1
                    ]
                    universes.append(explicit_universe(n, edges))
            for u in universes:
                expected = _injection_oracle(u, spec)
                assert _variation_oracle(u, spec) == expected, (spec, u.instance.edges)
                seen.add(expected)
    assert seen == {True, False}


def test_relabelling_tables_hold_one_shape_per_coset_of_the_automorphisms():
    # 720 / |Aut| shapes of the six-vertex patterns
    sizes = {
        ("half", "clique", "clique"): 360,
        ("half", "clique", "anticlique"): 360,
        ("half", "anticlique", "clique"): 360,
        ("half", "anticlique", "anticlique"): 180,
        ("threeQuarter", "clique", "clique"): 15,
        ("threeQuarter", "clique", "anticlique"): 120,
        ("threeQuarter", "anticlique", "clique"): 120,
        ("threeQuarter", "anticlique", "anticlique"): 60,
    }
    for spec in all_variations(3):
        assert len(_variation_shapes(spec)) == sizes[spec.family, spec.left, spec.right]


def test_relabelling_table_is_built_once_per_spec():
    spec = all_variations(3)[5]
    u = _plant_variation(random.Random(5), spec, 3, 0.3)
    _variation_oracle(u, spec)
    before = _variation_shapes.cache_info()
    assert _variation_oracle(u, spec)
    after = _variation_shapes.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # the eight variations at depths 2 and 3, and one more spec past them
    for spec in all_variations(2) + all_variations(3) + all_variations(4)[:1]:
        _variation_shapes(spec)
    assert _variation_shapes.cache_info().currsize <= 16


def test_planted_depth5_in_40_vertices():
    rng = random.Random(9)
    spec = VariationSpec("threeQuarter", "clique", "anticlique", 5)
    u = _plant_variation(rng, spec, 30, 0.25)
    assert len(u) == 40
    stats = SearchStats()
    witness = find_variation_prefix(u, spec, stats)
    assert witness is not None and witness.verify(u)
    assert stats.nodes_explored > 0


def _per_vertex_scan(universe, spec):
    """The fixed-order reference: a scan over every unused vertex at every
    level, testing each assigned image bit by bit, that returns the indices
    of the first witness or None."""
    verts = spec.vertices()
    k, n = len(verts), len(universe)
    if k > n:
        return None
    masks = universe.open_masks
    pattern_edges = [[spec.has_edge(verts[i], verts[j]) for j in range(i)] for i in range(k)]
    assignment = []

    def rec():
        i = len(assignment)
        if i == k:
            return tuple(assignment)
        for v in range(n):
            if v in assignment:
                continue
            if any(bool(masks[w] >> v & 1) != pattern_edges[i][j] for j, w in enumerate(assignment)):
                continue
            assignment.append(v)
            found = rec()
            if found is not None:
                return found
            assignment.pop()
        return None

    return rec()


def _circulant(n):
    """C_n(1,2): each i joined to i +- 1 and i +- 2 mod n."""
    return explicit_universe(n, sorted({tuple(sorted((i, (i + o) % n))) for i in range(n) for o in (1, 2)}))


def test_candidate_masks_match_per_vertex_scan():
    rng = random.Random(5)
    universes = [explicit_universe(n, []) for n in (4, 7)]
    universes += [explicit_universe(n, list(combinations(range(n), 2))) for n in (4, 7)]
    # stars plus isolated vertices: below an isolated image, a vertex that
    # must be adjacent to it has no candidate
    universes += [explicit_universe(n, [(0, j) for j in range(1, 6)]) for n in (8, 10)]
    # a perfect matching: every vertex that must meet two images is empty;
    # and its complement, where the completion follows pattern non-edges
    universes.append(explicit_universe(12, [(2 * j, 2 * j + 1) for j in range(6)]))
    universes.append(explicit_universe(12, [(i, j) for i, j in combinations(range(12), 2) if j != i ^ 1]))
    # sparse shapes, where the completion order differs most from the
    # fixed one: paths and circulants C_n(1,2)
    universes += [explicit_universe(n, [(i, i + 1) for i in range(n - 1)]) for n in (6, 9, 12)]
    universes += [_circulant(n) for n in (7, 10, 12)]
    for _ in range(60):
        n = rng.randint(2, 16)
        p = rng.choice([0.15, 0.35, 0.5, 0.65, 0.85])
        universes.append(explicit_universe(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    sweeps = [(u, all_variations(d)) for u in universes
              for d in ((2, 3, 4) if len(u) <= 12 else (2, 3))]
    # the campaign's planted shapes, with the labels shuffled so that the
    # copy is not on the first vertices
    for depth in (2, 3, 4):
        for spec in all_variations(depth):
            planted = _plant_variation(rng, spec, rng.randint(0, 4), rng.uniform(0.1, 0.4))
            n = len(planted)
            label = rng.sample(range(n), n)
            edges = [(label[i], label[j]) for i, j in combinations(range(n), 2)
                     if planted.open_masks[i] >> j & 1]
            sweeps += [(planted, [spec]), (explicit_universe(n, edges), [spec])]
    found = set()
    for u, specs in sweeps:
        for spec in specs:
            witness = find_variation_prefix(u, spec)
            got = None if witness is None else tuple(u.index(x) for x in witness.mapping)
            assert got == _per_vertex_scan(u, spec), (len(u), spec)
            found.add((spec.family, spec.left, spec.right, got is not None))
    # every variation, half anticlique/* with its edgeless vertex (0,0)
    # among them, is both found and ruled out
    assert len(found) == 16


def test_circulant_exhaustion_node_count():
    # C40(1,2) holds no induced threeQuarter anticlique/anticlique prefix of
    # depth 4; the completion search takes exactly this many candidates
    u = _circulant(40)
    stats = SearchStats()
    spec = VariationSpec("threeQuarter", "anticlique", "anticlique", 4)
    assert find_variation_prefix(u, spec, stats) is None
    assert stats.nodes_explored == 440


def test_node_limit_stops_a_search_exactly_past_its_count(monkeypatch):
    # at a limit of the search's own node count it gives the unlimited
    # witness and count; one node less stops it, witness found or not
    rng = random.Random(31)
    universes = [_circulant(12), line_universe(10)]
    for _ in range(6):
        n = rng.randint(8, 16)
        p = rng.choice([0.2, 0.5, 0.8])
        universes.append(explicit_universe(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    found = set()
    for u in universes:
        for depth in (2, 3, 4):
            for spec in all_variations(depth):
                unlimited = SearchStats()
                witness = find_variation_prefix(u, spec, unlimited)
                with monkeypatch.context() as m:
                    m.setattr("noetherlab.errors.NODE_LIMIT", unlimited.nodes_explored)
                    stats = SearchStats()
                    assert find_variation_prefix(u, spec, stats) == witness
                    assert stats == unlimited
                    m.setattr("noetherlab.errors.NODE_LIMIT", unlimited.nodes_explored - 1)
                    with pytest.raises(OracleBoundError):
                        find_variation_prefix(u, spec)
                found.add(witness is not None)
    assert found == {True, False}


def _sparse_edges(n, per_vertex, seed):
    """About per_vertex * n seeded random edges, drawn in O(n)."""
    rng = random.Random(seed)
    edges = set()
    for i in range(n):
        for _ in range(per_vertex):
            j = rng.randrange(n)
            if j != i:
                edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def _size_bound_searches(n=4096):
    """(universe, spec, planted) for every depth-4 variation on an n-point
    line and a sparse n-vertex graph, and on a path and that sparse graph
    with a copy of the spec planted on the top eight indices."""
    path = [(i, i + 1) for i in range(n - 1)]
    sparse = _sparse_edges(n, 2, 7)
    for universe in (line_universe(n), explicit_universe(n, sparse)):
        for spec in all_variations(4):
            yield universe, spec, False
    for spec in all_variations(4):
        verts = spec.vertices()
        top = n - len(verts)
        copy = [(top + i, top + j) for i, j in combinations(range(len(verts)), 2)
                if spec.has_edge(verts[i], verts[j])]
        for edges in (path, sparse):
            yield explicit_universe(n, [e for e in edges if e[1] < top] + copy), spec, True


class _ComplementUniverse:
    """The complement of the n-vertex graph with the given edges, held as
    adjacency masks only: an explicit dense graph on thousands of vertices
    has millions of edges.  It offers what the search and
    ``PatternWitness.verify`` read of a ``SampleUniverse``."""

    def __init__(self, n, non_edges):
        self.points = tuple(range(n))
        self.full_mask = (1 << n) - 1
        self.open_masks = [self.full_mask ^ (1 << i) for i in range(n)]
        for i, j in non_edges:
            self.open_masks[i] &= ~(1 << j)
            self.open_masks[j] &= ~(1 << i)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self.points

    def reference_adjacent(self, a, b):
        return bool(self.open_masks[a] >> b & 1)


def _dense_size_bound_searches(n=2048):
    """(universe, spec, planted) for every depth-4 variation on the
    complements of a perfect matching and of a sparse graph on n vertices,
    plain and with a copy of the spec planted on the top eight indices."""
    for non_edges in ([(i, i + 1) for i in range(0, n, 2)], _sparse_edges(n, 2, 7)):
        for spec in all_variations(4):
            verts = spec.vertices()
            top = n - len(verts)
            copy = [(top + i, top + j) for i, j in combinations(range(len(verts)), 2)
                    if not spec.has_edge(verts[i], verts[j])]
            yield _ComplementUniverse(n, non_edges), spec, False
            yield _ComplementUniverse(n, [e for e in non_edges if e[1] < top] + copy), spec, True


def test_variation_search_within_budget_at_the_size_bound():
    """Each search of ``_size_bound_searches`` and of
    ``_dense_size_bound_searches`` finishes within an acceptance-style
    budget of 10 s, and each planted copy is found."""
    for universe, spec, planted in chain(_size_bound_searches(), _dense_size_bound_searches()):
        universe.open_masks  # the mask build has its own budget test
        started = time.monotonic()
        witness = find_variation_prefix(universe, spec)
        elapsed = time.monotonic() - started
        assert elapsed < 10, f"{spec}, planted={planted}: {elapsed:.1f}s"
        if planted:
            assert witness is not None and witness.verify(universe), spec


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
