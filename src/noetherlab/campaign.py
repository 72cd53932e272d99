"""Seeded property campaigns over every module's invariants.

One suite = one named trial function; a trial gets its own Random derived
from (seed, suite, index), so reports are byte-identical across runs and
parallelism levels.  Failures carry serialized counterexamples.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, starmap
from typing import Callable, Optional

from . import _kernels
from .coloring import (
    StageChain,
    check_proper,
    check_suitable,
    chromatic_number,
    extend_coloring,
    greedy_coloring,
    k_colorable_fixed_order,
    stitch_colorings,
)
from .coloring_poset import (
    PCondition,
    p_compatible,
    p_leq,
    p_lower_bound,
)
from .control_poset import (
    Location,
    QCondition,
    canonical_location,
    compatible_tail,
    is_at_location,
    liminf_thin,
    predense_check,
    predense_check_reduced,
    predense_reduce,
    q_compatible,
    q_extends,
    ramsey_bound,
    ramsey_compatible_subset,
    reduced_support,
)
from .errors import AmalgamationError, IncompatibilityError, NoetherError
from .generators import (
    GENERATOR_NOTES,
    clustered_line_universe,
    line_universe,
    path_explicit_universe,
    planar_unit_universe,
    random_explicit_universe,
    random_pcondition,
    random_qcondition,
    random_universe,
)
from .geometry import Point, TaggedBox, box_from_index, box_index
from .graphs import (
    SampleUniverse,
    TwoVarPoly,
    adjacent,
    common_neighborhood,
    curve_difference_graph,
    distance_graph,
    explicit_graph,
)
from .hamming import (
    epsilon_matrix,
    make_diagonal_hamming,
    make_uniform_hamming,
    mixed_radix_coloring,
    verify_embedding,
    verify_vitali_homomorphism,
)
from .lattice import good_closure, heart, minimal_subfamily
from .patterns import (
    VariationSpec,
    all_variations,
    find_clique,
    find_variation_prefix,
    homogeneous_guarantee,
    homogeneous_subset,
)

SCHEMA_VERSION = 1

DEFAULT_BOUNDS = {
    "oracle": 24,
    "maxArity": 8,
    "colorBudget": 3,
    "maxPoints": 12,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    bounds: dict = field(default_factory=dict)

    def bound(self, name: str) -> int:
        merged = dict(DEFAULT_BOUNDS)
        merged.update(self.bounds)
        return merged[name]


TrialFn = Callable[[random.Random, RunConfig], tuple[bool, Optional[dict]]]
SUITES: dict[str, TrialFn] = {}


def suite(name: str):
    def register(fn: TrialFn) -> TrialFn:
        SUITES[name] = fn
        return fn

    return register


def _universe_digest(universe: SampleUniverse) -> dict:
    from .serialize import universe_to_json

    return universe_to_json(universe)


# -- graph-kernel suites -------------------------------------------------------

@suite("adjacency-laws")
def _adjacency_laws(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    inst = universe.instance
    for _ in range(10):
        x, y = rng.choice(universe.points), rng.choice(universe.points)
        if adjacent(inst, x, y) != adjacent(inst, y, x):
            return False, {"law": "symmetry", "universe": _universe_digest(universe)}
        if adjacent(inst, x, x):
            return False, {"law": "irreflexivity", "universe": _universe_digest(universe)}
    return True, None


@suite("neighborhood-laws")
def _neighborhood_laws(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    pts = universe.points
    a = frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
    b = frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
    union = common_neighborhood(universe, a | b)
    meet = common_neighborhood(universe, a) & common_neighborhood(universe, b)
    if union != meet:
        return False, {"law": "intersection", "universe": _universe_digest(universe)}
    if a <= b and not common_neighborhood(universe, b) <= common_neighborhood(universe, a):
        return False, {"law": "antitone", "universe": _universe_digest(universe)}
    return True, None


def _pairwise_masks(universe: SampleUniverse) -> list[int]:
    """closed_masks rebuilt from adjacent(), one pair at a time."""
    inst, pts = universe.instance, universe.points
    return [
        sum(1 << j for j, y in enumerate(pts) if j == i or adjacent(inst, x, y))
        for i, x in enumerate(pts)
    ]


_CURVES = (
    {(0, 1): 1, (2, 0): -1},  # v = u^2
    {(2, 0): 1, (0, 2): 1, (0, 0): -1},  # unit circle
    {(0, 1): 1, (1, 0): -2, (0, 0): -1},  # v = 2u + 1
)


def _curve_universe(rng) -> SampleUniverse:
    instance = curve_difference_graph(TwoVarPoly.from_dict(rng.choice(_CURVES)))
    coords = {
        (Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
        for _ in range(rng.randint(2, 12))
    }
    return SampleUniverse(instance, [Point(c) for c in sorted(coords)])


def _rational_distance_universe(rng) -> SampleUniverse:
    """Mixed denominators and squared distances that need not be integers."""
    dim = rng.randint(1, 3)
    squared = [Fraction(rng.randint(1, 8), rng.choice((1, 4, 9))) for _ in range(rng.randint(1, 3))]
    coords = {
        tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
        for _ in range(rng.randint(2, 12))
    }
    return SampleUniverse(distance_graph(dim, squared), [Point(c) for c in sorted(coords)])


@suite("mask-adjacency-agreement")
def _mask_adjacency_agreement(rng, config):
    diagonal = make_diagonal_hamming(rng.randint(2, 4))
    universes = [
        random_universe(rng, config.bound("maxPoints")),
        clustered_line_universe(),
        _curve_universe(rng),
        _rational_distance_universe(rng),
        SampleUniverse(
            diagonal.instance, rng.sample(diagonal.points, k=rng.randint(1, len(diagonal)))
        ),
    ]
    for universe in universes:
        if universe.closed_masks != _pairwise_masks(universe):
            return False, {"universe": _universe_digest(universe)}
    return True, None


@suite("box-enumeration")
def _box_enumeration(rng, config):
    dim = rng.randint(1, 3)
    for _ in range(25):
        idx = rng.randrange(10_000)
        box = box_from_index(dim, idx)
        if box_index(box) != idx:
            return False, {"dim": dim, "index": idx}
    tag = rng.randint(0, 5)
    level = rng.randint(0, 3)
    corners = tuple(rng.randint(-(4**level), 4**level) for _ in range(dim))
    box = TaggedBox(tag=tag, level=level, corners=corners)
    if box_from_index(dim, box_index(box)) != box:
        return False, {"dim": dim, "box": repr(box)}
    return True, None


@suite("no-rational-unit-triangle")
def _no_rational_unit_triangle(rng, config):
    universe = planar_unit_universe(rng, rng.randint(5, 10))
    found = find_clique(universe, 3)
    if found is not None:
        return False, {"clique": [repr(p) for p in found]}
    return True, None


# -- pattern-lab suites ----------------------------------------------------------

def _variation_oracle(universe: SampleUniverse, spec: VariationSpec) -> bool:
    """Brute-force induced-copy decision: all ordered injections, no pruning."""
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


def _plant_variation(rng, spec: VariationSpec, extra: int, edge_p: float) -> SampleUniverse:
    """Explicit graph holding an induced copy of the prefix on its first
    2*depth vertices, padded with random extras (extra edges never touch
    pattern-internal pairs, so the planted copy stays induced)."""
    verts = spec.vertices()
    k = len(verts)
    n = k + extra
    edges = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if spec.has_edge(verts[i], verts[j])
    ]
    for i in range(k, n):
        for j in range(n):
            if j < i and rng.random() < edge_p:
                edges.append((j, i))
    from .graphs import vertex_point

    instance = explicit_graph(n, edges)
    return SampleUniverse(instance, [vertex_point(i) for i in range(n)])


@suite("pattern-oracle")
def _pattern_oracle(rng, config):
    n = rng.randint(6, config.bound("maxPoints"))
    depth = 3 if (n <= 9 and rng.random() < 0.15) else 2
    spec = rng.choice(all_variations(depth))
    if rng.random() < 0.5:
        universe = random_explicit_universe(rng, n, rng.uniform(0.2, 0.6))
    else:
        universe = _plant_variation(rng, spec, n - 2 * depth, rng.uniform(0.1, 0.4))
    witness = find_variation_prefix(universe, spec)
    expected = _variation_oracle(universe, spec)
    if (witness is not None) != expected:
        return False, {
            "spec": repr(spec),
            "detector": witness is not None,
            "oracle": expected,
            "universe": _universe_digest(universe),
        }
    return True, None


@suite("pattern-planted")
def _pattern_planted(rng, config):
    spec = rng.choice(all_variations(5))
    universe = _plant_variation(rng, spec, 40 - 10, rng.uniform(0.1, 0.35))
    witness = find_variation_prefix(universe, spec)
    if witness is None:
        return False, {"spec": repr(spec), "universe": _universe_digest(universe)}
    return True, None


@suite("homogeneous-bound")
def _homogeneous_bound(rng, config):
    n = rng.randint(1, 12)
    colors = rng.randint(1, 4)
    table = {
        (i, j): rng.randrange(colors) for i in range(n) for j in range(i + 1, n)
    }
    subset, color = homogeneous_subset(list(range(n)), lambda i, j: table[(i, j)], colors)
    if len(subset) < homogeneous_guarantee(n, colors):
        return False, {"n": n, "colors": colors, "subset": list(subset)}
    for i, j in combinations(subset, 2):
        if table[(i, j)] != color:
            return False, {"n": n, "colors": colors, "subset": list(subset)}
    return True, None


# -- noetherian-lattice suites ---------------------------------------------------

@suite("lattice-laws")
def _lattice_laws(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    pts = universe.points
    inst = universe.instance
    a = frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
    h = heart(universe, a)
    for x in h:
        for y in h:
            if x != y and not adjacent(inst, x, y):
                return False, {"law": "heart-clique", "universe": _universe_digest(universe)}
    small = frozenset(rng.sample(pts, k=rng.randint(0, min(4, len(pts)))))
    big = small | frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
    cl_small, cl_big = good_closure(universe, small), good_closure(universe, big)
    if not small <= cl_small:
        return False, {"law": "extensive"}
    if not cl_small <= cl_big:
        return False, {"law": "monotone"}
    if good_closure(universe, cl_small) != cl_small:
        return False, {"law": "idempotent"}
    chain_union = cl_small | cl_big
    if good_closure(universe, chain_union) != chain_union:
        return False, {"law": "chain-union-closed"}
    fam = frozenset(rng.sample(pts, k=rng.randint(1, min(5, len(pts)))))
    result = minimal_subfamily(universe, fam)
    if common_neighborhood(universe, result.points) != common_neighborhood(universe, fam):
        return False, {"law": "extent-preservation"}
    again = minimal_subfamily(universe, result.points)
    if again.points != result.points:
        return False, {"law": "minimal-fixpoint"}
    return True, None


@suite("minimal-subfamily-bound")
def _minimal_subfamily_bound(rng, config):
    universe = planar_unit_universe(rng, rng.randint(5, 10))
    fam = frozenset(rng.sample(universe.points, k=rng.randint(1, min(6, len(universe)))))
    result = minimal_subfamily(universe, fam)
    # the algebraic clique-bound constant for n=2, l=2: n * (2^n * l)^n = 128
    if len(result.points) > 128:
        return False, {"size": len(result.points)}
    return True, None


# -- coloring-engine suites ------------------------------------------------------

def _random_stage_chain(rng, universe: SampleUniverse) -> StageChain:
    n = len(universe)
    first = good_closure(
        universe, rng.sample(universe.points, k=rng.randint(1, max(1, n // 3)))
    )
    stages = [first]
    while len(stages[-1]) < n and len(stages) < 4:
        extra = rng.sample(universe.points, k=rng.randint(1, max(1, n // 2)))
        bigger = good_closure(universe, set(stages[-1]) | set(extra))
        if bigger == stages[-1]:
            bigger = good_closure(
                universe,
                set(stages[-1]) | {next(p for p in universe.points if p not in stages[-1])},
            )
        stages.append(bigger)
    colorings = []
    for stage in stages:
        coloring: dict = {}
        for x in sorted(stage, key=universe.index):
            used = {
                coloring[y]
                for y in coloring
                if adjacent(universe.instance, x, y)
            }
            c = 0
            while c in used:
                c += 1
            coloring[x] = c
        colorings.append(coloring)
    return StageChain(tuple(stages), tuple(colorings))


@suite("coloring-constructions")
def _coloring_constructions(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))

    greedy = greedy_coloring(universe)
    if check_suitable(greedy.assignment) or check_proper(universe, greedy.assignment):
        return False, {"op": "greedy", "universe": _universe_digest(universe)}

    p = random_pcondition(rng, universe)
    extended = extend_coloring(universe, p)
    if check_suitable(extended.assignment) or check_proper(universe, extended.assignment):
        return False, {"op": "extend", "universe": _universe_digest(universe)}
    if not p_leq(PCondition(universe, extended.assignment), p):
        return False, {"op": "extend-pleq", "universe": _universe_digest(universe)}

    chain = _random_stage_chain(rng, universe)
    dom0 = sorted(chain.stages[0], key=universe.index)
    sub = rng.sample(dom0, k=rng.randint(0, len(dom0)))
    base = PCondition(universe, {x: greedy.assignment[x] for x in sub})
    stitched = stitch_colorings(universe, chain, base)
    if check_suitable(stitched.assignment) or check_proper(universe, stitched.assignment):
        return False, {"op": "stitch", "universe": _universe_digest(universe)}
    if not p_leq(PCondition(universe, stitched.assignment), base):
        return False, {"op": "stitch-pleq", "universe": _universe_digest(universe)}
    return True, None


@suite("stitch-nongood-experiment")
def _stitch_nongood(rng, config):
    # Open-question experiment: stages not closed under hearts still stitch
    # properly at finite scale, because separating boxes never need goodness.
    universe = random_universe(rng, config.bound("maxPoints"))
    n = len(universe)
    sizes = sorted(rng.sample(range(1, n + 1), k=min(3, n)))
    stages = []
    acc: set = set()
    for s in sizes:
        while len(acc) < s:
            acc.add(rng.choice(universe.points))
        stages.append(frozenset(acc))
    colorings = []
    for stage in stages:
        coloring: dict = {}
        for x in sorted(stage, key=universe.index):
            used = {coloring[y] for y in coloring if adjacent(universe.instance, x, y)}
            c = 0
            while c in used:
                c += 1
            coloring[x] = c
        colorings.append(coloring)
    chain = StageChain(tuple(stages), tuple(colorings))
    stitched = stitch_colorings(universe, chain, None, require_good=False)
    if check_suitable(stitched.assignment) or check_proper(universe, stitched.assignment):
        return False, {"universe": _universe_digest(universe)}
    return True, None


@suite("chromatic-oracle-agreement")
def _chromatic_oracle_agreement(rng, config):
    universe = random_universe(rng, 9)
    chi, coloring = chromatic_number(universe, bound=config.bound("oracle"))
    if check_proper(universe, coloring):
        return False, {"why": "improper-optimal", "universe": _universe_digest(universe)}
    if len(set(coloring.values())) > chi:
        return False, {"why": "too-many-colors"}
    if k_colorable_fixed_order(universe, chi) is None:
        return False, {"why": "chi-not-colorable", "chi": chi}
    if chi > 1 and k_colorable_fixed_order(universe, chi - 1) is not None:
        return False, {"why": "chi-not-minimal", "chi": chi}
    return True, None


# -- poset-sim suites -------------------------------------------------------------

@suite("prop43-equivalence")
def _prop43_equivalence(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    k = rng.randint(1, 4)
    conditions = [random_pcondition(rng, universe) for _ in range(k)]
    x = rng.choice(universe.points)
    compatible = all(
        p_compatible(a, b) for a, b in combinations(conditions, 2)
    )
    try:
        bound = p_lower_bound(conditions, x)
        built = True
    except IncompatibilityError:
        built = False
        bound = None
    except AmalgamationError:
        # cannot happen for the separated conditions this suite draws;
        # treat as a visible equivalence failure if it ever does
        return False, {"why": "amalgamation-gap", "universe": _universe_digest(universe)}
    if built != compatible:
        return False, {
            "pairwise_compatible": compatible,
            "lower_bound_built": built,
            "universe": _universe_digest(universe),
        }
    if built:
        if x not in bound.domain():
            return False, {"why": "x-missing"}
        for c in conditions:
            if not p_leq(bound, c):
                return False, {"why": "pleq-failed"}
    return True, None


_THM59_BOX = TaggedBox(tag=0, level=0, corners=(0,))


@suite("ramsey-thm59")
def _ramsey_thm59(rng, config):
    universe = clustered_line_universe()
    loc = Location((_THM59_BOX,), (0,))
    conditions = [
        QCondition(universe, {rng.choice(universe.points): 0}) for _ in range(6)
    ]
    found = ramsey_compatible_subset(conditions, 3, loc)
    if found is None:
        return False, {
            "selections": [sorted(map(repr, q.assignment)) for q in conditions]
        }
    combo, meet = found
    for i in combo:
        if not q_extends(meet, conditions[i]):
            return False, {"why": "meet-not-below-member"}
    return True, None


@suite("ramsey-centered")
def _ramsey_centered(rng, config):
    # multi-cell variant over the triangle-free clustered line
    universe = clustered_line_universe()
    m = 3
    level2 = [
        TaggedBox(tag=0, level=3, corners=(c,)) for c in (0, 3, 8, 11)
    ]
    cells = tuple(rng.sample(level2, k=rng.randint(1, 2)))
    colors = tuple(rng.randrange(2) for _ in cells)
    try:
        loc = Location(cells, colors)
        loc.validate(universe.instance)
    except NoetherError:
        return True, None  # sampled location invalid; nothing to test
    k = ramsey_bound(m, len(cells))
    conditions = []
    for _ in range(k):
        assignment = {}
        for idx, cell in enumerate(cells):
            members = [p for p in universe.points if _cell_has(cell, p)]
            if not members:
                return True, None
            assignment[rng.choice(members)] = colors[idx]
        if len(assignment) < len(cells):
            return True, None
        q = QCondition(universe, assignment)
        if check_proper(universe, assignment):
            return True, None
        conditions.append(q)
    found = ramsey_compatible_subset(conditions, m, loc)
    if found is None and find_clique(universe, m) is None:
        return False, {"why": "guarantee-violated", "k": k, "cells": len(cells)}
    return True, None


def _cell_has(cell, p) -> bool:
    from .control_poset import cell_contains

    return cell_contains(cell, p)


@suite("liminf-thin")
def _liminf_thin(rng, config):
    universe = path_explicit_universe(10)
    whole = frozenset(universe.points)
    loc = Location((whole,), (0,))
    n_conds = rng.randint(2, 8)
    conditions = [
        QCondition(universe, {rng.choice(universe.points): 0}) for _ in range(n_conds)
    ]
    test_set = rng.sample(universe.points, k=rng.randint(0, 3))
    result = liminf_thin(conditions, loc, test_set)
    if list(result.kept) != sorted(set(result.kept)):
        return False, {"why": "indices-not-increasing"}
    sels = {n: next(iter(conditions[n].assignment)) for n in result.kept}
    for i in result.constant_cells:
        if len({next(iter(conditions[n].assignment)) for n in range(n_conds)}) != 1:
            return False, {"why": "constant-cell-not-constant"}
    for i in result.injective_cells:
        vals = [sels[n] for n in result.kept]
        if len(set(vals)) != len(vals):
            return False, {"why": "injective-cell-collision"}
    inst = universe.instance
    for t in test_set:
        for i in result.injective_cells:
            adj = [n for n in result.kept if adjacent(inst, t, sels[n])]
            if not (len(adj) <= result.threshold or len(adj) == len(result.kept)):
                return False, {"why": "threshold-dichotomy"}
    if result.kept:
        base = conditions[result.kept[0]]
        family = [conditions[n] for n in result.kept]
        tail = compatible_tail(base, base, family)
        for n in range(tail, len(family)):
            if not q_compatible(base, family[n]):
                return False, {"why": "tail-not-compatible"}
        if tail > 0 and q_compatible(base, family[tail - 1]):
            return False, {"why": "tail-not-minimal"}
    return True, None


def _random_predense_setup(rng, config):
    style = rng.choice(["explicit", "line", "path"])
    n = rng.randint(3, 8)
    if style == "explicit":
        universe = random_explicit_universe(rng, n, rng.uniform(0.2, 0.6))
    elif style == "line":
        universe = line_universe(n)
    else:
        universe = path_explicit_universe(n)
    budget = rng.randint(2, config.bound("colorBudget"))
    members = rng.randint(1, 3)
    d = [random_qcondition(rng, universe, budget) for _ in range(members)]
    return universe, d, budget


@suite("predense-equivalence")
def _predense_equivalence(rng, config):
    universe, d, budget = _random_predense_setup(rng, config)
    full = predense_check(d, universe, budget)
    reduced = predense_check_reduced(d, universe, budget, config.bound("maxArity"))
    if full != reduced:
        return False, {
            "full": full,
            "reduced": reduced,
            "universe": _universe_digest(universe),
        }
    return True, None


@suite("budget-clamp")
def _budget_clamp(rng, config):
    # the color-budget clamping argument: max(d)+2 colors already decide
    universe = random_explicit_universe(rng, rng.randint(3, 6), rng.uniform(0.25, 0.6))
    d = [random_qcondition(rng, universe, 2) for _ in range(rng.randint(1, 2))]
    top = max(c for q in d for c in q.assignment.values())
    tight = predense_check(d, universe, top + 2)
    loose = predense_check(d, universe, top + 4)
    if tight != loose:
        return False, {"tight": tight, "loose": loose, "universe": _universe_digest(universe)}
    return True, None


@suite("predense-reduce")
def _predense_reduce(rng, config):
    universe, d, budget = _random_predense_setup(rng, config)
    b_mask, c_mask = reduced_support(d, universe, config.bound("maxArity"))
    pool = universe.ordered_points_of(c_mask)
    if not pool:
        return True, None
    q = None
    for _ in range(60):
        pts = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
        assignment = {x: rng.randrange(budget) for x in pts}
        if check_proper(universe, assignment):
            continue
        cand = QCondition(universe, assignment)
        if all(not q_compatible(cand, s) for s in d):
            q = cand
            break
    if q is None:
        return True, None  # no everywhere-incompatible condition sampled
    loc = canonical_location(q)
    r = predense_reduce(d, q, loc, universe, config.bound("maxArity"))
    if not is_at_location(r, loc):
        return False, {"why": "left-location"}
    return True, None


# -- hamming suites ---------------------------------------------------------------

@suite("vitali-embedding")
def _vitali_embedding(rng, config):
    breadth = rng.randint(1, 4)
    alphabet = rng.randint(2, 3)
    universe = make_uniform_hamming(breadth, alphabet)
    eps = epsilon_matrix(breadth, alphabet)
    report = verify_vitali_homomorphism(universe, eps)
    if not report["passed"]:
        return False, {"stage": "vitali", "report": report}
    emb = verify_embedding(rng.randint(1, 4))
    if not emb["passed"]:
        return False, {"stage": "embedding", "report": emb}
    return True, None


@suite("hamming-chromatic")
def _hamming_chromatic(rng, config):
    breadth = rng.randint(1, 4)
    universe = make_diagonal_hamming(breadth)
    chi, _ = chromatic_number(universe, bound=config.bound("oracle"))
    if chi != breadth:
        return False, {"breadth": breadth, "chi": chi}
    mixed = mixed_radix_coloring(universe)
    if check_proper(universe, mixed):
        return False, {"why": "mixed-radix-improper", "breadth": breadth}
    return True, None


@suite("selftest-mutation")
def _selftest_mutation(rng, config):
    # deliberately corrupted checker: the harness must surface failures
    if rng.random() < 0.4:
        return False, {"note": "deliberate mutation fixture", "roll": "low"}
    return True, None


# -- runner -----------------------------------------------------------------------

def _trial_seed(seed: int, suite_name: str, index: int) -> str:
    return f"{seed}:{suite_name}:{index}"


def run_one(suite_name: str, seed: int, index: int, config: RunConfig):
    rng = random.Random(_trial_seed(seed, suite_name, index))
    ok, info = SUITES[suite_name](rng, config)
    return index, ok, info


def run_campaign(config: RunConfig, suite_names: list[str], jobs: int = 1) -> dict:
    """Execute the named suites; deterministic, order-canonicalized report.

    With ``jobs > 1`` the trials of every suite share one worker pool of
    ``min(jobs, os.cpu_count())`` processes.
    """
    unknown = [s for s in suite_names if s not in SUITES]
    if unknown:
        raise NoetherError(f"unknown suites: {unknown}")
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        pool_context = multiprocessing.Pool(workers)
    else:
        pool_context = nullcontext()
    results = {}
    with pool_context as pool:
        run_all = starmap if pool is None else pool.starmap
        for name in suite_names:
            outcomes = list(
                run_all(run_one, [(name, config.seed, i, config) for i in range(config.trials)])
            )
            outcomes.sort(key=lambda t: t[0])
            failures = [(i, info) for i, ok, info in outcomes if not ok]
            results[name] = {
                "trials": config.trials,
                "passes": config.trials - len(failures),
                "failures": len(failures),
                "counterexamples": [
                    {"trial": i, "detail": info} for i, info in failures[:5]
                ],
            }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "seed": config.seed,
            "trials": config.trials,
            "bounds": dict(sorted(config.bounds.items())),
        },
        "generator_distributions": GENERATOR_NOTES,
        "kernel_backend": _kernels.backend_name(),
        "relative_to_universe": True,
        "suites": results,
        "all_passed": all(r["failures"] == 0 for r in results.values()),
    }


def emit_report(report: dict, path: Optional[str] = None) -> str:
    from .serialize import dump_canonical

    text = dump_canonical(report)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
