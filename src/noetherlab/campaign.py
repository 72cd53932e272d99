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
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, starmap
from typing import Callable, Optional

from . import _kernels
from .coloring import (
    StageChain,
    check_proper,
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
    _predense_search,
    budget_clamp,
    canonical_location,
    cell_contains,
    compatible_tail,
    liminf_thin,
    predense_check,
    predense_check_reduced,
    predense_reduce,
    q_compatible,
    ramsey_bound,
    ramsey_compatible_subset,
    reduced_support,
)
from .errors import IncompatibilityError, NoetherError, PreconditionError, quoted
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
    vertex_point,
)
from .hamming import (
    epsilon_matrix,
    make_diagonal_hamming,
    make_uniform_hamming,
    mixed_radix_coloring,
    verify_embedding,
    verify_vitali_homomorphism,
)
from .lattice import good_closure, heart, longest_descent_chain, minimal_subfamily
from .patterns import (
    VariationSpec,
    all_variations,
    find_clique,
    find_variation_prefix,
    homogeneous_guarantee,
    homogeneous_subset,
)
from .serialize import dump_canonical, universe_to_json

SCHEMA_VERSION = 1

DEFAULT_BOUNDS = {
    "colorBudget": 3,
    "maxPoints": 12,
}
# The least value of each bound that every suite's draws accept:
# pattern-oracle draws randint(6, maxPoints), and the predensity suites
# draw randint(2, colorBudget).  RunConfig refuses a lower value.
BOUND_MINIMA = {
    "colorBudget": 2,
    "maxPoints": 6,
}

# The greatest maxPoints: the largest power of two at which the slowest
# trial stays well inside 10 s.  A trial builds a graph of up to maxPoints
# points with O(n^2) exact adjacency work; the slowest of 60 trials took
# 1.5 s at 1024 (mask-adjacency-agreement), of 40 trials 5.8 s at 2048,
# and 20 pattern-oracle trials at 100,000 ran past 280 s (2-vCPU host,
# CPython 3.11).  colorBudget needs no such bound.
MAX_POINTS = 1024


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        # a bound that no suite reads, or one below what the draws accept,
        # would be recorded in the report though it had no effect or broke it
        for name, value in self.bounds.items():
            if name not in DEFAULT_BOUNDS:
                known = ", ".join(DEFAULT_BOUNDS)
                raise PreconditionError(f"bound {quoted(name)}: unknown name (known: {known})")
            least = BOUND_MINIMA[name]
            if not isinstance(value, int) or value < least:
                raise PreconditionError(
                    f"bound {name}: {quoted(value)} is not an integer >= {least}"
                )
            if name == "maxPoints" and value > MAX_POINTS:
                raise PreconditionError(f"bound maxPoints: {value} exceeds the bound {MAX_POINTS}")

    def bound(self, name: str) -> int:
        return self.bounds.get(name, DEFAULT_BOUNDS[name])


TrialFn = Callable[[random.Random, RunConfig], tuple[bool, Optional[dict]]]
SUITES: dict[str, TrialFn] = {}


def suite(name: str):
    def register(fn: TrialFn) -> TrialFn:
        SUITES[name] = fn
        return fn

    return register


# -- graph-kernel suites -------------------------------------------------------

@suite("adjacency-laws")
def _adjacency_laws(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    inst = universe.instance
    for _ in range(10):
        x, y = rng.choice(universe.points), rng.choice(universe.points)
        if adjacent(inst, x, y) != adjacent(inst, y, x):
            return False, {"law": "symmetry", "universe": universe_to_json(universe)}
        if adjacent(inst, x, x):
            return False, {"law": "irreflexivity", "universe": universe_to_json(universe)}
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
        return False, {"law": "intersection", "universe": universe_to_json(universe)}
    if a <= b and not common_neighborhood(universe, b) <= common_neighborhood(universe, a):
        return False, {"law": "antitone", "universe": universe_to_json(universe)}
    return True, None


def _pairwise_masks(universe: SampleUniverse) -> list[int]:
    """closed_masks rebuilt from reference_adjacent(), one pair at a time."""
    pts = universe.points
    return [
        sum(1 << j for j, y in enumerate(pts) if j == i or universe.reference_adjacent(x, y))
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
            return False, {"universe": universe_to_json(universe)}
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

@lru_cache(maxsize=16)
def _variation_shapes(spec: VariationSpec) -> frozenset[int]:
    """Induced-edge shapes of every relabelling sigma of the pattern.

    A shape folds one bit per position pair (a, b), a < b, in
    ``combinations`` order: for sigma the bit is the pattern edge between
    sigma(a) and sigma(b).  The set depends on the spec alone, so it is
    built once per spec per process, on first use; 16 entries hold the
    eight variations at two depths.
    """
    verts = spec.vertices()
    k = len(verts)
    want = [[spec.has_edge(verts[i], verts[j]) for j in range(k)] for i in range(k)]
    pairs = list(combinations(range(k), 2))
    shapes = set()
    for sigma in permutations(range(k)):
        shape = 0
        for a, b in pairs:
            shape = shape << 1 | want[sigma[a]][sigma[b]]
        shapes.add(shape)
    return frozenset(shapes)


def _variation_oracle(universe: SampleUniverse, spec: VariationSpec) -> bool:
    """Brute-force induced-copy decision, no pruning.

    An ordered injection of the pattern is a sorted k-subset together with
    an ordering of it, so every k-subset is tested against the induced-edge
    shapes of every relabelling of the pattern (``_variation_shapes``).  A
    subset's shape folds the edge between its a-th and b-th points for each
    position pair (a, b), a < b, in ``combinations`` order.
    """
    k = len(spec.vertices())
    pairs = list(combinations(range(k), 2))
    shapes = _variation_shapes(spec)
    masks = universe.open_masks
    for subset in combinations(range(len(universe.points)), k):
        shape = 0
        for a, b in pairs:
            shape = shape << 1 | masks[subset[a]] >> subset[b] & 1
        if shape in shapes:
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
        for j in range(i):
            if rng.random() < edge_p:
                edges.append((j, i))
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
            "universe": universe_to_json(universe),
        }
    return True, None


@suite("pattern-planted")
def _pattern_planted(rng, config):
    spec = rng.choice(all_variations(5))
    universe = _plant_variation(rng, spec, 40 - 10, rng.uniform(0.1, 0.35))
    witness = find_variation_prefix(universe, spec)
    if witness is None:
        return False, {"spec": repr(spec), "universe": universe_to_json(universe)}
    return True, None


@suite("homogeneous-bound")
def _homogeneous_bound(rng, config):
    n = rng.randint(1, 12)
    colors = rng.randint(1, 4)
    table = {
        (i, j): rng.randrange(colors) for i in range(n) for j in range(i + 1, n)
    }
    subset, _ = homogeneous_subset(list(range(n)), lambda i, j: table[(i, j)], colors)
    if len(subset) < homogeneous_guarantee(n, colors):
        return False, {"n": n, "colors": colors, "subset": list(subset)}
    return True, None


# -- noetherian-lattice suites ---------------------------------------------------

@suite("lattice-laws")
def _lattice_laws(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    pts = universe.points
    a = frozenset(rng.sample(pts, k=rng.randint(0, min(3, len(pts)))))
    h = heart(universe, a)
    for x in h:
        for y in h:
            if x != y and not universe.reference_adjacent(x, y):
                return False, {"law": "heart-clique", "universe": universe_to_json(universe)}
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
    if not (result.certified and again.certified):
        return False, {"law": "subfamily-certified"}
    return True, None


@suite("minimal-subfamily-bound")
def _minimal_subfamily_bound(rng, config):
    universe = planar_unit_universe(rng, rng.randint(5, 10))
    fam = frozenset(rng.sample(universe.points, k=rng.randint(1, min(6, len(universe)))))
    result = minimal_subfamily(universe, fam)
    if not result.certified:
        return False, {"why": "uncertified", "family": len(fam)}
    # the algebraic clique-bound constant for n=2, l=2: n * (2^n * l)^n = 128
    if len(result.points) > 128:
        return False, {"size": len(result.points)}
    return True, None


def _chain_by_scanning_every_point(universe: SampleUniverse, max_arity: int) -> int:
    """Steps of the longest descent chain, scoring every point in every state."""
    closed = universe.closed_masks
    memo: dict[tuple[int, int], int] = {}

    def steps_from(extent: int, left: int) -> int:
        if (extent, left) not in memo:
            memo[extent, left] = max(
                (steps_from(extent & m, left - 1) + 1
                 for m in closed if left and extent & m != extent),
                default=0,
            )
        return memo[extent, left]

    return steps_from(universe.full_mask, max_arity)


@suite("descent-chain")
def _descent_chain(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))
    max_arity = rng.randint(1, 6)
    chain = longest_descent_chain(universe, max_arity)
    elements = chain.elements
    for prev, nxt in zip(elements, elements[1:]):
        if not nxt.extent < prev.extent:
            return False, {"law": "strict-descent", "universe": universe_to_json(universe)}
        if not prev.generators[0] < nxt.generators[0]:
            return False, {"law": "nested-generators", "universe": universe_to_json(universe)}
    if len(universe) <= 10 and len(chain) - 1 != _chain_by_scanning_every_point(
        universe, max_arity
    ):
        return False, {"law": "longest", "universe": universe_to_json(universe),
                       "max_arity": max_arity, "steps": len(chain) - 1}
    return True, None


# -- coloring-engine suites ------------------------------------------------------

def _first_fit_chain(universe: SampleUniverse, stages) -> StageChain:
    """Each stage colored first-fit in universe order, from the open masks."""
    masks = universe.open_masks
    colorings = []
    for stage in stages:
        classes: list[int] = []  # classes[c]: mask of the points colored c
        coloring = {}
        for i in sorted(map(universe.index, stage)):
            c = next((c for c, m in enumerate(classes) if not masks[i] & m), len(classes))
            if c == len(classes):
                classes.append(0)
            classes[c] |= 1 << i
            coloring[universe.points[i]] = c
        colorings.append(coloring)
    return StageChain(tuple(stages), tuple(colorings))


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
    return _first_fit_chain(universe, stages)


@suite("coloring-constructions")
def _coloring_constructions(rng, config):
    universe = random_universe(rng, config.bound("maxPoints"))

    greedy = greedy_coloring(universe)

    p = random_pcondition(rng, universe)
    extended = extend_coloring(p)
    if not p_leq(extended, p):
        return False, {"op": "extend-pleq", "universe": universe_to_json(universe)}

    chain = _random_stage_chain(rng, universe)
    dom0 = sorted(chain.stages[0], key=universe.index)
    sub = rng.sample(dom0, k=rng.randint(0, len(dom0)))
    base = PCondition(universe, {x: greedy.assignment[x] for x in sub})
    stitched = stitch_colorings(universe, chain, base)
    if not p_leq(stitched, base):
        return False, {"op": "stitch-pleq", "universe": universe_to_json(universe)}
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
    chain = _first_fit_chain(universe, stages)
    stitch_colorings(universe, chain, None, require_good=False)
    return True, None


@suite("chromatic-oracle-agreement")
def _chromatic_oracle_agreement(rng, config):
    universe = random_universe(rng, 9)
    chi, coloring = chromatic_number(universe)
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
    except IncompatibilityError:
        bound = None
    if (bound is not None) != compatible:
        return False, {
            "pairwise_compatible": compatible,
            "lower_bound_built": bound is not None,
            "universe": universe_to_json(universe),
        }
    if bound is not None and x not in bound.domain():
        return False, {"why": "x-missing"}
    return True, None


_THM59_BOX = TaggedBox(tag=0, level=0, corners=(0,))


@suite("ramsey-thm59")
def _ramsey_thm59(rng, config):
    universe = clustered_line_universe()
    loc = Location((_THM59_BOX,), (0,))
    conditions = [
        QCondition(universe, {rng.choice(universe.points): 0}) for _ in range(6)
    ]
    if ramsey_compatible_subset(conditions, 3, loc) is None:
        return False, {
            "selections": [sorted(map(repr, q.assignment)) for q in conditions]
        }
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
    cell_members = [[p for p in universe.points if cell_contains(cell, p)] for cell in cells]
    conditions = []
    for _ in range(k):
        assignment = {}
        for members, color in zip(cell_members, colors):
            if not members:
                return True, None
            assignment[rng.choice(members)] = color
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
    for t in test_set:
        for i in result.injective_cells:
            adj = [n for n in result.kept if universe.reference_adjacent(t, sels[n])]
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
    full = predense_check(d, budget)
    reduced = predense_check_reduced(d, budget)
    if full != reduced:
        return False, {
            "full": full,
            "reduced": reduced,
            "universe": universe_to_json(universe),
        }
    return True, None


@suite("budget-clamp")
def _budget_clamp(rng, config):
    # budget_clamp(d) colors already decide predensity, and predensity never
    # grows with the budget; both on the search without the clamp
    universe, d, _ = _random_predense_setup(rng, config)
    clamp = budget_clamp(d)
    full = universe.full_mask

    def predense(budget):
        return _predense_search(d, budget, full)

    at_clamp, beyond = predense(clamp), predense(clamp + 2)
    if at_clamp != beyond:
        return False, {"clamp": clamp, "at_clamp": at_clamp, "beyond": beyond,
                       "universe": universe_to_json(universe)}
    budget = rng.randint(1, clamp + 1)
    if predense(budget + 1) and not predense(budget):
        return False, {"why": "not-monotone", "budget": budget,
                       "universe": universe_to_json(universe)}
    return True, None


@suite("predense-reduce")
def _predense_reduce(rng, config):
    universe, d, budget = _random_predense_setup(rng, config)
    b_mask, c_mask = reduced_support(d)
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
    predense_reduce(d, q, canonical_location(q))
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
    chi, _ = chromatic_number(universe)
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

def run_one(suite_name: str, seed: int, index: int, config: RunConfig):
    """(ok, info) of trial ``index`` of a suite, from its own seeded rng.

    A trial fails by its own check, or by raising a NoetherError, such as a
    library post-condition that re-verifies its output; info then names the
    error: ``{"raised": <class name>, "message": <its text>}``.
    """
    try:
        return SUITES[suite_name](random.Random(f"{seed}:{suite_name}:{index}"), config)
    except NoetherError as exc:
        return False, {"raised": type(exc).__name__, "message": str(exc)}


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
            # both starmaps return the outcomes in trial order
            trials = [(name, config.seed, i, config) for i in range(config.trials)]
            outcomes = enumerate(run_all(run_one, trials))
            failures = [(i, info) for i, (ok, info) in outcomes if not ok]
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


def emit_report(report: dict) -> str:
    """The canonical text of a campaign report."""
    return dump_canonical(report)
