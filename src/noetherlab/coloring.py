"""Constructive colorings by tagged boxes, plus the exact chromatic oracle.

Every construction is deterministic: "first box" always means first in the
canonical box enumeration.  Each public construction re-verifies its output
with the independent properness/suitability checkers before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import _kernels
from .errors import (
    InvalidConditionError,
    InvalidStageError,
    OracleBoundError,
    PreconditionError,
)
from .geometry import Point, TaggedBox, box_contains, iter_boxes_containing
from .graphs import SampleUniverse, adjacent
from .lattice import is_good

DEFAULT_ORACLE_BOUND = 20


def check_suitable(assignment: Mapping[Point, TaggedBox]) -> list[str]:
    """Violations of suitability (each point inside its own color)."""
    return [
        f"{x} not inside its color {box}"
        for x, box in assignment.items()
        if not box_contains(box, x)
    ]


def check_proper(universe: SampleUniverse, assignment: Mapping) -> list[str]:
    """Violations of properness (adjacent points sharing a color value)."""
    points = sorted(assignment, key=universe.index)
    bad = []
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            if assignment[x] == assignment[y] and adjacent(universe.instance, x, y):
                bad.append(f"adjacent {x}, {y} share color {assignment[x]}")
    return bad


@dataclass
class SuitableColoring:
    """Partial coloring by tagged boxes: proper, and each x lies in c(x)."""

    universe: SampleUniverse
    assignment: dict[Point, TaggedBox]

    def validate(self) -> None:
        problems = check_suitable(self.assignment) + check_proper(
            self.universe, self.assignment
        )
        if problems:
            raise InvalidConditionError("; ".join(problems))

    def domain(self) -> frozenset[Point]:
        return frozenset(self.assignment)


def separating_box(
    universe: SampleUniverse,
    x: Point,
    avoid: Iterable[Point],
    within: Optional[TaggedBox] = None,
    *,
    tag: Optional[int] = None,
    exclude: Iterable[TaggedBox] = (),
) -> TaggedBox:
    """Canonically first box around x containing no avoid-point adjacent to x.

    Optionally constrained to a fixed tag, to sub-boxes of ``within``, and
    to boxes outside ``exclude`` (used for fresh-box injections).  Always
    terminates: the forbidden points are finitely many and distinct from x,
    and boxes around x shrink dyadically.
    """
    avoid = frozenset(avoid)
    if x in avoid:
        raise PreconditionError(f"{x} is a member of the avoid set")
    if within is not None and not box_contains(within, x):
        raise PreconditionError("within-box does not contain x")
    neighbors = universe.open_masks[universe.index(x)]
    forbidden = [a for a in avoid if neighbors >> universe.index(a) & 1]
    excluded = frozenset(exclude)
    for box in iter_boxes_containing(x, tag=tag, within=within):
        if box in excluded:
            continue
        if all(not box_contains(box, a) for a in forbidden):
            return box
    raise AssertionError("unreachable: enumeration yields arbitrarily small boxes")


def greedy_coloring(
    universe: SampleUniverse,
    constraints: Optional[Mapping[Point, TaggedBox]] = None,
) -> SuitableColoring:
    """The greedy suitable coloring in universe order.

    Each point receives the separating box against all earlier points,
    inside its constraint box when one is given.  The order-respecting
    property (later colors exclude all earlier adjacent points) is what
    relates the box poset to the finite-condition poset downstream.
    """
    constraints = dict(constraints or {})
    for x, box in constraints.items():
        if not box_contains(box, x):
            raise PreconditionError(f"constraint box for {x} does not contain it")
    assignment: dict[Point, TaggedBox] = {}
    earlier: list[Point] = []
    for x in universe.points:
        assignment[x] = separating_box(
            universe, x, earlier, within=constraints.get(x)
        )
        earlier.append(x)
    coloring = SuitableColoring(universe, assignment)
    coloring.validate()
    return coloring


def extend_coloring(universe: SampleUniverse, p) -> SuitableColoring:
    """Total suitable coloring extending the condition p, with c <= p.

    New points are processed in universe order; each new color excludes all
    earlier new points and every dom(p)-point adjacent to it, which is
    exactly the extension requirement of the coloring poset.
    """
    base = dict(p.assignment)
    issues = check_suitable(base) + check_proper(universe, base)
    if issues:
        raise InvalidConditionError("; ".join(issues))
    dom = set(base)
    assignment = dict(base)
    earlier_new: list[Point] = []
    for x in universe.points:
        if x in dom:
            continue
        assignment[x] = separating_box(universe, x, list(dom) + earlier_new)
        earlier_new.append(x)
    coloring = SuitableColoring(universe, assignment)
    coloring.validate()
    return coloring


@dataclass
class StageChain:
    """Nested stages with per-stage proper colorings into the naturals."""

    stages: tuple[frozenset[Point], ...]
    stage_colorings: tuple[dict[Point, int], ...]

    def validate(self, universe: SampleUniverse, require_good: bool = True) -> None:
        if not self.stages or len(self.stages) != len(self.stage_colorings):
            raise InvalidStageError("stages and colorings must align and be nonempty")
        for i, (stage, coloring) in enumerate(zip(self.stages, self.stage_colorings)):
            if i and not self.stages[i - 1] < stage:
                raise InvalidStageError(f"stage {i} does not strictly extend stage {i-1}")
            if set(coloring) != set(stage):
                raise InvalidStageError(f"stage {i} coloring domain mismatch")
            if check_proper(universe, coloring):
                raise InvalidStageError(f"stage {i} coloring is not proper")
            if require_good and not is_good(universe, stage):
                raise InvalidStageError(f"stage {i} is not good relative to the universe")


def stitch_colorings(
    universe: SampleUniverse,
    chain: StageChain,
    p=None,
    *,
    require_good: bool = True,
) -> SuitableColoring:
    """Stitch a chain of stage colorings into one suitable coloring below p.

    A point keeps p's color on dom(p); otherwise, with a the least stage
    containing it, it gets the first box of tag c_a(x) around it that
    excludes every adjacent point of dom(p) and of all earlier stages.
    Properness decomposes into the same-stage case (tags differ) and the
    cross-stage case (later box excludes the earlier point).
    """
    chain.validate(universe, require_good=require_good)
    base: dict[Point, TaggedBox] = dict(p.assignment) if p is not None else {}
    if check_suitable(base) or check_proper(universe, base):
        raise InvalidConditionError("base condition is not suitable/proper")
    dom_p = set(base)
    if not dom_p <= set(chain.stages[0]):
        raise PreconditionError("dom(p) must be contained in the first stage")
    assignment: dict[Point, TaggedBox] = dict(base)
    covered: set[Point] = set()
    for alpha, stage in enumerate(chain.stages):
        older = frozenset(dom_p) | frozenset(covered)
        for x in sorted(stage - covered, key=universe.index):
            if x in dom_p:
                continue
            tag = chain.stage_colorings[alpha][x]
            assignment[x] = separating_box(universe, x, older - {x}, tag=tag)
        covered |= stage
    coloring = SuitableColoring(universe, assignment)
    coloring.validate()
    return coloring


# -- exact chromatic oracle pair ----------------------------------------------

def chromatic_number(
    universe: SampleUniverse, *, bound: int = DEFAULT_ORACLE_BOUND
) -> tuple[int, dict[Point, int]]:
    """Exact chromatic number with a verified optimal coloring.

    Branch-and-bound behind the kernel backend; refuses universes larger
    than the configured oracle bound.
    """
    if len(universe) > bound:
        raise OracleBoundError(f"universe size {len(universe)} exceeds bound {bound}")
    chi, colors = _kernels.chromatic_number(universe.open_masks)
    assignment = {p: colors[i] for i, p in enumerate(universe.points)}
    bad = check_proper(universe, assignment)
    if bad:
        raise AssertionError(f"oracle returned improper coloring: {bad}")
    return chi, assignment


def k_colorable_fixed_order(universe: SampleUniverse, k: int) -> Optional[dict[Point, int]]:
    """Independent exhaustive k-colorability decision.

    Deliberately different from the branch-and-bound oracle: fixed universe
    order, first-fit color loop, no saturation heuristics and no clique
    bound.  Used as the second route of the chromatic dual check.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = len(universe)
    if n == 0:
        return {}
    if k == 0:
        return None
    masks = universe.open_masks
    colors = [-1] * n

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        limit = min(used + 1, k)
        for c in range(limit):
            conflict = False
            m = masks[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if j < i and colors[j] == c:
                    conflict = True
                    break
            if conflict:
                continue
            colors[i] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            colors[i] = -1
        return False

    if rec(0, 0):
        return {p: colors[i] for i, p in enumerate(universe.points)}
    return None
