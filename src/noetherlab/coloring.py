"""Constructive colorings by tagged boxes, plus the exact chromatic oracle.

A coloring is a PCondition, a condition of the box-valued coloring poset
(coloring_poset), so a construction compares with p_leq as it stands.

Every construction is deterministic: "first box" always means first in the
canonical box enumeration.  Each public construction re-verifies its output
with the independent properness/suitability checkers before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Mapping, Optional

from . import _kernels
from .errors import (
    InvalidConditionError,
    InvalidStageError,
    OracleBoundError,
    PreconditionError,
    VerificationError,
)
from .geometry import (
    Point,
    TaggedBox,
    box_contains,
    first_box_containing,
    iter_boxes_containing,
)
from .graphs import SampleUniverse, _exact_adjacent
from .lattice import is_good

# The chromatic oracle's size bound: at 24 points an exact chromatic number
# takes milliseconds, and the branch and bound has no work limit past it.
DEFAULT_ORACLE_BOUND = 24


def check_suitable(assignment: Mapping[Point, TaggedBox]) -> list[str]:
    """Violations of suitability (each point inside its own color)."""
    return [
        f"{x} not inside its color {box}"
        for x, box in assignment.items()
        if not box_contains(box, x)
    ]


def check_proper(universe: SampleUniverse, assignment: Mapping) -> list[str]:
    """Violations of properness (adjacent points sharing a color value).

    Only points of one color class can violate properness, so the exact
    coordinate predicate (_exact_adjacent, independent of the masks) runs
    on the pairs inside each class of two or more points; the messages come
    in universe-index order of the pair, as an all-pairs scan would list
    them.  Every point is looked up once, so one outside the universe
    raises UnknownPointError even when it is alone in its class.
    """
    index = universe.index
    classes: dict = {}
    for x, color in assignment.items():
        classes.setdefault(color, []).append((index(x), x))
    instance = universe.instance
    bad = []
    for members in classes.values():
        if len(members) < 2:
            continue
        members.sort()  # by index: distinct points have distinct indices
        for k, (i, x) in enumerate(members):
            for j, y in members[k + 1 :]:
                if _exact_adjacent(instance, x, y):
                    bad.append((i, j, x, y))
    bad.sort()
    return [f"adjacent {x}, {y} share color {assignment[x]}" for _, _, x, y in bad]


@dataclass
class PCondition:
    """Finite partial coloring Point -> TaggedBox over a declared universe."""

    universe: SampleUniverse
    assignment: dict[Point, TaggedBox]

    def domain(self) -> frozenset[Point]:
        return frozenset(self.assignment)

    def __len__(self):
        return len(self.assignment)


def validate_pcondition(p: PCondition, *, require_good: bool = False) -> None:
    """Suitability and properness always; domain goodness only on request.

    The compatibility and ordering criteria are well-defined without
    goodness, and the worked examples rely on that; constructions whose
    correctness argument needs good domains (the lower bound) produce them
    via good_closure themselves.
    """
    for x in p.assignment:
        if x not in p.universe:
            raise InvalidConditionError(f"{x} not in the universe")
    problems = check_suitable(p.assignment) + check_proper(p.universe, p.assignment)
    if problems:
        raise InvalidConditionError("; ".join(problems))
    if require_good and not is_good(p.universe, p.assignment.keys()):
        raise InvalidConditionError("domain is not good relative to the universe")


# One campaign pass asks for the first box around a few hundred distinct
# (point, tag) keys about 1,400 times, and the first box is nearly always
# the answer.  Boxes and points are immutable, so the cache shares them.
@lru_cache(maxsize=4096)
def _first_box(x: Point, tag: Optional[int]) -> TaggedBox:
    """The canonically first box around x of the given tag (any if None)."""
    return first_box_containing(x, tag=tag)


def separating_box(
    universe: SampleUniverse,
    x: Point,
    avoid: Iterable[Point],
    *,
    tag: Optional[int] = None,
    exclude: Iterable[TaggedBox] = (),
) -> TaggedBox:
    """Canonically first box around x containing no avoid-point adjacent to x.

    Optionally constrained to a fixed tag and to boxes outside ``exclude``
    (used for fresh-box injections).  Always terminates: the forbidden
    points are finitely many and distinct from x, and boxes around x shrink
    dyadically.

    The forbidden points are the neighbours of x that lie in ``avoid``, read
    from the neighbour mask of x, so the cost follows the degree of x and
    not the size of ``avoid``: a set or frozenset is used as it is, any
    other iterable is copied first, and an avoid point outside the universe
    is never a neighbour.
    """
    if not isinstance(avoid, (set, frozenset)):
        avoid = frozenset(avoid)
    if x in avoid:
        raise PreconditionError(f"{x} is a member of the avoid set")
    points = universe.points
    forbidden = []
    neighbors = universe.open_masks[universe.index(x)]
    while neighbors:
        low = neighbors & -neighbors
        a = points[low.bit_length() - 1]
        if a in avoid:
            forbidden.append(a)
        neighbors ^= low
    excluded = frozenset(exclude)
    boxes = iter_boxes_containing(x, tag=tag)
    for box in chain((_first_box(x, tag),), islice(boxes, 1, None)):
        if box in excluded:
            continue
        if all(not box_contains(box, a) for a in forbidden):
            return box
    raise AssertionError("unreachable: enumeration yields arbitrarily small boxes")


def greedy_coloring(universe: SampleUniverse) -> PCondition:
    """The greedy suitable coloring in universe order: the extension of the
    empty condition.

    Each point receives the separating box against all earlier points.  The
    order-respecting property (later colors exclude all earlier adjacent
    points) is what relates the box poset to the finite-condition poset
    downstream.
    """
    return extend_coloring(PCondition(universe, {}))


def extend_coloring(p: PCondition) -> PCondition:
    """Total suitable coloring c of p's universe extending p, with c <= p.

    New points are processed in universe order; each new color excludes all
    earlier new points and every dom(p)-point adjacent to it, which is
    exactly the extension requirement of the coloring poset.
    """
    universe = p.universe
    assignment = dict(p.assignment)
    issues = check_suitable(assignment) + check_proper(universe, assignment)
    if issues:
        raise InvalidConditionError("; ".join(issues))
    older = set(assignment)  # dom(p) and the new points colored so far
    for x in universe.points:
        if x in assignment:
            continue
        assignment[x] = separating_box(universe, x, older)
        older.add(x)
    coloring = PCondition(universe, assignment)
    validate_pcondition(coloring)
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
    p: Optional[PCondition] = None,
    *,
    require_good: bool = True,
) -> PCondition:
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
            assignment[x] = separating_box(universe, x, older, tag=tag)
        covered |= stage
    coloring = PCondition(universe, assignment)
    validate_pcondition(coloring)
    return coloring


# -- exact chromatic oracle pair ----------------------------------------------

def chromatic_number(universe: SampleUniverse) -> tuple[int, dict[Point, int]]:
    """Exact chromatic number with a verified optimal coloring.

    Branch and bound with saturation ordering (_kernels); refuses universes
    larger than DEFAULT_ORACLE_BOUND points.
    """
    if len(universe) > DEFAULT_ORACLE_BOUND:
        raise OracleBoundError(
            f"universe size {len(universe)} exceeds bound {DEFAULT_ORACLE_BOUND}"
        )
    chi, colors = _kernels.chromatic_number(universe.open_masks)
    assignment = {p: colors[i] for i, p in enumerate(universe.points)}
    bad = check_proper(universe, assignment)
    if bad:
        raise VerificationError(f"oracle returned improper coloring: {bad}")
    return chi, assignment


def k_colorable_fixed_order(universe: SampleUniverse, k: int) -> Optional[dict[Point, int]]:
    """Independent exhaustive k-colorability decision.

    Deliberately different from the branch-and-bound oracle: fixed universe
    order, first-fit color loop and no saturation heuristics.  Used as the
    second route of the chromatic dual check.
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
    classes = [0] * min(k, n)  # classes[c]: the mask of the points colored c

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        limit = min(used + 1, k)
        for c in range(limit):
            if masks[i] & classes[c]:
                continue
            colors[i] = c
            classes[c] |= 1 << i
            if rec(i + 1, max(used, c + 1)):
                return True
            classes[c] ^= 1 << i
        return False

    if rec(0, 0):
        return {p: colors[i] for i, p in enumerate(universe.points)}
    return None
