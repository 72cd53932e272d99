"""JSON round-trips for instances, universes, boxes, conditions, locations.

Rationals travel as "p/q" strings (plain integers allowed), points as
coordinate arrays, explicit graphs as a vertex count plus edge index
pairs.  Parse errors name the offending field.  Every container is
type-checked before use, so a string never iterates as a list and a list
never answers a key lookup: malformed input raises ParseError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .control_poset import Location, QCondition
from .coloring_poset import PCondition
from .errors import ParseError
from .geometry import Point, TaggedBox
from .graphs import (
    CURVE_DIFFERENCE,
    DISTANCE,
    EXPLICIT,
    HAMMING_DIAGONAL,
    HAMMING_UNIFORM,
    GraphInstance,
    SampleUniverse,
    TwoVarPoly,
    curve_difference_graph,
    distance_graph,
    explicit_graph,
    hamming_diagonal,
    hamming_uniform,
)


_JSON_TYPES = {dict: "object", list: "array"}


def expect(value: Any, kind: type, field: str) -> Any:
    """``value`` if it is a JSON object (dict) or array (list), else ParseError."""
    if not isinstance(value, kind):
        raise ParseError(
            f"{field}: expected a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


def require(data: dict, key: str, kind: type, field: str) -> Any:
    """``data[key]``, which must be present and a JSON object or array."""
    if key not in data:
        raise ParseError(f"{field}: missing {key!r}")
    return expect(data[key], kind, f"{field}.{key}")


def expect_int(value: Any, field: str) -> int:
    """``value`` if it is a JSON integer, else ParseError.

    Booleans, floats and numeric strings are refused rather than coerced,
    so ``1.5`` never reads as 1 and ``"2"`` never reads as 2.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{field}: expected an integer, got {value!r}")
    return value


def optional_int(data: dict, key: str, default: Optional[int], field: str) -> Optional[int]:
    """``data[key]`` as a JSON integer; ``default`` when the key is absent.

    null is accepted only where the default itself is None.
    """
    if key not in data or data[key] is None and default is None:
        return default
    return expect_int(data[key], f"{field}.{key}")


def rational_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rational_from_str(s: Any, field: str = "rational") -> Fraction:
    """A "p/q" string or a JSON integer; floats are refused, not rounded."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(f"{field}: expected a rational string or an integer, got {s!r}")
    try:
        q = Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field}: malformed rational {s!r} ({exc})") from None
    return q


def point_to_json(p: Point) -> list[str]:
    return [rational_to_str(c) for c in p.coords]


def point_from_json(data: Any, field: str = "point") -> Point:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{field}: expected a nonempty coordinate array")
    return Point(tuple(rational_from_str(c, f"{field}[{i}]") for i, c in enumerate(data)))


def box_to_json(b: TaggedBox) -> dict:
    return {"tag": b.tag, "level": b.level, "corners": list(b.corners)}


def box_from_json(data: Any, field: str = "box") -> TaggedBox:
    expect(data, dict, field)
    corners = require(data, "corners", list, field)
    try:
        return TaggedBox(
            tag=expect_int(data["tag"], f"{field}.tag"),
            level=expect_int(data["level"], f"{field}.level"),
            corners=tuple(
                expect_int(m, f"{field}.corners[{i}]") for i, m in enumerate(corners)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{field}: malformed box ({exc})") from None


def instance_to_json(instance: GraphInstance) -> dict:
    out: dict[str, Any] = {"kind": instance.kind}
    if instance.kind == DISTANCE:
        out["dim"] = instance.dimension
        out["squared_distances"] = sorted(
            (rational_to_str(s) for s in instance.squared_distances),
            key=lambda s: Fraction(s),
        )
    elif instance.kind == CURVE_DIFFERENCE:
        out["dim"] = 2
        out["poly"] = [
            {"powers": [i, j], "coeff": rational_to_str(c)}
            for (i, j), c in instance.poly.terms
        ]
    elif instance.kind == HAMMING_UNIFORM:
        out["breadth"] = instance.dimension
        out["alphabet"] = instance.alphabet
    elif instance.kind == HAMMING_DIAGONAL:
        out["breadth"] = instance.dimension
    elif instance.kind == EXPLICIT:
        out["vertices"] = instance.n_vertices
        out["edges"] = sorted(sorted(e) for e in instance.edges)
    return out


def instance_from_json(data: Any) -> GraphInstance:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("instance: missing 'kind'")
    kind = data["kind"]
    try:
        if kind == DISTANCE:
            return distance_graph(
                expect_int(data["dim"], "instance.dim"),
                [
                    rational_from_str(s, f"squared_distances[{i}]")
                    for i, s in enumerate(
                        require(data, "squared_distances", list, "instance")
                    )
                ],
            )
        if kind == CURVE_DIFFERENCE:
            terms = {}
            for i, t in enumerate(require(data, "poly", list, "instance")):
                where = f"instance.poly[{i}]"
                powers = require(expect(t, dict, where), "powers", list, where)
                if len(powers) != 2:
                    raise ParseError(f"{where}.powers: expected two exponents")
                i_pow, j_pow = (expect_int(e, f"{where}.powers") for e in powers)
                terms[i_pow, j_pow] = rational_from_str(t["coeff"], "poly coeff")
            return curve_difference_graph(TwoVarPoly.from_dict(terms))
        if kind == HAMMING_UNIFORM:
            return hamming_uniform(
                expect_int(data["breadth"], "instance.breadth"),
                expect_int(data["alphabet"], "instance.alphabet"),
            )
        if kind == HAMMING_DIAGONAL:
            return hamming_diagonal(expect_int(data["breadth"], "instance.breadth"))
        if kind == EXPLICIT:
            edges = []
            for i, e in enumerate(require(data, "edges", list, "instance")):
                where = f"instance.edges[{i}]"
                edges.append(tuple(expect_int(v, where) for v in expect(e, list, where)))
            return explicit_graph(expect_int(data["vertices"], "instance.vertices"), edges)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"instance ({kind}): {exc}") from None
    raise ParseError(f"instance: unknown kind {kind!r}")


def universe_to_json(universe: SampleUniverse) -> dict:
    return {
        "instance": instance_to_json(universe.instance),
        "points": [point_to_json(p) for p in universe.points],
    }


def universe_from_json(data: Any) -> SampleUniverse:
    if not isinstance(data, dict):
        raise ParseError("universe: expected an object")
    instance = instance_from_json(data.get("instance"))
    raw_points = data.get("points")
    if raw_points is None:
        if instance.kind == EXPLICIT:
            from .graphs import vertex_point

            points = [vertex_point(i) for i in range(instance.n_vertices)]
        else:
            raise ParseError("universe: 'points' required for this kind")
    else:
        points = [
            point_from_json(p, f"points[{i}]")
            for i, p in enumerate(expect(raw_points, list, "universe.points"))
        ]
    try:
        return SampleUniverse(instance, points)
    except Exception as exc:
        raise ParseError(f"universe: {exc}") from None


def point_at(universe: SampleUniverse, raw: Any, field: str = "index") -> Point:
    """The universe point at a JSON index: an int or a decimal string.

    Negative, out-of-range and non-integer indices raise ParseError, so
    that -1 never wraps around to the last point.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ParseError(f"{field}: expected an integer index, got {raw!r}")
    try:
        i = int(raw)
    except ValueError:
        raise ParseError(f"{field}: expected an integer index, got {raw!r}") from None
    if not 0 <= i < len(universe.points):
        raise ParseError(f"{field}: index {i} outside 0..{len(universe.points) - 1}")
    return universe.points[i]


def qcondition_to_json(q: QCondition) -> dict:
    items = sorted(
        ((q.universe.index(x), c) for x, c in q.assignment.items())
    )
    return {"assignment": {str(i): c for i, c in items}}


def qcondition_from_json(data: Any, universe: SampleUniverse) -> QCondition:
    raw = require(expect(data, dict, "q-condition"), "assignment", dict, "q-condition")
    assignment = {
        point_at(universe, i, "assignment"): expect_int(c, f"q-condition.assignment[{i}]")
        for i, c in raw.items()
    }
    return QCondition(universe, assignment)


def pcondition_to_json(p: PCondition) -> dict:
    items = sorted(
        ((p.universe.index(x), box_to_json(b)) for x, b in p.assignment.items())
    )
    return {"assignment": {str(i): b for i, b in items}}


def pcondition_from_json(data: Any, universe: SampleUniverse) -> PCondition:
    raw = require(expect(data, dict, "p-condition"), "assignment", dict, "p-condition")
    try:
        assignment = {
            point_at(universe, i, "assignment"): box_from_json(b, f"assignment[{i}]")
            for i, b in raw.items()
        }
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"p-condition: {exc}") from None
    return PCondition(universe, assignment)


def location_to_json(loc: Location, universe: SampleUniverse) -> dict:
    cells = []
    for cell in loc.cells:
        if isinstance(cell, TaggedBox):
            cells.append({"box": box_to_json(cell)})
        else:
            cells.append({"vertices": sorted(universe.index(p) for p in cell)})
    return {"cells": cells, "colors": list(loc.colors)}


def location_from_json(data: Any, universe: SampleUniverse) -> Location:
    expect(data, dict, "location")
    colors = require(data, "colors", list, "location")
    try:
        cells = []
        for i, cell in enumerate(require(data, "cells", list, "location")):
            where = f"location.cells[{i}]"
            if "box" in expect(cell, dict, where):
                cells.append(box_from_json(cell["box"], f"cells[{i}]"))
            else:
                cells.append(
                    frozenset(
                        point_at(universe, v, f"cells[{i}]")
                        for v in require(cell, "vertices", list, where)
                    )
                )
        return Location(
            tuple(cells),
            tuple(expect_int(c, f"location.colors[{i}]") for i, c in enumerate(colors)),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"location: {exc}") from None


def dump_canonical(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_path(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def parse_instance_file(path: str) -> tuple[GraphInstance, SampleUniverse]:
    """Instance file -> (instance, universe); the CLI's main input format."""
    data = expect(load_path(path), dict, path)
    if "instance" in data:
        universe = universe_from_json(data)
    else:
        universe = universe_from_json({"instance": data, "points": data.get("points")})
    return universe.instance, universe
