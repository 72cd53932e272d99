"""JSON round-trips for instances, universes, boxes, conditions, locations.

Rationals travel as "p/q" strings (plain integers allowed), points as
coordinate arrays, explicit graphs as a vertex count plus edge index
pairs.  Parse errors name the offending field.  Every container is
type-checked before use, so a string never iterates as a list and a list
never answers a key lookup: malformed input raises ParseError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .coloring import PCondition
from .control_poset import Location, QCondition
from .errors import InvalidPointError, LocationError, ParseError, quoted
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
    vertex_point,
)
from .hamming import DEFAULT_SIZE_BOUND


_JSON_TYPES = {dict: "object", list: "array"}

# The largest box level a file may give.  On the largest universes the
# library builds (4096-point line, planar, uniform Hamming and explicit
# samples, the 720-point diagonal Hamming), greedy_coloring emits levels of
# at most 12.  A box of level k has corners |m| <= 4^k, so at this bound a
# corner has at most 617 digits: far below Python's 4300-digit limit for
# printing an int, and cheap in every integer box test.
MAX_BOX_LEVEL = 1024

# The largest exponent a polynomial term may give.  The campaign curves have
# degree at most 2, so 64 leaves a factor of 32.  The mask build evaluates
# u**a once per point pair, at a cost that grows with the digits of u**a: a
# 300-point build on half-integer coordinates in [-20, 20] took 0.052 s at
# exponent 2, 0.085 s at 64, 0.39 s at 1024 and 3.4 s at 4096 (2-vCPU
# host, CPython 3.11).  Without a bound, one 3-point adjacency query at
# exponent 3,000,000 took 28 s.
MAX_POWER = 64

# The most points a curve-difference universe may give.  Its mask build
# makes O(n^2) integer polynomial evaluations: on random points with
# coordinates p/q, |p| <= 80 and q <= 4, a build took 0.17-0.20 s at 512
# points and 0.85 s at 1024 for u^2 + v^2 + uv/3 - 1, 0.22-0.33 s and
# 1.1-1.6 s for u^64 - v, and 22.4 s at 4096 points (2-vCPU host,
# CPython 3.11).  So the other kinds keep DEFAULT_SIZE_BOUND and this kind
# stops at the largest power of two that builds within seconds.
MAX_CURVE_POINTS = 1024

# The most edges an explicit graph may list.  Reading, building and writing
# one costs microseconds per edge: on a 2-vCPU host (CPython 3.11), `gen
# explicit --size 4096` at its default 2.9M edges took 22.5 s and 1.74 GB,
# and `adj` on its file 14.5 s.  In-process, the complete graph on 1448
# vertices (2^20 - 948 edges) took 6.5 s to `gen` and 4.6 s to `adj`, too
# close to a 10 s budget; at this bound the slowest call, `gen` of the
# complete graph on 1024 vertices, takes 3.0 s.
MAX_EXPLICIT_EDGES = 2**19

# The most box cells a location may give.  Validation certifies each pair of
# same-colored boxes edge-free, or on an explicit instance tests each pair
# of boxes for overlap.  With one level-11 box per point of a line, colors
# alternating, it took 0.20-0.22 s at 256 cells, 0.78-0.85 s at 512 and
# 2.4 s at 1024, and `poset liminf` on two conditions there 0.91-0.96 s at
# 512; level-13 boxes on a 4096-vertex path took 0.43 s at 512 and
# 1.3 s at 1024 (two runs each, 2-vCPU host, CPython 3.11).  Vertex-subset
# cells cost one pass over the edges, so they stay unbounded.
MAX_LOCATION_BOXES = 512


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
        raise ParseError(f"{field}: expected an integer, got {quoted(value)}")
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


# A rational string in ASCII digits: "p" or "p/q", with an optional minus
# sign on p only.  No blanks, underscores, exponents, decimal points, plus
# signs or non-ASCII digits, so no malformed text reads as another number.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_from_str(s: Any, field: str = "rational") -> Fraction:
    """A "p/q" string or a JSON integer; floats are refused, not rounded.

    "2/4" reads as 1/2.  A string must match ``-?[0-9]+(/[0-9]+)?`` whole,
    and neither part may pass Python's 4300-digit limit.
    """
    if type(s) is str:
        m = _RATIONAL.fullmatch(s)
        if m is None:
            raise ParseError(
                f"{field}: malformed rational {quoted(s)}"
                " (not of the form -?[0-9]+(/[0-9]+)?)"
            )
        p, q = m.groups()
        try:
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{field}: malformed rational {quoted(s)} ({exc})") from None
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ParseError(f"{field}: expected a rational string or an integer, got {quoted(s)}")


def _each(parse, items: list, field: str) -> list:
    """``parse`` applied to every item, as a list.

    On a ParseError the items are parsed again, each named ``field[i]``, so
    that the index strings are only built for malformed input.
    """
    try:
        return list(map(parse, items))
    except ParseError:
        for i, item in enumerate(items):
            parse(item, f"{field}[{i}]")
        raise


def point_to_json(p: Point) -> list[str]:
    return [rational_to_str(c) for c in p.coords]


def point_from_json(data: Any, field: str = "point") -> Point:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{field}: expected a nonempty coordinate array")
    return Point(tuple(_each(rational_from_str, data, field)))


def box_to_json(b: TaggedBox) -> dict:
    return {"tag": b.tag, "level": b.level, "corners": list(b.corners)}


def box_from_json(data: Any, field: str = "box", dimension: Optional[int] = None) -> TaggedBox:
    expect(data, dict, field)
    corners = require(data, "corners", list, field)
    if dimension is not None and len(corners) != dimension:
        raise ParseError(f"{field}.corners: {len(corners)} corners in dimension {dimension}")
    try:
        tag = expect_int(data["tag"], f"{field}.tag")
        level = expect_int(data["level"], f"{field}.level")
        if level > MAX_BOX_LEVEL:
            raise ParseError(f"{field}.level: {quoted(level)} exceeds the bound {MAX_BOX_LEVEL}")
        return TaggedBox(
            tag=tag,
            level=level,
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
        out["edges"] = [list(e) for e in sorted(instance.edges)]
    return out


def instance_from_json(data: Any) -> GraphInstance:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("instance: missing 'kind'")
    kind = data["kind"]
    try:
        if kind == DISTANCE:
            return distance_graph(
                expect_int(data["dim"], "instance.dim"),
                _each(
                    rational_from_str,
                    require(data, "squared_distances", list, "instance"),
                    "squared_distances",
                ),
            )
        if kind == CURVE_DIFFERENCE:
            terms = {}
            for i, t in enumerate(require(data, "poly", list, "instance")):
                where = f"instance.poly[{i}]"
                powers = require(expect(t, dict, where), "powers", list, where)
                if len(powers) != 2:
                    raise ParseError(f"{where}.powers: expected two exponents")
                i_pow, j_pow = (expect_int(e, f"{where}.powers") for e in powers)
                if max(i_pow, j_pow) > MAX_POWER:
                    raise ParseError(
                        f"{where}.powers: {quoted([i_pow, j_pow])} exceeds the bound {MAX_POWER}"
                    )
                if (i_pow, j_pow) in terms:
                    raise ParseError(f"{where}.powers: [{i_pow}, {j_pow}] repeats an earlier term")
                terms[i_pow, j_pow] = rational_from_str(t["coeff"], f"{where}.coeff")
            return curve_difference_graph(TwoVarPoly.from_dict(terms))
        if kind == HAMMING_UNIFORM:
            return hamming_uniform(
                expect_int(data["breadth"], "instance.breadth"),
                expect_int(data["alphabet"], "instance.alphabet"),
            )
        if kind == HAMMING_DIAGONAL:
            return hamming_diagonal(expect_int(data["breadth"], "instance.breadth"))
        if kind == EXPLICIT:
            edges = require(data, "edges", list, "instance")
            if len(edges) > MAX_EXPLICIT_EDGES:
                raise ParseError(
                    f"instance.edges: {len(edges)} edges exceed the bound {MAX_EXPLICIT_EDGES}"
                )
            edges = _each(_edge, edges, "instance.edges")
            n_vertices = expect_int(data["vertices"], "instance.vertices")
            if not 0 <= n_vertices <= DEFAULT_SIZE_BOUND:
                raise ParseError(
                    f"instance.vertices: {quoted(n_vertices)} is outside 0..{DEFAULT_SIZE_BOUND}"
                )
            return explicit_graph(n_vertices, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"instance ({kind}): {exc}") from None
    raise ParseError(f"instance: unknown kind {quoted(kind)}")


def _edge(data: Any, field: str = "edge") -> list:
    for v in expect(data, list, field):
        expect_int(v, field)
    return data


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
            points = [vertex_point(i) for i in range(instance.n_vertices)]
        else:
            raise ParseError("universe: 'points' required for this kind")
    else:
        expect(raw_points, list, "universe.points")
        bound = MAX_CURVE_POINTS if instance.kind == CURVE_DIFFERENCE else DEFAULT_SIZE_BOUND
        if len(raw_points) > bound:
            raise ParseError(
                f"universe.points: {len(raw_points)} points exceed the bound {bound}"
            )
        points = _each(point_from_json, raw_points, "points")
    try:
        return SampleUniverse(instance, points)
    except InvalidPointError as exc:
        raise ParseError(f"universe: {exc}") from None


def point_at(universe: SampleUniverse, raw: Any, field: str = "index") -> Point:
    """The universe point at a JSON index: an int or a decimal string.

    Negative, out-of-range and non-integer indices raise ParseError, so
    that -1 never wraps around to the last point, and so do strings other
    than ``str(i)``, so that "00", " 1" and "1_0" never alias 0, 1 and 10.
    """
    try:
        i = int(raw) if isinstance(raw, (int, str)) and not isinstance(raw, bool) else None
    except ValueError:
        i = None
    if i is None or str(i) != str(raw):
        raise ParseError(f"{field}: expected an integer index, got {quoted(raw)}")
    if not 0 <= i < len(universe.points):
        raise ParseError(f"{field}: index {i} outside 0..{len(universe.points) - 1}")
    return universe.points[i]


def qcondition_from_json(data: Any, universe: SampleUniverse) -> QCondition:
    raw = require(expect(data, dict, "q-condition"), "assignment", dict, "q-condition")
    assignment = {}
    for i, c in raw.items():
        x = point_at(universe, i, "assignment")
        assignment[x] = expect_int(c, f"q-condition.assignment[{i}]")
        if assignment[x] < 0:
            raise ParseError(f"q-condition.assignment[{i}]: color {quoted(c)} is not a natural")
    return QCondition(universe, assignment)


def pcondition_to_json(p: PCondition) -> dict:
    items = sorted(
        ((p.universe.index(x), box_to_json(b)) for x, b in p.assignment.items())
    )
    return {"assignment": {str(i): b for i, b in items}}


def pcondition_from_json(data: Any, universe: SampleUniverse) -> PCondition:
    raw = require(expect(data, dict, "p-condition"), "assignment", dict, "p-condition")
    dim = universe.instance.dimension
    assignment = {
        point_at(universe, i, "assignment"): box_from_json(b, f"assignment[{i}]", dim)
        for i, b in raw.items()
    }
    return PCondition(universe, assignment)


def location_from_json(data: Any, universe: SampleUniverse) -> Location:
    expect(data, dict, "location")
    raw_colors = require(data, "colors", list, "location")
    raw_cells = require(data, "cells", list, "location")
    boxes = sum(isinstance(cell, dict) and "box" in cell for cell in raw_cells)
    if boxes > MAX_LOCATION_BOXES:
        raise ParseError(
            f"location.cells: {boxes} box cells exceed the bound {MAX_LOCATION_BOXES}"
        )
    cells = []
    for i, cell in enumerate(raw_cells):
        where = f"location.cells[{i}]"
        if "box" in expect(cell, dict, where):
            cells.append(box_from_json(cell["box"], f"cells[{i}]", universe.instance.dimension))
        elif universe.instance.kind != EXPLICIT:
            raise ParseError(f"{where}: vertex cells need an explicit instance")
        else:
            cells.append(
                frozenset(
                    point_at(universe, v, f"cells[{i}]")
                    for v in require(cell, "vertices", list, where)
                )
            )
    colors = tuple(expect_int(c, f"location.colors[{i}]") for i, c in enumerate(raw_colors))
    try:
        return Location(tuple(cells), colors)
    except LocationError as exc:
        raise ParseError(f"location: {exc}") from None


def dump_canonical(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift.

    The text of ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``.
    json's indented encoder is pure Python, so dicts with str keys, lists,
    tuples, str, int, bool and None go through _emit instead; any other
    value, a float or an int key say, falls back to json.dumps.
    """
    out: list[str] = []
    try:
        _emit(data, out, "\n")
    except TypeError:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _emit(data: Any, out: list, newline: str) -> None:
    """Append json.dumps's indented text of ``data`` to ``out``.

    ``newline`` is a newline followed by the indent of the current line.
    Raises TypeError on a value outside the types dump_canonical lists.
    """
    kind = type(data)
    if kind is str:
        out.append(encode_basestring_ascii(data))
    elif kind is int:
        out.append(repr(data))
    elif kind is list or kind is tuple:
        if not data:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in data:
            out.append(sep)
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not data:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(data):
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _emit(data[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif data is None:
        out.append("null")
    elif data is True:
        out.append("true")
    elif data is False:
        out.append("false")
    else:
        raise TypeError(f"{kind.__name__} is not emitted directly")


def _unique_keys(pairs: list, where: str) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"{where}: repeated key {quoted(repeated)}")
    return obj


def read_json(text: str, where: str) -> Any:
    """JSON text as data; malformed text, an overlong integer or a repeated key is a ParseError."""
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(pairs, where))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{where}: invalid JSON: {exc}") from None


def load_path(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_json(fh.read(), path)
    except OSError as exc:  # a missing file, a directory, no permission
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def parse_instance_file(path: str) -> SampleUniverse:
    """Instance file -> universe; the CLI's main input format."""
    data = expect(load_path(path), dict, path)
    if "instance" in data:
        universe = universe_from_json(data)
    else:
        universe = universe_from_json({"instance": data, "points": data.get("points")})
    return universe
