"""Batch front end: parse instances, dispatch operations, run campaigns.

Exit codes: 0 success, 1 property/verification failure, 2 usage or parse
error.  All inputs and outputs are JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import campaign as campaign_mod
from .coloring import check_proper, check_suitable, chromatic_number, greedy_coloring
from .control_poset import (
    liminf_thin,
    predense_check,
    predense_check_reduced,
    q_compatible,
    ramsey_bound,
    ramsey_compatible_subset,
)
from .coloring_poset import p_compatible, p_lower_bound
from .errors import NoetherError, ParseError
from .geometry import Point
from .generators import (
    clustered_line_universe,
    line_universe,
    planar_unit_universe,
    random_explicit_universe,
)
from .graphs import adjacent, common_neighborhood, neighborhood
from .hamming import (
    epsilon_matrix,
    geometric_epsilon_sequence,
    make_diagonal_hamming,
    make_uniform_hamming,
    sigma_bounded_check,
    verify_embedding,
    verify_vitali_homomorphism,
)
from .lattice import good_closure, heart, longest_descent_chain, minimal_subfamily
from .patterns import SearchStats, VariationSpec, find_variation_prefix, max_embedded_depth
from .serialize import (
    dump_canonical,
    expect,
    load_path,
    location_from_json,
    parse_instance_file,
    pcondition_from_json,
    point_at,
    point_from_json,
    point_to_json,
    optional_int,
    qcondition_from_json,
    require,
    universe_to_json,
    box_to_json,
    pcondition_to_json,
)


def _emit(data, out: Optional[str]) -> None:
    text = dump_canonical(data)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.family == "line":
        universe = line_universe(args.size)
    elif args.family == "clustered-line":
        universe = clustered_line_universe()
    elif args.family == "planar":
        universe = planar_unit_universe(rng, args.size)
    elif args.family == "explicit":
        universe = random_explicit_universe(rng, args.size, args.edge_probability)
    elif args.family == "hamming-diagonal":
        universe = make_diagonal_hamming(args.size)
    else:
        universe = make_uniform_hamming(args.size, args.alphabet)
    _emit(universe_to_json(universe), args.out)
    return 0


def _cmd_adj(args) -> int:
    instance, universe = parse_instance_file(args.instance)
    if args.x is not None and args.y is not None:
        x = _point_arg(args.x, "--x")
        y = _point_arg(args.y, "--y")
        _emit({"adjacent": adjacent(instance, x, y)}, args.out)
        return 0
    if args.x is not None:
        x = _point_arg(args.x, "--x")
        nbrs = neighborhood(universe, x)
        _emit(
            {"neighborhood": sorted(point_to_json(p) for p in nbrs)},
            args.out,
        )
        return 0
    pts = [point_at(universe, i, "--indices") for i in args.indices]
    _emit(
        {
            "common_neighborhood": sorted(
                point_to_json(p) for p in common_neighborhood(universe, pts)
            ),
            "relative_to_universe": True,
        },
        args.out,
    )
    return 0


def _point_arg(raw: str, flag: str) -> Point:
    """A point given on the command line as a JSON array of rationals."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{flag}: invalid JSON: {exc.msg}") from None
    return point_from_json(data, flag)


def _cmd_detect(args) -> int:
    _, universe = parse_instance_file(args.instance)
    spec = VariationSpec(args.family, args.left, args.right, args.depth)
    stats = SearchStats()
    witness = find_variation_prefix(universe, spec, stats)
    report = {
        "pattern": {
            "family": spec.family,
            "left": spec.left,
            "right": spec.right,
            "depth": spec.depth,
        },
        "witness": None
        if witness is None
        else [point_to_json(p) for p in witness.mapping],
        "nodes_explored": stats.nodes_explored,
    }
    if args.stress:
        report["max_embedded_depth"] = max_embedded_depth(universe, spec, args.depth)
    _emit(report, args.out)
    return 0


def _cmd_lattice(args) -> int:
    _, universe = parse_instance_file(args.instance)
    if not universe.points:
        raise ParseError(f"{args.instance}: the universe has no points to sample")
    rng = random.Random(args.seed)
    chain = longest_descent_chain(universe, max_arity=args.bounds.get("maxArity", 4))
    closure_sizes = []
    subfamily_sizes: dict[int, int] = {}
    heart_sizes = []
    for _ in range(args.trials):
        sample = rng.sample(universe.points, k=rng.randint(1, min(4, len(universe))))
        closure_sizes.append(len(good_closure(universe, sample)))
        heart_sizes.append(len(heart(universe, sample)))
        size = len(minimal_subfamily(universe, sample).points)
        subfamily_sizes[size] = subfamily_sizes.get(size, 0) + 1
    _emit(
        {
            "descent_chain_length": len(chain),
            "descent_chain_certified": chain.certified,
            "descent_extent_sizes": [len(e.extent) for e in chain.elements],
            "closure_sizes": closure_sizes,
            "heart_sizes": heart_sizes,
            "minimal_subfamily_histogram": {
                str(k): v for k, v in sorted(subfamily_sizes.items())
            },
            "relative_to_universe": True,
        },
        args.out,
    )
    return 0


def _cmd_color(args) -> int:
    _, universe = parse_instance_file(args.instance)
    if args.verb == "make":
        coloring = greedy_coloring(universe)
        payload = {
            "assignment": {
                str(universe.index(x)): box_to_json(b)
                for x, b in coloring.assignment.items()
            }
        }
        _emit(payload, args.out)
        return 0
    if args.verb == "chi":
        chi, _ = chromatic_number(universe, bound=args.bounds.get("oracle", 24))
        _emit({"chromatic_number": chi}, args.out)
        return 0
    data = load_path(args.file)
    p = pcondition_from_json(data, universe)
    problems = check_suitable(p.assignment) + check_proper(universe, p.assignment)
    _emit({"valid": not problems, "problems": problems}, args.out)
    return 0 if not problems else 1


def _cmd_poset(args) -> int:
    _, universe = parse_instance_file(args.instance)
    data = expect(load_path(args.file), dict, args.file)
    raw_conditions = require(data, "conditions", list, args.file)
    if args.verb == "compat":
        if args.kind == "p":
            conds = [pcondition_from_json(c, universe) for c in raw_conditions]
            ok = all(
                p_compatible(a, b)
                for i, a in enumerate(conds)
                for b in conds[i + 1 :]
            )
        else:
            conds = [qcondition_from_json(c, universe) for c in raw_conditions]
            ok = all(
                q_compatible(a, b)
                for i, a in enumerate(conds)
                for b in conds[i + 1 :]
            )
        _emit({"pairwise_compatible": ok}, args.out)
        return 0
    if args.verb == "lower-bound":
        conds = [pcondition_from_json(c, universe) for c in raw_conditions]
        x = None
        if "point" in data:
            x = point_at(universe, data["point"], "point")
        try:
            bound = p_lower_bound(conds, x, universe=universe)
        except NoetherError as exc:
            _emit({"built": False, "error": str(exc)}, args.out)
            return 1
        _emit({"built": True, "bound": pcondition_to_json(bound)}, args.out)
        return 0
    if args.verb == "ramsey":
        loc = location_from_json(require(data, "location", dict, args.file), universe)
        conds = [qcondition_from_json(c, universe) for c in raw_conditions]
        m = optional_int(data, "m", 3, args.file)
        found = ramsey_compatible_subset(conds, m, loc)
        _emit(
            {
                "bound": ramsey_bound(m, len(loc.cells)),
                "subset": None if found is None else list(found[0]),
            },
            args.out,
        )
        return 0
    if args.verb == "liminf":
        loc = location_from_json(require(data, "location", dict, args.file), universe)
        conds = [qcondition_from_json(c, universe) for c in raw_conditions]
        test_set = [
            point_at(universe, i, "test_set")
            for i in expect(data.get("test_set", []), list, f"{args.file}.test_set")
        ]
        threshold = optional_int(data, "threshold", None, args.file)
        result = liminf_thin(conds, loc, test_set, threshold)
        _emit(
            {
                "constant_cells": list(result.constant_cells),
                "injective_cells": list(result.injective_cells),
                "kept": list(result.kept),
                "threshold": result.threshold,
            },
            args.out,
        )
        return 0
    # predense
    conds = [qcondition_from_json(c, universe) for c in raw_conditions]
    budget = optional_int(data, "color_budget", args.bounds.get("colorBudget", 3), args.file)
    max_arity = args.bounds.get("maxArity", len(universe))
    full = predense_check(conds, universe, budget)
    reduced = predense_check_reduced(conds, universe, budget, max_arity)
    _emit({"predense": full, "predense_reduced": reduced, "agree": full == reduced}, args.out)
    return 0 if full == reduced else 1


def _cmd_hamming(args) -> int:
    if args.verb == "gen":
        universe = (
            make_diagonal_hamming(args.breadth)
            if args.diagonal
            else make_uniform_hamming(args.breadth, args.alphabet)
        )
        _emit(universe_to_json(universe), args.out)
        return 0
    if args.verb == "chi":
        universe = make_diagonal_hamming(args.breadth)
        chi, _ = chromatic_number(universe, bound=args.bounds.get("oracle", 24))
        _emit({"breadth": args.breadth, "chromatic_number": chi}, args.out)
        return 0
    if args.verb == "vitali":
        universe = make_uniform_hamming(args.breadth, args.alphabet)
        report = verify_vitali_homomorphism(
            universe, epsilon_matrix(args.breadth, args.alphabet)
        )
        _emit(report, args.out)
        return 0 if report["passed"] else 1
    if args.verb == "embed":
        report = verify_embedding(args.breadth)
        _emit(report, args.out)
        return 0 if report["passed"] else 1
    universe = make_diagonal_hamming(args.breadth)
    pieces = [universe.points]
    report = sigma_bounded_check(universe, pieces, oracle_bound=args.bounds.get("oracle", 64))
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_campaign(args) -> int:
    names = args.suites or sorted(n for n in campaign_mod.SUITES if n != "selftest-mutation")
    config = campaign_mod.RunConfig(seed=args.seed, trials=args.trials, bounds=args.bounds)
    report = campaign_mod.run_campaign(config, names, jobs=args.jobs)
    text = campaign_mod.emit_report(report, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


def _parse_bounds(pairs: list[str]) -> dict:
    bounds = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ParseError(f"--bound expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            bounds[name] = int(value)
        except ValueError:
            raise ParseError(f"--bound {name}: {value!r} is not an integer") from None
    return bounds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noetherlab",
        description="exact combinatorial laboratory for Noetherian graph colorings",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=int, default=100)
    common.add_argument("--bound", action="append", dest="bound_pairs", metavar="NAME=VALUE")
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance/universe file", parents=[common])
    gen.add_argument(
        "family",
        choices=["line", "clustered-line", "planar", "explicit", "hamming-diagonal", "hamming-uniform"],
    )
    gen.add_argument("--size", type=int, default=6)
    gen.add_argument("--alphabet", type=int, default=2)
    gen.add_argument("--edge-probability", type=float, default=0.35)
    gen.set_defaults(fn=_cmd_gen)

    adj = sub.add_parser("adj", help="adjacency and neighborhood queries", parents=[common])
    adj.add_argument("instance")
    adj.add_argument("--x", default=None, help="point as JSON array of rationals")
    adj.add_argument("--y", default=None)
    adj.add_argument("--indices", type=int, nargs="*", default=[])
    adj.set_defaults(fn=_cmd_adj)

    detect = sub.add_parser("detect", help="forbidden-pattern prefix search", parents=[common])
    detect.add_argument("instance")
    detect.add_argument("--family", choices=["half", "threeQuarter"], default="half")
    detect.add_argument("--left", choices=["clique", "anticlique"], default="anticlique")
    detect.add_argument("--right", choices=["clique", "anticlique"], default="anticlique")
    detect.add_argument("--depth", type=int, default=2)
    detect.add_argument("--stress", action="store_true")
    detect.set_defaults(fn=_cmd_detect)

    lattice = sub.add_parser("lattice", help="descent chains and closure statistics", parents=[common])
    lattice.add_argument("instance")
    lattice.set_defaults(fn=_cmd_lattice)

    color = sub.add_parser("color", help="emit and verify box colorings", parents=[common])
    color.add_argument("verb", choices=["make", "chi", "verify"])
    color.add_argument("instance")
    color.add_argument("--file", default=None, help="coloring file for verify")
    color.set_defaults(fn=_cmd_color)

    poset = sub.add_parser("poset", help="poset operations", parents=[common])
    poset.add_argument("verb", choices=["compat", "lower-bound", "ramsey", "liminf", "predense"])
    poset.add_argument("instance")
    poset.add_argument("--file", required=True, help="conditions/location file")
    poset.add_argument("--kind", choices=["p", "q"], default="q")
    poset.set_defaults(fn=_cmd_poset)

    hamming = sub.add_parser("hamming", help="Hamming truncations and embeddings", parents=[common])
    hamming.add_argument("verb", choices=["gen", "chi", "vitali", "embed", "sigma"])
    hamming.add_argument("--breadth", type=int, default=3)
    hamming.add_argument("--alphabet", type=int, default=2)
    hamming.add_argument("--diagonal", action="store_true")
    hamming.set_defaults(fn=_cmd_hamming)

    camp = sub.add_parser("campaign", help="run seeded property suites", parents=[common])
    camp.add_argument("suites", nargs="*", help="suite names (default: all)")
    camp.add_argument("--jobs", type=int, default=1)
    camp.add_argument("--list", action="store_true", dest="list_suites")
    camp.set_defaults(fn=_cmd_campaign)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.bounds = _parse_bounds(args.bound_pairs)
        if getattr(args, "list_suites", False):
            _emit({"suites": sorted(campaign_mod.SUITES)}, args.out)
            return 0
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except NoetherError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
