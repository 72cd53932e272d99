"""Batch front end: parse instances, dispatch operations, run campaigns.

Exit codes: 0 success, 1 property/verification failure, 2 usage or parse
error.  All inputs and outputs are JSON.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from itertools import combinations, islice
from typing import Optional

from . import campaign as campaign_mod
from .coloring import (
    check_proper,
    check_suitable,
    chromatic_number,
    greedy_coloring,
    validate_pcondition,
)
from .control_poset import (
    liminf_thin,
    predense_check,
    predense_check_reduced,
    q_compatible,
    ramsey_bound,
    ramsey_compatible_subset,
    validate_qcondition,
)
from .coloring_poset import p_compatible, p_lower_bound
from .errors import InvalidPointError, NoetherError, ParseError, PreconditionError, quoted
from .geometry import Point
from .generators import (
    clustered_line_universe,
    line_universe,
    planar_unit_universe,
    random_explicit_edges,
)
from .graphs import (
    SampleUniverse,
    adjacent,
    common_neighborhood,
    explicit_graph,
    neighborhood,
    vertex_point,
)
from .hamming import (
    DEFAULT_SIZE_BOUND,
    epsilon_matrix,
    make_diagonal_hamming,
    make_uniform_hamming,
    sigma_bounded_check,
    verify_embedding,
    verify_vitali_homomorphism,
)
from .lattice import good_closure, heart, longest_descent_chain, minimal_subfamily
from .patterns import SearchStats, VariationSpec, find_variation_prefix, max_embedded_depth
from .serialize import (
    MAX_BOX_LEVEL,
    MAX_EXPLICIT_EDGES,
    dump_canonical,
    expect,
    load_path,
    read_json,
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
    pcondition_to_json,
)


def _emit(data, out: Optional[str]) -> None:
    text = dump_canonical(data)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"--out {out}: cannot write ({exc.strerror or exc})") from None
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> tuple[dict, int]:
    # a Hamming --size is a breadth, which the Hamming builders bound
    if args.family in ("line", "planar", "explicit") and args.size > DEFAULT_SIZE_BOUND:
        raise ParseError(f"--size {quoted(args.size)} exceeds the bound {DEFAULT_SIZE_BOUND}")
    return universe_to_json(args.build(args)), 0


def _explicit_draw(args) -> SampleUniverse:
    """gen explicit: the draw stops one edge past MAX_EXPLICIT_EDGES, and is
    then refused before it is built."""
    n = args.size
    edges = list(islice(
        random_explicit_edges(random.Random(args.seed), n, args.edge_probability),
        MAX_EXPLICIT_EDGES + 1,
    ))
    if len(edges) > MAX_EXPLICIT_EDGES:
        raise ParseError(f"gen explicit: the draw exceeds the bound of {MAX_EXPLICIT_EDGES} edges")
    return SampleUniverse(explicit_graph(n, edges), [vertex_point(i) for i in range(n)])


def _cmd_adj(args) -> tuple[dict, int]:
    if args.y is not None and args.x is None:
        raise ParseError("--y needs --x")
    universe = parse_instance_file(args.instance)
    if args.x is not None and args.y is not None:
        x = _point_arg(args.x, "--x")
        y = _point_arg(args.y, "--y")
        try:
            result = adjacent(universe.instance, x, y)
        except InvalidPointError as exc:
            raise ParseError(f"--x/--y: {exc}") from None
        return {"adjacent": result}, 0
    if args.x is not None:
        x = _point_arg(args.x, "--x")
        if x not in universe:
            raise ParseError(f"--x: {args.x} is not a point of the universe")
        return {"neighborhood": sorted(point_to_json(p) for p in neighborhood(universe, x))}, 0
    pts = [point_at(universe, i, "--indices") for i in args.indices]
    return {
        "common_neighborhood": sorted(
            point_to_json(p) for p in common_neighborhood(universe, pts)
        ),
        "relative_to_universe": True,
    }, 0


def _point_arg(raw: str, flag: str) -> Point:
    """A point given on the command line as a JSON array of rationals."""
    return point_from_json(read_json(raw, flag), flag)


def _cmd_detect(args) -> tuple[dict, int]:
    universe = parse_instance_file(args.instance)
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
        # the depth-k prefix is an induced subgraph of the depth-(k+1) one,
        # so a depth-d witness means that every smaller depth embeds too
        report["max_embedded_depth"] = (
            args.depth
            if witness is not None
            else max_embedded_depth(universe, spec, args.depth - 1, stats)
        )
    return report, 0


def _cmd_lattice(args) -> tuple[dict, int]:
    universe = parse_instance_file(args.instance)
    if not universe.points:
        raise ParseError(f"{args.instance}: the universe has no points to sample")
    rng = random.Random(args.seed)
    chain = longest_descent_chain(universe, max_arity=args.max_arity)
    closure_sizes = []
    subfamily_sizes: dict[int, int] = {}
    heart_sizes = []
    for _ in range(args.trials):
        sample = rng.sample(universe.points, k=rng.randint(1, min(4, len(universe))))
        closure_sizes.append(len(good_closure(universe, sample)))
        heart_sizes.append(len(heart(universe, sample)))
        size = len(minimal_subfamily(universe, sample).points)
        subfamily_sizes[size] = subfamily_sizes.get(size, 0) + 1
    return {
        "descent_chain_length": len(chain),
        "descent_chain_certified": chain.certified,
        "descent_extent_sizes": [len(e.extent) for e in chain.elements],
        "closure_sizes": closure_sizes,
        "heart_sizes": heart_sizes,
        "minimal_subfamily_histogram": {
            str(k): v for k, v in sorted(subfamily_sizes.items())
        },
        "relative_to_universe": True,
    }, 0


def _cmd_color_make(args) -> tuple[dict, int]:
    universe = parse_instance_file(args.instance)
    coloring = greedy_coloring(universe)
    for x, b in coloring.assignment.items():
        # color verify refuses such a box, so none is written
        if b.level > MAX_BOX_LEVEL:
            raise ParseError(
                f"point {universe.index(x)} needs a box of level {b.level}, "
                f"past the bound {MAX_BOX_LEVEL}"
            )
    return pcondition_to_json(coloring), 0


def _cmd_color_chi(args) -> tuple[dict, int]:
    chi, _ = chromatic_number(parse_instance_file(args.instance))
    return {"chromatic_number": chi}, 0


def _cmd_color_verify(args) -> tuple[dict, int]:
    universe = parse_instance_file(args.instance)
    p = pcondition_from_json(load_path(args.file), universe)
    problems = check_suitable(p.assignment) + check_proper(universe, p.assignment)
    return {"valid": not problems, "problems": problems}, 0 if not problems else 1


def _read_conditions(args, read=qcondition_from_json):
    """The universe, the --file object and its conditions, not yet validated.

    Each poset leaf parses its own fields of the file before it validates a
    condition, so a malformed file exits 2 before a failing check exits 1.
    """
    universe = parse_instance_file(args.instance)
    data = expect(load_path(args.file), dict, args.file)
    raw_conditions = require(data, "conditions", list, args.file)
    return universe, data, [read(c, universe) for c in raw_conditions]


def _cmd_poset_compat(args) -> tuple[dict, int]:
    if args.kind == "p":
        read, validate, compatible = pcondition_from_json, validate_pcondition, p_compatible
    else:
        read, validate, compatible = qcondition_from_json, validate_qcondition, q_compatible
    _, _, conds = _read_conditions(args, read)
    for cond in conds:
        validate(cond)
    return {"pairwise_compatible": all(compatible(a, b) for a, b in combinations(conds, 2))}, 0


def _cmd_poset_lower_bound(args) -> tuple[dict, int]:
    universe, data, conds = _read_conditions(args, pcondition_from_json)
    x = point_at(universe, data["point"], "point") if "point" in data else None
    for cond in conds:
        validate_pcondition(cond)
    try:
        bound = p_lower_bound(conds, x, universe=universe)
    except NoetherError as exc:
        return {"built": False, "error": str(exc)}, 1
    return {"built": True, "bound": pcondition_to_json(bound)}, 0


def _cmd_poset_ramsey(args) -> tuple[dict, int]:
    universe, data, conds = _read_conditions(args)
    loc = location_from_json(require(data, "location", dict, args.file), universe)
    m = optional_int(data, "m", 3, args.file)
    if m < 2:
        raise ParseError(f"{args.file}.m: {quoted(m)} is below 2")
    for cond in conds:
        validate_qcondition(cond)
    bound = ramsey_bound(m, len(loc.cells))
    found = ramsey_compatible_subset(conds, m, loc)
    return {"bound": bound, "subset": None if found is None else list(found[0])}, 0


def _cmd_poset_liminf(args) -> tuple[dict, int]:
    universe, data, conds = _read_conditions(args)
    loc = location_from_json(require(data, "location", dict, args.file), universe)
    test_set = [
        point_at(universe, i, "test_set")
        for i in expect(data.get("test_set", []), list, f"{args.file}.test_set")
    ]
    threshold = optional_int(data, "threshold", None, args.file)
    if threshold is not None and threshold < 0:
        raise ParseError(f"{args.file}.threshold: {quoted(threshold)} is negative")
    for cond in conds:
        validate_qcondition(cond)
    result = liminf_thin(conds, loc, test_set, threshold)
    return {
        "constant_cells": list(result.constant_cells),
        "injective_cells": list(result.injective_cells),
        "kept": list(result.kept),
        "threshold": result.threshold,
    }, 0


def _cmd_poset_predense(args) -> tuple[dict, int]:
    _, data, conds = _read_conditions(args)
    budget = optional_int(
        data, "color_budget", campaign_mod.DEFAULT_BOUNDS["colorBudget"], args.file
    )
    if budget < 1:
        raise ParseError(f"{args.file}.color_budget: {quoted(budget)} is below 1")
    for cond in conds:
        validate_qcondition(cond)
    full = predense_check(conds, budget)
    reduced = predense_check_reduced(conds, budget)
    agree = full == reduced
    return {"predense": full, "predense_reduced": reduced, "agree": agree}, 0 if agree else 1


def _cmd_hamming_chi(args) -> tuple[dict, int]:
    chi, _ = chromatic_number(make_diagonal_hamming(args.breadth))
    return {"breadth": args.breadth, "chromatic_number": chi}, 0


def _cmd_hamming_vitali(args) -> tuple[dict, int]:
    universe = make_uniform_hamming(args.breadth, args.alphabet)
    report = verify_vitali_homomorphism(universe, epsilon_matrix(args.breadth, args.alphabet))
    return report, 0 if report["passed"] else 1


def _cmd_hamming_embed(args) -> tuple[dict, int]:
    report = verify_embedding(args.breadth)
    return report, 0 if report["passed"] else 1


def _cmd_hamming_sigma(args) -> tuple[dict, int]:
    universe = make_diagonal_hamming(args.breadth)
    report = sigma_bounded_check(universe, [universe.points])
    return report, 0 if report["passed"] else 1


def _cmd_campaign(args) -> tuple[dict, int]:
    # the report records only the bounds given; RunConfig checks them, also under --list
    given = {"colorBudget": args.color_budget, "maxPoints": args.max_points}
    bounds = {name: value for name, value in given.items() if value is not None}
    try:
        config = campaign_mod.RunConfig(seed=args.seed, trials=args.trials, bounds=bounds)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None
    if args.list_suites:
        return {"suites": sorted(campaign_mod.SUITES)}, 0
    names = args.suites or sorted(n for n in campaign_mod.SUITES if n != "selftest-mutation")
    report = campaign_mod.run_campaign(config, names, jobs=args.jobs)
    return report, 0 if report["all_passed"] else 1


# The least value of each numeric option a verb takes.
_OPTION_MINIMA = {"trials": 1, "jobs": 1, "size": 1, "breadth": 1, "alphabet": 1, "depth": 2,
                  "max_arity": 1}

# The largest --trials of the verbs whose work it multiplies, lattice and
# campaign: ten times the 1000 trials of the largest acceptance campaign.
# A campaign of every suite takes 8 s at 1000 trials (2-vCPU host,
# CPython 3.11), so about 80 s at this bound.
MAX_TRIALS = 10_000


def _check_options(args) -> None:
    for name, least in _OPTION_MINIMA.items():
        value = getattr(args, name, least)
        if value < least:
            what = "a positive integer" if least == 1 else f"an integer >= {least}"
            raise ParseError(f"--{name.replace('_', '-')} must be {what}, got {quoted(value)}")
    if getattr(args, "trials", 0) > MAX_TRIALS:
        raise ParseError(f"--trials {quoted(args.trials)} exceeds the bound {MAX_TRIALS}")
    if not 0 <= getattr(args, "edge_probability", 0) <= 1:
        raise ParseError(
            f"--edge-probability must be a number in [0, 1], got {args.edge_probability}"
        )


def _int(text: str) -> int:
    """argparse's int type, with the offending text quoted short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    Parsing keeps all of its state in the returned ``Namespace``, so one
    parser serves every ``main`` call.  Each leaf sets ``fn``, its handler,
    which returns the report and the exit code; ``main`` writes the report.
    Each verb declares only the options it reads, and no option may be
    abbreviated, so any other exits 2.
    """
    parser = argparse.ArgumentParser(
        prog="noetherlab",
        description="exact combinatorial laboratory for Noetherian graph colorings",
        allow_abbrev=False,
    )

    def option(*flags, **kwargs) -> argparse.ArgumentParser:
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*flags, **kwargs)
        return holder

    out = option("--out", default=None, help="write JSON here instead of stdout")
    instance = option("instance")
    seed = option("--seed", type=_int, default=0)
    trials = option("--trials", type=_int, default=100)
    size = option("--size", type=_int, default=6)
    alphabet = option("--alphabet", type=_int, default=2)
    breadth = option("--breadth", type=_int, default=3)
    file = option("--file", required=True, help="JSON input file")
    edge_probability = option("--edge-probability", type=float, default=0.35)
    sub = parser.add_subparsers(dest="command", required=True)

    def verbs(command, dest, help):
        group = sub.add_parser(command, help=help, allow_abbrev=False)
        return group.add_subparsers(dest=dest, required=True)

    def leaf(group, name, *parents, fn, help=None, **defaults):
        verb = group.add_parser(name, help=help, parents=[out, *parents], allow_abbrev=False)
        verb.set_defaults(fn=fn, **defaults)
        return verb

    gen = verbs("gen", "family", "generate an instance/universe file")
    for family, parents, build in (
        ("line", [size], lambda a: line_universe(a.size)),
        ("clustered-line", [], lambda a: clustered_line_universe()),
        ("planar", [size, seed], lambda a: planar_unit_universe(random.Random(a.seed), a.size)),
        ("explicit", [size, seed, edge_probability], _explicit_draw),
        ("hamming-diagonal", [size], lambda a: make_diagonal_hamming(a.size)),
        ("hamming-uniform", [size, alphabet], lambda a: make_uniform_hamming(a.size, a.alphabet)),
    ):
        leaf(gen, family, *parents, fn=_cmd_gen, build=build)

    adj = leaf(sub, "adj", instance, fn=_cmd_adj, help="adjacency and neighborhood queries")
    point = adj.add_mutually_exclusive_group()
    point.add_argument("--x", default=None, help="point as JSON array of rationals")
    point.add_argument("--indices", type=_int, nargs="*", default=[])
    adj.add_argument("--y", default=None)

    detect = leaf(sub, "detect", instance, fn=_cmd_detect, help="forbidden-pattern prefix search")
    detect.add_argument("--family", choices=["half", "threeQuarter"], default="half")
    detect.add_argument("--left", choices=["clique", "anticlique"], default="anticlique")
    detect.add_argument("--right", choices=["clique", "anticlique"], default="anticlique")
    detect.add_argument("--depth", type=_int, default=2)
    detect.add_argument("--stress", action="store_true")

    lattice = leaf(sub, "lattice", instance, seed, trials, fn=_cmd_lattice,
                   help="descent chains and closure statistics")
    lattice.add_argument("--max-arity", type=_int, default=4)

    color = verbs("color", "verb", "emit and verify box colorings")
    leaf(color, "make", instance, fn=_cmd_color_make)
    leaf(color, "chi", instance, fn=_cmd_color_chi)
    leaf(color, "verify", instance, file, fn=_cmd_color_verify)

    poset = verbs("poset", "verb", "poset operations")
    compat = leaf(poset, "compat", instance, file, fn=_cmd_poset_compat)
    compat.add_argument("--kind", choices=["p", "q"], default="q")
    leaf(poset, "lower-bound", instance, file, fn=_cmd_poset_lower_bound)
    leaf(poset, "ramsey", instance, file, fn=_cmd_poset_ramsey)
    leaf(poset, "liminf", instance, file, fn=_cmd_poset_liminf)
    leaf(poset, "predense", instance, file, fn=_cmd_poset_predense)

    hamming = verbs("hamming", "verb", "Hamming truncations and embeddings")
    leaf(hamming, "chi", breadth, fn=_cmd_hamming_chi)
    leaf(hamming, "vitali", breadth, alphabet, fn=_cmd_hamming_vitali)
    leaf(hamming, "embed", breadth, fn=_cmd_hamming_embed)
    leaf(hamming, "sigma", breadth, fn=_cmd_hamming_sigma)

    camp = leaf(sub, "campaign", seed, trials, fn=_cmd_campaign, help="run seeded property suites")
    camp.add_argument("suites", nargs="*", help="suite names (default: all)")
    camp.add_argument("--jobs", type=_int, default=1)
    camp.add_argument("--list", action="store_true", dest="list_suites")
    # unset, the suites use campaign.DEFAULT_BOUNDS
    camp.add_argument("--color-budget", type=_int)
    camp.add_argument("--max-points", type=_int)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_options(args)
        report, code = args.fn(args)
        _emit(report, args.out)
        return code
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except NoetherError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
