"""The benchmark's three workloads: campaign, scale and cli.

Each workload builds its inputs from the seed in ``__init__`` (the
benchmark's set-up), runs identical passes with ``run_pass``, and checks
what the library returned.  Every library call goes through a module
attribute (``lattice.good_closure(...)``), so the traced run sees the
tracer's wrappers.  The README in this directory says why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm

from noetherlab import campaign, cli, coloring, geometry, graphs, hamming, lattice

clock = time.perf_counter

# The 21 non-fixture suites, fixed so that per-suite metrics keep their
# meaning when suites are added later.
CAMPAIGN_SUITES = (
    "adjacency-laws",
    "box-enumeration",
    "budget-clamp",
    "chromatic-oracle-agreement",
    "coloring-constructions",
    "hamming-chromatic",
    "homogeneous-bound",
    "lattice-laws",
    "liminf-thin",
    "minimal-subfamily-bound",
    "neighborhood-laws",
    "no-rational-unit-triangle",
    "pattern-oracle",
    "pattern-planted",
    "predense-equivalence",
    "predense-reduce",
    "prop43-equivalence",
    "ramsey-centered",
    "ramsey-thm59",
    "stitch-nongood-experiment",
    "vitali-embedding",
)
# The campaign runs where the acceptance gate runs.  At other seeds
# `budget-clamp` has counterexamples (1 failing trial in 150 at about one
# seed in 18), which the defect probe keeps visible.
ACCEPTANCE_SEED = 20260811
SELFTEST_SUITE = "selftest-mutation"
SELFTEST_TRIALS = 50
DEFECT_PROBE = ("budget-clamp", 23, 150)  # suite, seed, trials


@dataclass
class PassResult:
    """``clock()`` reads; run.py turns intervals into reference seconds."""

    start: float
    end: float
    ops: list[tuple[float, float]]  # one interval per operation
    failed: int
    per_suite: dict[str, tuple[float, float]] = field(default_factory=dict)


class Workload:
    name = ""
    checks: tuple[str, ...] = ()

    def __init__(self):
        self.check_runs = {name: 0 for name in self.checks}
        self.check_failures: list[str] = []
        self.info: dict = {}
        # per-pass counters reported as per-layer metrics
        self.counters: dict[str, int] = {}

    def check(self, name: str, ok: bool, message: str = "") -> bool:
        self.check_runs[name] += 1
        if not ok:
            self.check_failures.append(f"{name}: {message}")
        return ok

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after all passes and outside any timing."""

    def close(self) -> None:
        """Undo anything set-up changed in the process."""


def _failed_trials(suites: dict) -> int:
    return sum(s["failures"] for s in suites.values())


class CampaignWorkload(Workload):
    """run_campaign over the 21 suites, one call per suite, jobs=1."""

    name = "campaign"
    checks = ("suites_pass", "report_byte_identical", "selftest_counts_failures")

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__()
        missing = [s for s in CAMPAIGN_SUITES if s not in campaign.SUITES]
        if missing:
            raise RuntimeError(f"campaign suites not registered: {missing}")
        self.seed = seed
        self.config = campaign.RunConfig(seed=ACCEPTANCE_SEED, trials=50 if size == "full" else 2)
        self.ops_per_pass = len(CAMPAIGN_SUITES) * self.config.trials
        self.reports: list[dict] = []
        self._ops: list[tuple[float, float]] = []
        # Time each trial: run_campaign looks run_one up in its module.
        self._run_one = campaign.run_one
        ops = self._ops
        run_one = self._run_one

        def timed_run_one(*args):
            start = clock()
            result = run_one(*args)
            ops.append((start, clock()))
            return result

        campaign.run_one = timed_run_one

    def close(self) -> None:
        campaign.run_one = self._run_one

    def run_pass(self) -> PassResult:
        self._ops.clear()
        suites: dict = {}
        per_suite: dict[str, tuple[float, float]] = {}
        start = clock()
        for name in CAMPAIGN_SUITES:
            t0 = clock()
            report = campaign.run_campaign(self.config, [name])
            per_suite[name] = (t0, clock())
            suites.update(report["suites"])
        end = clock()
        report["suites"] = suites
        report["all_passed"] = all(s["failures"] == 0 for s in suites.values())
        self.reports.append(report)
        failed = _failed_trials(suites)
        self.check("suites_pass", failed == 0, f"{failed} failed trials")
        return PassResult(start, end, list(self._ops), failed, per_suite)

    def finish(self) -> None:
        texts = {campaign.emit_report(r) for r in self.reports}
        self.check("report_byte_identical", len(texts) == 1, f"{len(texts)} distinct reports")
        # The mutation fixture fails by design; the same failure counter as
        # the timed passes must see it.
        config = campaign.RunConfig(seed=self.seed, trials=SELFTEST_TRIALS)
        report = campaign.run_campaign(config, [SELFTEST_SUITE])
        ratio = _failed_trials(report["suites"]) / SELFTEST_TRIALS
        self.info["selftest_failed_ratio"] = ratio
        self.check("selftest_counts_failures", ratio > 0, "mutation fixture showed no failures")
        suite, seed, trials = DEFECT_PROBE
        report = campaign.run_campaign(campaign.RunConfig(seed=seed, trials=trials), [suite])
        failed = _failed_trials(report["suites"])
        self.info["defect_probe"] = {
            "calls": trials,
            "wrong": failed,
            "failed_ratio": failed / trials,
            "outcomes": report["suites"][suite]["counterexamples"],
        }


def _edges(masks: list[int]) -> int:
    return sum(m.bit_count() - 1 for m in masks) // 2


def _planar_points(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """Grid points plus rational unit-circle offsets from earlier points."""
    points: list[tuple[Fraction, Fraction]] = []
    seen = set()
    while len(points) < n:
        if points and rng.random() < 0.6:
            bx, by = rng.choice(points)
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            den = 1 + t * t
            cand = (bx + (1 - t * t) / den, by + 2 * t / den)
        else:
            cand = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        if cand not in seen:
            seen.add(cand)
            points.append(cand)
    return points


def _unit_pairs(points: list[tuple[Fraction, Fraction]]) -> int:
    """Unit-distance pairs by integer arithmetic on a common denominator."""
    d = 1
    for x, y in points:
        d = lcm(d, x.denominator, y.denominator)
    ints = [(int(x * d), int(y * d)) for x, y in points]
    target = d * d
    count = 0
    for i, (xi, yi) in enumerate(ints):
        for xj, yj in ints[i + 1 :]:
            if (xi - xj) ** 2 + (yi - yj) ** 2 == target:
                count += 1
    return count


class ScaleWorkload(Workload):
    """Mask builds and lattice operators on a few large universes."""

    name = "scale"
    checks = ("edge_counts", "verify_passed", "closure_idempotent", "greedy_complete")

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__()
        full = size == "full"
        rng = random.Random(f"scale:{seed}")
        breadth_u, alphabet_u = (5, 3) if full else (2, 3)
        breadth_b = 8 if full else 3
        breadth_d = 5 if full else 3
        n_line, n_planar, n_gnp = (300, 150, 300) if full else (10, 10, 10)
        p_gnp = 0.05 if full else 0.3
        self.n_greedy = 200 if full else 10
        self.embed_breadth = 6 if full else 3

        self.planar = _planar_points(rng, n_planar)
        gnp_edges = [
            (i, j) for i in range(n_gnp) for j in range(i + 1, n_gnp) if rng.random() < p_gnp
        ]
        self.vitali = hamming.make_uniform_hamming(breadth_u, alphabet_u)
        self.vitali_edges = alphabet_u**breadth_u * breadth_u * (alphabet_u - 1) // 2
        self.eps = hamming.epsilon_matrix(breadth_u, alphabet_u)
        # name -> (universe, expected edge count; None = checked in finish)
        self.universes = {
            f"uniform-{alphabet_u}^{breadth_u}": (self.vitali, self.vitali_edges),
            f"uniform-2^{breadth_b}": (
                hamming.make_uniform_hamming(breadth_b, 2),
                2**breadth_b * breadth_b // 2,
            ),
            f"diagonal-{breadth_d}": (
                hamming.make_diagonal_hamming(breadth_d),
                factorial(breadth_d) * breadth_d * (breadth_d - 1) // 4,
            ),
            f"line-{n_line}": (_line(n_line), n_line - 1),
            f"planar-{n_planar}": (
                graphs.SampleUniverse(
                    graphs.distance_graph(2, [1]), [geometry.Point(p) for p in self.planar]
                ),
                None,
            ),
            f"gnp-{n_gnp}": (_explicit(n_gnp, gnp_edges), len(gnp_edges)),
        }
        self.queries = {
            name: (rng.sample(u.points, 3), rng.sample(u.points, min(8, len(u))))
            for name, (u, _) in self.universes.items()
        }
        self.greedy_line = _line(self.n_greedy)
        # A batch job: the whole pass is the one operation.
        self.ops_per_pass = 1
        self.closures: dict = {}
        self.built_edges: dict[str, int] = {}

    def run_pass(self) -> PassResult:
        for u, _ in self.universes.values():
            u.__dict__.pop("closed_masks", None)
            u.__dict__.pop("open_masks", None)
        start = clock()
        masks = {name: u.closed_masks for name, (u, _) in self.universes.items()}
        closures = {}
        for name, (u, _) in self.universes.items():
            a, b = self.queries[name]
            closures[name] = lattice.good_closure(u, a)
            lattice.heart(u, a)
            lattice.minimal_subfamily(u, b)
            lattice.longest_descent_chain(u, 4)
        greedy = coloring.greedy_coloring(self.greedy_line)
        vitali = hamming.verify_vitali_homomorphism(self.vitali, self.eps)
        embedding = hamming.verify_embedding(self.embed_breadth)
        end = clock()

        failed = 0
        for name, (u, expected) in self.universes.items():
            edges = _edges(masks[name])
            self.built_edges[name] = edges
            if expected is not None and not self.check(
                "edge_counts", edges == expected, f"{name}: {edges} edges, expected {expected}"
            ):
                failed += 1
        b = self.embed_breadth
        embed_edges = factorial(b) * b * (b - 1) // 4
        verdicts = [
            (vitali["passed"] and vitali["edges_checked"] == self.vitali_edges, f"vitali {vitali}"),
            (
                embedding["passed"] and embedding["edges_checked"] == embed_edges,
                f"embedding: {embedding['edges_checked']} edges, expected {embed_edges}",
            ),
        ]
        for ok, message in verdicts:
            if not self.check("verify_passed", ok, message):
                failed += 1
        if not self.check(
            "greedy_complete", len(greedy.assignment) == self.n_greedy, "greedy coloring incomplete"
        ):
            failed += 1
        self.closures = {name: (self.universes[name][0], cl) for name, cl in closures.items()}
        return PassResult(start, end, [(start, end)], min(failed, 1))

    def finish(self) -> None:
        for name, (u, closure) in self.closures.items():
            again = lattice.good_closure(u, closure)
            self.check("closure_idempotent", again == closure, f"{name}: closure not idempotent")
        planar = next(n for n in self.universes if n.startswith("planar-"))
        expected = _unit_pairs(self.planar)
        got = self.built_edges.get(planar)
        self.check("edge_counts", got == expected, f"{planar}: {got} edges, expected {expected}")


def _line(n: int):
    return graphs.SampleUniverse(graphs.distance_graph(1, [1]), [geometry.pt(i) for i in range(n)])


def _explicit(n: int, edges):
    return graphs.SampleUniverse(
        graphs.explicit_graph(n, edges), [graphs.vertex_point(i) for i in range(n)]
    )


def _explicit_json(n: int, edges) -> dict:
    return {"instance": {"kind": "explicit", "vertices": n, "edges": [list(e) for e in edges]}}


def _circulant_edges(n: int, offsets) -> list[tuple[int, int]]:
    return sorted({tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets})


@dataclass
class Call:
    argv: list[str]
    expected: int


class CliWorkload(Workload):
    """A fixed batch of in-process ``cli.main(argv)`` calls on JSON files."""

    name = "cli"
    checks = ("exit_codes", "outputs_json", "outputs_deterministic")

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__()
        full = size == "full"
        rng = random.Random(f"cli:{seed}")

        def path(name: str) -> str:
            return os.path.join(workdir, name)

        def write(name: str, data) -> str:
            with open(path(name), "w", encoding="utf-8") as fh:
                fh.write(data if isinstance(data, str) else json.dumps(data))
            return path(name)

        def gen(name: str, *args: str) -> str:
            code, _, _, _ = self._call(["gen", *args, "--out", path(name)])
            if code != 0:
                raise RuntimeError(f"gen {args} exited {code}")
            return path(name)

        n_variants = 4 if full else 1
        files = [gen("line12.json", "line", "--size", "12")]
        for k in range(n_variants):
            files.append(
                gen(f"planar{k}.json", "planar", "--size", "8", "--seed", str(rng.randrange(2**31)))
            )
        for k in range(n_variants):
            files.append(
                gen(
                    f"gnp{k}.json", "explicit", "--size", "12", "--edge-probability", "0.35",
                    "--seed", str(rng.randrange(2**31)),
                )
            )
        line12, planar0, gnp0 = files[0], files[1], files[1 + n_variants]
        clustered = gen("clustered.json", "clustered-line")
        small = gen("small7.json", "explicit", "--size", "7", "--edge-probability", "0.4",
                    "--seed", str(rng.randrange(2**31)))
        n_circ = 40 if full else 12
        circ = write("circulant.json", _explicit_json(n_circ, _circulant_edges(n_circ, (1, 2))))
        path10 = write("path10.json", _explicit_json(10, [(i, i + 1) for i in range(9)]))

        code, _, _, _ = self._call(["color", "make", line12, "--out", path("color_ok.json")])
        if code != 0:
            raise RuntimeError("color make failed during set-up")
        with open(path("color_ok.json"), encoding="utf-8") as fh:
            boxes = json.load(fh)
        # point 1 gets point 0's box, which does not contain it
        boxes["assignment"]["1"] = boxes["assignment"]["0"]
        color_bad = write("color_bad.json", boxes)

        qconds = write("qconds.json", {"conditions": [
            {"assignment": {str(rng.randrange(12)): rng.randrange(3)}} for _ in range(5)
        ]})
        ramsey = write("ramsey.json", {
            "location": {"cells": [{"box": {"tag": 0, "level": 0, "corners": [0]}}], "colors": [0]},
            "conditions": [{"assignment": {str(rng.randrange(16)): 0}} for _ in range(6)],
            "m": 3,
        })
        liminf = write("liminf.json", {
            "location": {"cells": [{"vertices": list(range(10))}], "colors": [0]},
            "conditions": [
                {"assignment": {str(rng.randrange(10)): 0}} for _ in range(rng.randint(2, 8))
            ],
            "test_set": rng.sample(range(10), 3),
        })
        predense = write("predense.json", {
            "conditions": [{"assignment": {str(rng.randrange(7)): rng.randrange(3)}} for _ in range(2)],
            "color_budget": 3,
        })
        not_json = write("not_json.json", "{not json")
        bad_kind = write("bad_kind.json", {"instance": {"kind": "torus"}, "points": [["0"]]})

        calls: list[Call] = []
        for f in files:
            with open(f, encoding="utf-8") as fh:
                points = json.load(fh)["points"]
            p0, p1 = json.dumps(points[0]), json.dumps(points[1])
            calls += [
                Call(["adj", f, "--indices", "0", "1"], 0),
                Call(["adj", f, "--x", p0], 0),
                Call(["adj", f, "--x", p0, "--y", p1], 0),
                Call(["detect", f, "--depth", "2"], 0),
                Call(["lattice", f, "--trials", "3", "--seed", str(seed)], 0),
                Call(["color", "make", f], 0),
                Call(["color", "chi", f], 0),
            ]
        calls += [
            Call(["detect", gnp0, "--depth", "3", "--stress"], 0),
            Call(["detect", planar0, "--family", "threeQuarter", "--left", "clique",
                  "--right", "clique", "--depth", "2", "--stress"], 0),
            # exhaustive: the circulant graph holds no induced copy
            Call(["detect", circ, "--family", "threeQuarter", "--left", "anticlique",
                  "--right", "anticlique", "--depth", "4"], 0),
            Call(["color", "verify", line12, "--file", path("color_ok.json")], 0),
            Call(["color", "verify", line12, "--file", color_bad], 1),
            Call(["poset", "compat", gnp0, "--file", qconds], 0),
            Call(["poset", "ramsey", clustered, "--file", ramsey], 0),
            Call(["poset", "liminf", path10, "--file", liminf], 0),
            Call(["poset", "predense", small, "--file", predense], 0),
            Call(["hamming", "chi", "--breadth", "3"], 0),
            Call(["hamming", "sigma", "--breadth", "2"], 0),
            Call(["hamming", "sigma", "--breadth", "3"], 1),
            # malformed input the CLI already rejects with exit code 2
            Call(["adj", path("missing.json")], 2),
            Call(["adj", not_json], 2),
            Call(["adj", bad_kind], 2),
            Call(["gen", "no-such-family"], 2),
            Call(["detect", line12, "--bound", "oracle=x"], 2),
        ]
        self.calls = calls
        self.ops_per_pass = len(calls)
        # Malformed input with known exit-code defects (wrong code or an
        # uncaught exception today).  Run once, outside the timed batch.
        self.probe = [
            Call(["adj", write("top_list.json", "[]"), "--indices", "0"], 2),
            Call(["poset", "compat", gnp0, "--file", write("conditions_int.json", {"conditions": 5})], 2),
            Call(["poset", "compat", gnp0, "--file",
                  write("negative_index.json", {"conditions": [{"assignment": {"-1": 0}}]})], 2),
        ]
        self.first_outputs: list[str] | None = None
        self.counters = {"cli.exit_code_0.calls": 0, "cli.exit_code_1.calls": 0,
                         "cli.exit_code_2.calls": 0, "cli.uncaught.calls": 0}

    @staticmethod
    def _call(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            uncaught = None
        except Exception as exc:  # an uncaught exception is a counted outcome
            code, uncaught = None, type(exc).__name__
        return code, uncaught, out.getvalue(), (start, clock())

    def run_pass(self) -> PassResult:
        ops: list[tuple[float, float]] = []
        outputs: list[str] = []
        results = []
        start = clock()
        for call in self.calls:
            code, uncaught, out, interval = self._call(call.argv)
            ops.append(interval)
            outputs.append(out)
            results.append((call, code, uncaught))
        end = clock()

        failed = 0
        counts = dict.fromkeys(self.counters, 0)
        for (call, code, uncaught), out in zip(results, outputs):
            key = "cli.uncaught.calls" if uncaught else f"cli.exit_code_{code}.calls"
            counts[key] = counts.get(key, 0) + 1
            ok = self.check(
                "exit_codes",
                code == call.expected,
                f"{call.argv}: exit {code} ({uncaught}), expected {call.expected}",
            )
            if code in (0, 1):
                try:
                    json.loads(out)
                except ValueError:
                    ok = self.check("outputs_json", False, f"{call.argv}: output is not JSON") and ok
                else:
                    self.check("outputs_json", True)
            failed += not ok
        self.counters = counts
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            self.check(
                "outputs_deterministic",
                outputs == self.first_outputs,
                "a batch printed different output than the first batch",
            )
        return PassResult(start, end, ops, failed)

    def finish(self) -> None:
        outcomes = []
        for call in self.probe:
            code, uncaught, _, _ = self._call(call.argv)
            outcomes.append({
                "argv": call.argv[:2],
                "expected": call.expected,
                "exit_code": code,
                "uncaught": uncaught,
                "ok": code == call.expected,
            })
        wrong = sum(not o["ok"] for o in outcomes)
        self.info["defect_probe"] = {
            "calls": len(outcomes),
            "wrong": wrong,
            "failed_ratio": wrong / len(outcomes),
            "outcomes": outcomes,
        }


WORKLOADS = {w.name: w for w in (CampaignWorkload, ScaleWorkload, CliWorkload)}
