"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces public functions and methods of the
``ringcodes`` modules with wrappers that record a span (name, start,
end, parent, request id, and a work count) and rebinds every module
global, and every value of a module-level dict, that held the original,
so calls through a ``from .x import f`` binding or a dispatch table are
traced too.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer figures and ``uninstall`` restores the program.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    request: int
    work: int = 0
    found: int = 0


def _dual_count(args, result):
    code = args[0]
    return code.ring.cardinality**code.length, result.cardinality


def _closure_count(args, result):
    return len(result), 0


def _full_rank_count(args, result):
    matrix = args[0]
    return matrix.ring.cardinality**matrix.rows, 0


def _row_scan_count(args, result):
    matrix = args[0]
    card = matrix.ring.cardinality
    return sum(card**i for i in range(1, matrix.rows + 1)), 0


def _cli_count(args, result):
    return 0, int(result == 2)


def targets(rc):
    """(owner, attribute, span name, count function) for every traced call.

    Row and full-rank scans may stop early; their work is the nominal
    count the budget is charged, not the candidates actually visited.
    """
    code, matrix, mpc, ring = rc.code, rc.matrix, rc.mpc, rc.ring
    out = [(rc.cli, "main", "cli", _cli_count)]
    out += [
        (rc.notation, name, "notation.parse", None)
        for name in ("parse_ring", "parse_element", "parse_vector", "parse_matrix",
                     "parse_code", "parse_generators")
    ]
    out += [
        (rc.scenarios, "run_scenario", "scenarios.run", None),
        (mpc, "check_conditions", "mpc.report", None),
        (mpc, "build_mpc", "mpc.build", None),
        (mpc, "mpc_dual_theorem", "mpc.dual_theorem", None),
        (mpc, "row_code_min_distances", "mpc.row_scan", _row_scan_count),
        (mpc, "min_distance_lower_bound", "mpc.bound", None),
        (code.LinearCode, "dual_bruteforce", "code.dual", _dual_count),
        (code.LinearCode, "_close_span", "code.closure", _closure_count),
        (code.LinearCode, "min_distance", "code.min_distance", None),
        (matrix.Matrix, "has_full_rank", "matrix.full_rank", _full_rank_count),
        (matrix.Matrix, "adjugate_inverse", "matrix.inverse", None),
        (matrix.Matrix, "gram", "matrix.gram", None),
        (ring.Ring, "find_square_root_of_minus_one", "ring.unit_scan", None),
    ]
    out += [
        (ring.RingElement, name, "ring.unit_scan", None)
        for name in ("is_unit", "invert", "is_zero_divisor")
    ]
    out += [
        (rc.constructions, name, "constructions.certify", None)
        for name in ("diag1_matrix", "adiag1_matrix_a", "adiag1_matrix_b",
                     "adiag3_matrix", "block_adiag_matrix")
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if count is not None:
                span.work, span.found = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package_name="ringcodes"):
        rc = sys.modules[package_name]
        modules = [m for n, m in sys.modules.items()
                   if n == package_name or n.startswith(package_name + ".")]
        for owner, attr, name, count in targets(rc):
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            for module in modules:
                namespace = vars(module)
                # Module globals, and module-level dispatch tables such as
                # ``cli._CONSTRUCT_FAMILIES`` that hold the function as a value.
                for table in [namespace, *(v for v in namespace.values() if type(v) is dict)]:
                    for key, value in list(table.items()):
                        if value is original:
                            self._undo.append((table, key, original))
                            table[key] = wrapped

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


# -- span arithmetic ------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans, span, names) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def summarize(spans) -> dict:
    """Per span name: calls, outermost inclusive ns, self ns, work, found."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, self_ns in zip(spans, selfs):
        row = out.setdefault(span.name, {"calls": 0, "ns": 0, "self_ns": 0, "work": 0, "found": 0})
        row["calls"] += 1
        row["self_ns"] += self_ns
        row["work"] += span.work
        row["found"] += span.found
        if not _has_ancestor(spans, span, (span.name,)):
            row["ns"] += span.end - span.start
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, probe: dict, overhead_s: float) -> dict:
    """The per-layer metrics, as {name: (value, unit)}."""
    rows = summarize(spans)
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "work": 0, "found": 0}

    def r(name):
        return rows.get(name, empty)

    duals_in_reports = sum(
        1 for s in spans if s.name == "code.dual" and _has_ancestor(spans, s, ("mpc.report",))
    )
    out = {name: (value, "ns") for name, value in probe.items()}
    out.update({
        "ring.unit_scan.calls": (r("ring.unit_scan")["calls"], "count"),
        "ring.unit_scan.s": (r("ring.unit_scan")["ns"] / 1e9, "s"),
        "code.dual.calls": (r("code.dual")["calls"], "count"),
        "code.dual.candidates": (r("code.dual")["work"], "count"),
        "code.dual.s": (r("code.dual")["ns"] / 1e9, "s"),
        "code.dual.ns_per_candidate": (_ratio(r("code.dual")["ns"], r("code.dual")["work"]), "ns"),
        "code.dual.accept_ratio": (_ratio(r("code.dual")["found"], r("code.dual")["work"]), "ratio"),
        "code.closure.words": (r("code.closure")["work"], "count"),
        "code.closure.s": (r("code.closure")["ns"] / 1e9, "s"),
        "code.closure.ns_per_word": (_ratio(r("code.closure")["ns"], r("code.closure")["work"]), "ns"),
        "code.min_distance.calls": (r("code.min_distance")["calls"], "count"),
        "code.min_distance.s": (r("code.min_distance")["ns"] / 1e9, "s"),
        "matrix.full_rank.calls": (r("matrix.full_rank")["calls"], "count"),
        "matrix.full_rank.candidates": (r("matrix.full_rank")["work"], "count"),
        "matrix.full_rank.ns_per_candidate": (
            _ratio(r("matrix.full_rank")["ns"], r("matrix.full_rank")["work"]), "ns"),
        "matrix.full_rank.self_s": (r("matrix.full_rank")["self_ns"] / 1e9, "s"),
        "matrix.inverse.s": (r("matrix.inverse")["ns"] / 1e9, "s"),
        "matrix.gram.s": (r("matrix.gram")["ns"] / 1e9, "s"),
        "mpc.report.calls": (r("mpc.report")["calls"], "count"),
        "mpc.report.self_s": (r("mpc.report")["self_ns"] / 1e9, "s"),
        "mpc.report.duals_per_report": (_ratio(duals_in_reports, r("mpc.report")["calls"]), "ratio"),
        "mpc.build.s": (r("mpc.build")["ns"] / 1e9, "s"),
        "mpc.dual_theorem.s": (r("mpc.dual_theorem")["ns"] / 1e9, "s"),
        "mpc.row_scan.calls": (r("mpc.row_scan")["calls"], "count"),
        "mpc.row_scan.candidates": (r("mpc.row_scan")["work"], "count"),
        "mpc.row_scan.ns_per_candidate": (
            _ratio(r("mpc.row_scan")["ns"], r("mpc.row_scan")["work"]), "ns"),
        "mpc.row_scan.self_s": (r("mpc.row_scan")["self_ns"] / 1e9, "s"),
        "mpc.bound.s": (r("mpc.bound")["ns"] / 1e9, "s"),
        "constructions.certify.calls": (r("constructions.certify")["calls"], "count"),
        "constructions.certify.self_s": (r("constructions.certify")["self_ns"] / 1e9, "s"),
        "notation.parse.calls": (r("notation.parse")["calls"], "count"),
        "notation.parse.s": (r("notation.parse")["ns"] / 1e9, "s"),
        "cli.self_s": (r("cli")["self_ns"] / 1e9, "s"),
        "cli.refusals": (r("cli")["found"], "count"),
        "scenarios.run.self_s": (r("scenarios.run")["self_ns"] / 1e9, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out


# -- ring probe -----------------------------------------------------------------------

PROBE_RINGS = {
    "zn": "Z/25",
    "ext1": "Z/9[x]/(x^2+x+2)",
    "tower2": "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)",
}


def ring_probe(parse_ring, sample=16, repeats=41) -> dict:
    """Median ns per public ``*`` and ``+`` over a fixed element sample."""
    out = {}
    for key, text in PROBE_RINGS.items():
        elements = list(parse_ring(text).elements())
        picked = elements[:: max(1, len(elements) // sample)][:sample]
        pairs = [(a, b) for a in picked for b in picked]
        for op in ("mul", "add"):
            times = []
            for _ in range(repeats):
                start = perf_counter_ns()
                if op == "mul":
                    for a, b in pairs:
                        a * b
                else:
                    for a, b in pairs:
                        a + b
                times.append((perf_counter_ns() - start) / len(pairs))
            out[f"ring.{op}_ns.{key}"] = statistics.median(times)
    return out
