"""Tests of the benchmark itself: generator, oracle, output contract, spans.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [r.argv for r in workloads.generate(workload, 5)]
    assert first == [r.argv for r in workloads.generate(workload, 5)]
    assert first != [r.argv for r in workloads.generate(workload, 6)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_keeps_class_counts(workload):
    for seed in (1, 2):
        counts = collections.Counter(r.cls for r in workloads.generate(workload, seed))
        want = {c: n * workloads.ROUNDS for c, n in workloads.CLASS_COUNTS[workload].items()}
        want["scenario"] = len(workloads.SCENARIOS[workload])
        assert counts == want
        assert sum(counts.values()) > 100


def test_arith_matches_program_notation_and_products():
    from ringcodes import parse_ring

    table = workloads._rings()
    ring_lists = [[entry[0] for entry in table["zn"]], [entry[0] for entry in table["ext"]]]
    ring_lists += [table[k] for k in ("z13", "z25", "z89", "distance", "ext25", "ext81", "violating")]
    for ours in (ring for rings in ring_lists for ring in rings):
        theirs = parse_ring(ours.text)
        assert theirs.description() == ours.text
        elements = list(theirs.elements())
        assert [str(e) for e in elements] == [ours.fmt(i) for i in range(ours.size)]
        step = max(1, ours.size // 9)
        for i in range(0, ours.size, step):
            for j in range(0, ours.size, step):
                assert str(elements[i] * elements[j]) == ours.fmt(ours.mul(i, j))
                assert str(elements[i] + elements[j]) == ours.fmt(ours.add(i, j))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_agrees_with_program(workload):
    cli = __import__("ringcodes.cli").cli
    exits = collections.Counter()
    for request in workloads.generate(workload, 7):
        want = oracle.expected(request.spec)
        code, out, err, _ = run.invoke(cli, request.argv)
        assert oracle.observe(request.spec, code, out, err) == want, request.argv
        exits[want["exit"]] += 1
    assert exits[0] and exits[2]


def test_failures_count_every_repeat_of_a_wrong_output():
    cli = __import__("ringcodes.cli").cli
    requests = workloads.generate("zn-verify", 7)[:2]
    expected = [oracle.expected(r.spec) for r in requests]
    outputs = collections.defaultdict(collections.Counter)
    samples, _, passes = run.closed_loop(cli, requests, outputs, passes=3)
    assert passes == 3 and [k for k, _ in samples] == [0, 1] * 3
    assert all(ns > 0 for _, ns in samples)
    assert sum(sum(t.values()) for t in outputs.values()) == 6
    assert run.count_failures(requests, outputs, expected) == 0
    (code, out, err), repeats = outputs[1].popitem()
    outputs[1][code + 1, out, err] = repeats
    assert run.count_failures(requests, outputs, expected) == repeats


def test_normalized_time_scales_by_the_reference_kernel():
    assert run.normalized(1_000, run.REF_NOMINAL_NS, run.REF_NOMINAL_NS) == 1_000
    assert run.normalized(1_000, run.REF_NOMINAL_NS, 3 * run.REF_NOMINAL_NS) == 500


def _bench_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-distance",
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    metrics = _bench_metrics(trace)
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("cli", 0, 100, -1, 0),
        spans.Span("mpc.report", 10, 40, 0, 0),
        spans.Span("code.dual", 15, 25, 1, 0, work=50, found=5),
        spans.Span("mpc.report", 50, 70, 0, 0),
        spans.Span("mpc.report", 55, 60, 3, 0),
    ]
    assert spans.self_times(tree) == [50, 20, 10, 15, 5]
    rows = spans.summarize(tree)
    assert rows["mpc.report"]["calls"] == 3
    assert rows["mpc.report"]["ns"] == 50  # the nested call is not counted twice
    assert rows["mpc.report"]["self_ns"] == 40
    assert rows["code.dual"]["work"] == 50
    metrics = spans.layer_metrics(tree, {}, 0.0)
    assert metrics["code.dual.ns_per_candidate"] == (10 / 50, "ns")
    assert metrics["code.dual.accept_ratio"] == (0.1, "ratio")
    assert metrics["mpc.report.duals_per_report"] == (1 / 3, "ratio")


def test_tracer_rebinds_imported_names_and_dispatch_tables_and_restores_them():
    import ringcodes.cli
    import ringcodes.mpc

    original = ringcodes.mpc.check_conditions
    family = ringcodes.cli._CONSTRUCT_FAMILIES["diag1"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ringcodes.cli.check_conditions is ringcodes.mpc.check_conditions
        assert ringcodes.cli.check_conditions is not original
        run.invoke(ringcodes.cli, ["reproduce", "ex1"])
        construct = len(tracer.spans)
        code, *_ = run.invoke(ringcodes.cli, ["construct", "diag1", "--ring", "Z/13"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert ringcodes.cli.check_conditions is original is ringcodes.mpc.check_conditions
    assert ringcodes.cli._CONSTRUCT_FAMILIES["diag1"] is family
    names = {s.name for s in tracer.spans}
    assert {"cli", "scenarios.run", "mpc.report", "code.dual"} <= names
    assert all(s.parent < i for i, s in enumerate(tracer.spans))
    certify = [s for s in tracer.spans[construct:] if s.name == "constructions.certify"]
    assert len(certify) == 1 and tracer.spans[certify[0].parent].name == "cli"
