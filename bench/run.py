"""Closed-loop benchmark of the ringcodes command line.

Usage, from the repository root:

    python3 bench/run.py --workload zn-verify --seed 1 --seconds 30 --trace 0

One client issues one request at a time, in one process and one thread.
Each request is a separate ``ringcodes.cli.main(argv)`` call with
``--format json``, so interpreter start-up is never timed; importing
``ringcodes`` and generating the seeded request pass is set-up, timed
on its own.  Whole passes repeat for about ``--seconds``.  Every timing
is normalized to the machine's current speed by a fixed reference
kernel timed next to it (``reference_ns``).  After
the timed loop every output is checked against the oracle in
``oracle.py`` (cached per seed under ``bench/.out/``), and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and then replays the same requests with spans
recorded around every layer boundary (``spans.py``); it reports the
per-layer metrics, the tracing overhead (traced minus untraced
normalized time), and ns per ring operation from a fixed probe.  It
writes the spans to ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
SETUP_REPEATS = 9
#: Nominal time of ``reference_ns``'s kernel.  A time t measured while the
#: kernel took r is reported as t * REF_NOMINAL_NS / r: the time the work
#: would take on a machine where the kernel takes exactly 0.3 ms (close to
#: its fastest on a 2-vCPU Intel Xeon KVM guest with Python 3.11).
REF_NOMINAL_NS = 300_000

sys.path.insert(0, str(BENCH))

import arith  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="request seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


_REF_RING = arith.Ext(arith.Zn(9), (2, 1, 1))
_REF_PAIRS = [(_REF_RING.decode(a), _REF_RING.decode(b))
              for a in range(1, 81, 5) for b in range(2, 81, 11)]


def _kernel_ns() -> int:
    start = perf_counter_ns()
    for a, b in _REF_PAIRS:
        _REF_RING._poly_mul(a, b)
    return perf_counter_ns() - start


def reference_ns() -> int:
    """Time a fixed pure-Python kernel: the machine-speed yardstick.

    The host shares its cores, and the speed of interpreted code on it
    swings by up to 2x within seconds and drifts over tens of minutes.  The
    kernel (polynomial products over Z/9, the benchmark's own code, never
    ``ringcodes``) slows down with the program, so a time divided by the
    kernel's time next to it is steady.  A change to the program does not
    change the kernel, so it still shows in full.  The faster of two runs
    leaves out a stray interrupt.
    """
    return min(_kernel_ns(), _kernel_ns())


def normalized(ns: int, ref_before: int, ref_after: int) -> float:
    """``ns`` at nominal machine speed, given the kernel's times around it."""
    return ns * REF_NOMINAL_NS * 2 / (ref_before + ref_after)


def set_up(workload: str, seed: int):
    """Import ringcodes and generate the pass, several times; median seconds."""
    times = []
    before = reference_ns()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "ringcodes" or n.startswith("ringcodes.")]:
            del sys.modules[name]
        start = perf_counter_ns()
        cli = importlib.import_module("ringcodes.cli")
        requests = workloads.generate(workload, seed)
        ns = perf_counter_ns() - start
        after = reference_ns()
        times.append(normalized(ns, before, after) / 1e9)
        before = after
    return cli, requests, statistics.median(times)


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue(), err.getvalue(), perf_counter_ns() - start


def closed_loop(cli, requests, outputs, seconds=None, passes=None, tracer=None):
    """Issue whole passes, in order, for about ``seconds`` or for ``passes``.

    Timed runs stop at the pass boundary nearest ``seconds``, so every run
    measures the same mix however the seed ordered it.  The reference
    kernel runs between requests.  Each request's outputs are tallied in
    ``outputs[index]``, so identical repeats are kept once and memory does
    not grow with the run.  Returns (index, normalized latency ns) per
    request, the wall time in seconds and the number of passes.
    """
    samples = []
    start = perf_counter()
    done = 0
    before = reference_ns()
    while True:
        for k, request in enumerate(requests):
            if tracer is not None:
                tracer.request = len(samples)
            code, out, err, ns = invoke(cli, request.argv)
            after = reference_ns()
            samples.append((k, normalized(ns, before, after)))
            outputs[k][code, out, err] += 1
            before = after
        done += 1
        elapsed = perf_counter() - start
        if done == passes or (passes is None and elapsed + elapsed / done / 2 >= seconds):
            return samples, elapsed, done


def _source_digest() -> str:
    h = hashlib.sha256()
    for name in ("arith.py", "workloads.py", "oracle.py"):
        h.update((BENCH / name).read_bytes())
    return h.hexdigest()[:16]


def expected_verdicts(workload: str, seed: int, requests) -> list:
    """Oracle verdicts for the pass, cached per workload, seed and oracle source."""
    path = OUT / f"oracle-{workload}-{seed}-{_source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text())
    verdicts = [oracle.expected(r.spec) for r in requests]
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(verdicts))
    tmp.replace(path)
    return verdicts


def count_failures(requests, outputs, expected) -> int:
    """Requests issued whose verdict differs from the oracle's."""
    failed = shown = 0
    for k, tally in sorted(outputs.items()):
        for (code, out, err), repeats in tally.items():
            seen = oracle.observe(requests[k].spec, code, out, err)
            if seen != expected[k]:
                failed += repeats
                shown += 1
                if shown <= 5:
                    print(f"MISMATCH {' '.join(requests[k].argv)}\n  expected {expected[k]}\n"
                          f"  observed {seen}\n  stderr {err.strip()[:200]}", file=sys.stderr)
    return failed


def end_to_end(samples, setup_s) -> dict:
    """Timing metrics over each request's median normalized time across passes.

    A request's normalized time can still be off when the machine's speed
    changes between the kernel runs around it, so one sample per request
    is the median of its repeats (one per pass).
    """
    repeats: dict[int, list] = {}
    for k, ns in samples:
        repeats.setdefault(k, []).append(ns / 1e6)
    ms = [statistics.median(v) for v in repeats.values()]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(cli, requests, outputs, seconds, workload, seed):
    """Untraced half, then the same requests traced; per-layer metrics."""
    plain, _, passes = closed_loop(cli, requests, outputs, seconds=seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _, _ = closed_loop(cli, requests, outputs, passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
    probe = spans.ring_probe(sys.modules["ringcodes.notation"].parse_ring)
    overhead_ns = sum(ns for _, ns in traced) - sum(ns for _, ns in plain)
    metrics = spans.layer_metrics(tracer.spans, probe, overhead_ns / 1e9)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.request, s.work, s.found]))
            fh.write("\n")
    rows = spans.summarize(tracer.spans)
    total = sum(row["self_ns"] for row in rows.values()) or 1
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"self {name:24s} {row['self_ns'] / 1e9:9.3f} s {100 * row['self_ns'] / total:5.1f}%"
              f"  calls {row['calls']}", file=sys.stderr)
    return plain + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ringcodes" / "cli.py").is_file():
        print(f"error: no ringcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    # The program reads its default budget from here; the mixes assume the default.
    os.environ.pop("RINGCODES_BUDGET", None)

    cli, requests, setup_s = set_up(args.workload, args.seed)
    outputs = collections.defaultdict(collections.Counter)
    if args.trace:
        samples, metrics = traced_run(
            cli, requests, outputs, args.seconds, args.workload, args.seed)
    else:
        samples, _, _ = closed_loop(cli, requests, outputs, seconds=args.seconds)
        metrics = end_to_end(samples, setup_s)

    expected = expected_verdicts(args.workload, args.seed, requests)
    failed = count_failures(requests, outputs, expected)
    if args.trace:
        metrics["error_rate"] = (failed / len(samples), "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
