"""Seeded benchmark runner for the repository (see README.md).

Run one workload::

    python3 perfbench/run.py --workload genie-sweep --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when every output check passed.

Other modes::

    python3 perfbench/run.py ... --out results.json    # append a record
    python3 perfbench/run.py --compare base.json change.json
    python3 perfbench/run.py --workload genie-sweep --pin 0-15
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

#: (name, unit) of every end-to-end metric, in report order.
#: The rates and chunk cost are host-normalized (``hostref.py``).
END_TO_END = (
    ("pkt_per_ref_s", "pkt/ref_s"),
    ("chunks_per_ref_s", "chunk/ref_s"),
    ("chunk_cpu_p50_ref_ms", "ref_ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
)

#: Wall-time end-to-end timings, whose run-to-run spread on a shared
#: host exceeds any bound the benchmark may set (see README.md), and
#: the host reference itself: printed with ``--trace 0`` and reported,
#: without a bound, among the per-layer metrics.
UNBOUNDED = (
    ("pkt_per_s", "pkt/s"),
    ("chunks_per_s", "chunk/s"),
    ("chunk_rtt_p50_ms", "ms"),
    ("chunk_rtt_p99_ms", "ms"),
    ("cached_curve_ms", "ms"),
    ("host.ref_cpu_ms", "ms"),
)

#: CPUs this process may use, read before a workload narrows them.
USABLE_CPUS = len(os.sched_getaffinity(0))

#: Fresh processes that time their set-up, besides this one.
SETUP_CHILDREN = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids (the self-test)")
    parser.add_argument("--out", help="append the run's record to this "
                                      "JSON list file")
    parser.add_argument("--spans", help="where --trace 1 writes its spans "
                                        "(default under .perfbench_results)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--pin", metavar="FIRST-LAST",
                        help="pin the error counts of these seeds")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required (or --compare)")
    return args


def _percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def _child_setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes: start, import, build, warm up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-only"] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _pin(workload, seeds: str, work: Path) -> int:
    import checks
    first, _, last = seeds.partition("-")
    pinned = {}
    for seed in range(int(first), int(last or first) + 1):
        pinned[str(seed)] = workload.pin(seed, work / f"pin-{seed}")
        print(f"pinned seed {seed}", flush=True)
    checks.save_pins(workload.name, workload.layout(), pinned)
    return 0


def _samples(outcome, *names) -> list:
    # A failed run may leave a metric without samples; it reports 0.
    return [outcome.samples[name] or [0.0] for name in names]


def _unbounded(outcome) -> dict:
    pkt, chunks, rtts, cached, host = _samples(
        outcome, "pkt_per_s", "chunks_per_s", "chunk_rtt_ms",
        "cached_curve_ms", "host_ref_ms")
    return {"pkt_per_s": (statistics.median(pkt), pkt),
            "chunks_per_s": (statistics.median(chunks), chunks),
            "chunk_rtt_p50_ms": (_percentile(rtts, 50), rtts),
            "chunk_rtt_p99_ms": (_percentile(rtts, 99), rtts),
            "cached_curve_ms": (statistics.median(cached), cached),
            "host.ref_cpu_ms": (statistics.median(host), host)}


def _end_to_end(outcome, setup_samples, rss_mb) -> dict:
    pkt, chunks, costs = _samples(outcome, "pkt_per_ref_s",
                                  "chunks_per_ref_s", "chunk_ref_ms")
    return {
        "pkt_per_ref_s": (statistics.median(pkt), pkt),
        "chunks_per_ref_s": (statistics.median(chunks), chunks),
        "chunk_cpu_p50_ref_ms": (_percentile(costs, 50), costs),
        "setup_s": (statistics.median(setup_samples), setup_samples),
        "rss_peak_mb": (rss_mb, [rss_mb]),
    }


def _run_rounds(workload, state, outcome, tracer, seconds: float):
    """Repeat rounds while half of another one fits in ``seconds``.

    Traced runs alternate untraced and traced rounds; the ratio of their
    walls is the tracing overhead.  Returns the rounds' curves and their
    timed walls keyed by whether they were traced.
    """
    curves = []
    walls = {False: [], True: []}
    rounds_s = []
    started = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(curves) % 2 == 1
            round_start = time.perf_counter()
            result, timed = workload.run_round(
                state, len(curves), outcome, tracer if traced else None)
            curves.append(result)
            walls[traced].append(timed.seconds)
            rounds_s.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(rounds_s) / 2 > seconds \
                    and (tracer is None or walls[True]):
                return curves, walls
    except Exception as error:  # noqa: BLE001 - reported, run fails
        traceback.print_exc()
        outcome.check("every round completed", False, repr(error))
        return curves, walls


def _per_layer(args, tracer, outcome, walls) -> dict:
    import layers
    if walls[True]:
        outcome.extras["trace.overhead_frac"].append(
            statistics.median(walls[True])
            / statistics.median(walls[False]) - 1.0)
    values = layers.layer_metrics(tracer, outcome.windows, len(walls[True]),
                                  outcome.extras)
    outcome.check("trace self times reconcile with wall within 2%",
                  values["trace.reconcile_error_frac"] <= 0.02,
                  f"{values['trace.reconcile_error_frac']:.4f}")
    spans = Path(args.spans) if args.spans else RESULTS / (
        f"spans-{args.workload}-seed{args.seed}.jsonl")
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans)
    reported = {name: (value, [value]) for name, value in values.items()}
    reported.update(_unbounded(outcome))
    return reported


def _report(args, rounds: int, outcome, reported: dict, units: dict) -> None:
    """The human-readable summary, and the record when ``--out`` asks."""
    import records
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{rounds} round(s), {len(outcome.checks)} check(s)")
    for name, (value, samples) in reported.items():
        print(f"  {name:42} {value:14.6g} {units[name]:8} (n={len(samples)})")
    print(f"  {'ops_failed_frac':42} {failed_frac:14.6g} {'ratio':8} "
          f"({outcome.failed} of {outcome.attempted})")
    for name, ok, detail in outcome.checks:
        if not ok:
            print(f"  CHECK FAILED: {name} {detail}", file=sys.stderr)
    if args.out:
        records.append(args.out, {
            "schema": records.SCHEMA_VERSION, "workload": args.workload,
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "smoke": args.smoke, "rounds": rounds,
            "correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "ops_failed_frac": failed_frac,
            "checks": [list(check) for check in outcome.checks],
            **records.environment(ROOT, USABLE_CPUS),
            "entries": [records.entry(args.workload, name, units[name],
                                      value, samples)
                        for name, (value, samples) in reported.items()]})


def run(args) -> int:
    import layers
    import workloads
    from tracing import Tracer

    workload = workloads.build(args.workload, smoke=args.smoke)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    state = None
    try:
        if args.pin:
            return _pin(workload, args.pin, work)
        state = workload.setup(args.seed, work)
        setup_s = time.perf_counter() - _PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        outcome = workloads.Outcome()
        tracer = Tracer() if args.trace else None
        curves, walls = _run_rounds(workload, state, outcome, tracer,
                                    args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if curves:
            workload.verify(state, curves, outcome)
        units = dict(END_TO_END + UNBOUNDED + layers.PER_LAYER)
        if tracer is None:
            setup_samples = [setup_s] + _child_setup_seconds(args)
            reported = _end_to_end(outcome, setup_samples, rss_mb)
            reported.update(_unbounded(outcome))
            emitted = dict(END_TO_END)
        else:
            reported = _per_layer(args, tracer, outcome, walls)
            emitted = dict(layers.PER_LAYER + UNBOUNDED)
        _report(args, len(curves), outcome, reported, units)
        print(json.dumps({
            "correct": outcome.correct,
            "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed,
            "metrics": {name: {"value": reported[name][0], "unit": unit}
                        for name, unit in emitted.items()}}))
        return 0 if outcome.correct else 1
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import records
        return records.compare(*args.compare, ROOT / "BENCHMARK.json")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repository source tree at {SRC / 'repro'}; run "
              "this from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
