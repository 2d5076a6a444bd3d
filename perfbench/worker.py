"""One fresh benchmark process: set up, run items in a closed loop, report.

    python3 perfbench/worker.py --workload W --seed N (--seconds S | --items K)
                                [--trace] [--in-process] [--setup-only]

Prints one JSON object.  Set-up time runs from before the library import to
after the workload's fields are built, before the first item.  The loop has
one client: the next item starts when the previous one has finished.  A
time-bounded run stops at the first item boundary after S seconds once at
least MIN_ITEMS items were attempted.  A per-item watchdog turns a hang into
a failed run.  The process never touches the library's factorization cache,
so nothing carries over between runs.

Every PROBE_EVERY_S the loop also times a fixed pure-Python loop, the
machine probe, outside the item times.  Shared machines change speed: on a
2-vCPU virtual machine (Python 3.11) the same items ran up to 1.6x faster
for a minute at a time, with no CPU time stolen, which no run length
averages away.  Every time the worker reports is
therefore scaled by (REFERENCE_PROBE_S / median probe) ** PROBE_ELASTICITY.
Library time moves less than the probe, and by how much changes with the
host's load: fitted on batches of ten 20 s runs, the best exponent ranged
from 0.5 to 0.85 between batches and workloads.  0.65 keeps the worst
quartile spread of items_per_s, item_p50_ms and item_p90_ms over those
batches lowest (curve-laws 0.35 unscaled, 0.12 scaled); 1.0 over-corrected
on most of them.
The scale does not depend on the library, so a change to the library moves
the reported times as it moves the measured ones.  Raw values are reported
beside the scaled ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ITEMS = 100
ITEM_TIMEOUT_S = 60
EXIT_BENCH_ERROR = 3
EXIT_HANG = 4
PROBE_EVERY_S = 0.2
SETUP_PROBE_COUNT = 15
REFERENCE_PROBE_S = 0.004
PROBE_ELASTICITY = 0.65


class ItemTimeout(BaseException):
    """Raised by the watchdog; a BaseException so no library handler eats it."""


def _alarm(signum, frame):
    raise ItemTimeout()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least a share q of the values are <= it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def machine_probe() -> float:
    """Seconds taken by a fixed loop of Fraction and dict work."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 1000):
        acc += Fraction(i % 97, i % 89 + 1)
        table[i % 64] = acc.numerator % 7
    return time.perf_counter() - start


def time_scale(probes: list[float]) -> float:
    """Factor that takes measured seconds to reference-machine seconds."""
    return (REFERENCE_PROBE_S / statistics.median(probes)) ** PROBE_ELASTICITY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--items", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--in-process", action="store_true",
                        help="cli-readme: call cli.main instead of a subprocess")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import reciprocity_lab  # noqa: F401  (the import is what set-up times)
    import workloads
    from reciprocity_lab.errors import ReciprocityError
    fields = workloads.build_fields(args.workload)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        scale = time_scale([machine_probe()
                            for _ in range(SETUP_PROBE_COUNT)])
        print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s}))
        return 0

    make_item, run_item, _ = workloads.WORKLOADS[args.workload]
    if args.workload == "cli-readme":
        golden = json.loads((Path(__file__).parent / "golden.json")
                            .read_text())["cli-readme"]
        in_process = args.in_process

        def run_item(spec, _fields):
            return workloads.run_cli(spec, golden, in_process)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])

    signal.signal(signal.SIGALRM, _alarm)
    digest = hashlib.sha256()
    latencies: list[float] = []
    census: Counter = Counter()
    mismatches: list[str] = []
    passed = 0
    index = 0
    probes = [machine_probe()]
    loop_start = last_probe = time.perf_counter()
    probing_s = 0.0
    while True:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            began = time.perf_counter()
            probes.append(machine_probe())
            last_probe = time.perf_counter()
            probing_s += last_probe - began
        elapsed = time.perf_counter() - loop_start
        if args.items is not None and index >= args.items:
            break
        if args.seconds is not None and elapsed >= args.seconds \
                and index >= MIN_ITEMS:
            break
        spec = make_item(args.seed, index)
        if tracer is not None:
            tracer.item = index
        signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            out = run_item(spec, fields)
            passed += 1
        except ReciprocityError as exc:
            out = f"refused:{type(exc).__name__}"
            census[type(exc).__name__] += 1
        except workloads.CheckFailed as exc:
            out = f"check-failed:{exc}"
            census["CheckFailed"] += 1
            mismatches.append(f"item {index} {spec}: {exc}")
        except ItemTimeout:
            print(f"watchdog: item {index} ran past {ITEM_TIMEOUT_S}s: {spec}",
                  file=sys.stderr)
            return EXIT_HANG
        except Exception:  # noqa: BLE001  outside errors.py: a benchmark error
            import traceback
            traceback.print_exc()
            print(f"benchmark error on item {index}: {spec}", file=sys.stderr)
            return EXIT_BENCH_ERROR
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(time.perf_counter() - t0)
        digest.update(out.encode() + b"\n")
        index += 1
    wall = time.perf_counter() - loop_start - probing_s
    scale = time_scale(probes)
    raw = {"setup_s": setup_s, "items_per_s": passed / wall,
           "item_p50_ms": 1000 * statistics.median(latencies),
           "item_p90_ms": 1000 * percentile(latencies, 0.9)}

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-readme" \
        and not args.in_process else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s * scale,
        "attempted": index,
        "passed": passed,
        "census": dict(sorted(census.items())),
        "mismatches": mismatches[:10],
        "wall_s": wall,
        "items_per_s": raw["items_per_s"] / scale,
        "item_p50_ms": raw["item_p50_ms"] * scale,
        "item_p90_ms": raw["item_p90_ms"] * scale,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "probe_ms": 1000 * statistics.median(probes),
        "raw": raw,
    }
    if tracer is not None:
        result["layers"] = {
            name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in tracer.metrics().items()}
        out_dir = ROOT / ".perfbench-out"
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
