"""The reciprocity-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-golden

Run from the root of a checkout.  Every measurement happens in a fresh
worker process (perfbench/worker.py), so no run sees a factorization cache
filled by an earlier one.  One run of a workload:

1. starts SETUP_RUNS fresh workers that only import the library and build
   the workload's fields; `setup_s` is the median of those and the main
   worker's own set-up;
2. untraced (--trace 0): runs the closed loop for S seconds and reports the
   end-to-end metrics;
   traced (--trace 1): runs TRACE_ITEMS[workload] items untraced, then the
   same items traced, and reports the per-layer metrics, including the
   tracing overhead and the cost of the command line;
3. for a library workload, replays the first PREFIX_ITEMS[workload] items of
   the recorded seed in two fresh workers with different PYTHONHASHSEED
   values; both digests must equal the golden digest.  cli-readme checks
   every command's stdout and exit code against its golden copy instead.

Times are scaled by the machine probe (see worker.py) because shared
machines change speed by up to 1.6x for a minute at a time; the unscaled
values are printed and kept in the result file.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `failed` counts items whose
output was wrong: a report with `ok` false or a cross-check that did not
hold.  An item the library refuses with one of its documented errors
(errors.py) is an answer, not a wrong output; refusals are counted by class
in the failure census, and they lower `pass_ratio` and `items_per_s`, which
count only items that passed.  The run exits 1 when an output check failed,
and 2 without a result when the benchmark could not run at all (for example
when the library's source is missing).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import machine_probe, time_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("curve-laws", "lattice-oracle", "surface-laws", "cli-readme")
LIBRARY_WORKLOADS = WORKLOADS[:3]
RECORDED_SEED = 1
# Golden prefixes: every item kind of the workload appears at least twice.
PREFIX_ITEMS = {"curve-laws": 64, "lattice-oracle": 60, "surface-laws": 16}
# Traced runs process a fixed number of items, so their counts repeat exactly.
TRACE_ITEMS = {"curve-laws": 320, "lattice-oracle": 120, "surface-laws": 24,
               "cli-readme": 32}
SETUP_RUNS = 9
HASH_SEEDS = ("1", "2")
DEADLINE_S = 170

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms",
                    "item_p90_ms": "ms", "pass_ratio": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


class Runner:
    """Starts workers against one deadline for the whole run."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def worker(self, *args: str, hash_seed: str | None = None) -> dict:
        env = dict(os.environ)
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = hash_seed
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            done = subprocess.run([sys.executable, str(WORKER), *args],
                                  capture_output=True, text=True, env=env,
                                  timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args} did not finish in time") from exc
        if done.returncode != 0:
            raise BenchError(f"worker {args} exited {done.returncode}:\n"
                             + done.stderr[-3000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def wall_ms(self, *argv: str) -> float:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True, env=env,
                       timeout=max(1.0, self.deadline - time.monotonic()),
                       capture_output=True)
        return 1000 * (time.perf_counter() - start)


def provenance(probe_ms: float) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": source.hexdigest(), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0], "machine_probe_ms": probe_ms}


def golden_checks(runner: Runner, workload: str, golden: dict) -> list[str]:
    """Replay the recorded prefix under two hash seeds; return the problems."""
    if workload not in LIBRARY_WORKLOADS:
        return []
    digests = [runner.worker("--workload", workload,
                             "--seed", str(RECORDED_SEED),
                             "--items", str(PREFIX_ITEMS[workload]),
                             hash_seed=h)["digest"] for h in HASH_SEEDS]
    problems = []
    if digests[0] != digests[1]:
        problems.append(f"digest depends on PYTHONHASHSEED: {digests}")
    if digests[0] != golden["digests"][workload]:
        problems.append(f"digest {digests[0]} != golden "
                        f"{golden['digests'][workload]}")
    return problems


def cli_costs(runner: Runner) -> dict:
    """Interpreter start, package import, and in-process cli.main, in ms."""
    probes = [machine_probe() for _ in range(10)]
    bare = statistics.median(runner.wall_ms("-c", "pass") for _ in range(5))
    imported = statistics.median(
        runner.wall_ms("-c", "import reciprocity_lab.cli") for _ in range(5))
    scale = time_scale(probes + [machine_probe() for _ in range(10)])
    main_ms = runner.worker("--workload", "cli-readme", "--seed", "1",
                            "--items", "16", "--in-process")["item_p50_ms"]
    return {"cli.interpreter_ms": (bare * scale, "ms"),
            "cli.import_ms": ((imported - bare) * scale, "ms"),
            "cli.main_ms": (main_ms, "ms")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(time.monotonic() + DEADLINE_S)
    golden = json.loads(GOLDEN.read_text())
    setup_runs = [runner.worker("--workload", workload, "--seed", str(seed),
                                "--setup-only") for _ in range(SETUP_RUNS)]
    setups = [done["setup_s"] for done in setup_runs]
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        fixed = base + ["--items", str(TRACE_ITEMS[workload])]
        if workload == "cli-readme":
            fixed.append("--in-process")
        plain = runner.worker(*fixed)
        main = runner.worker(*fixed, "--trace")
        layers = dict(main["layers"])
        layers["trace.overhead_ratio"] = (
            plain["items_per_s"] / main["items_per_s"], "ratio")
        layers.update(cli_costs(runner))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        main = runner.worker(*base, "--seconds", str(seconds))
        setups.append(main["setup_s"])
        values = {"items_per_s": main["items_per_s"],
                  "item_p50_ms": main["item_p50_ms"],
                  "item_p90_ms": main["item_p90_ms"],
                  "pass_ratio": main["passed"] / main["attempted"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    problems = [f"cross-check: {m}" for m in main["mismatches"]]
    problems += golden_checks(runner, workload, golden)
    failed = main["census"].get("CheckFailed", 0)
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": not problems and failed == 0,
            "attempted": main["attempted"], "failed": failed,
            "refused": main["attempted"] - main["passed"] - failed,
            "census": main["census"], "problems": problems,
            "wall_s": main["wall_s"],
            "unscaled": dict(main["raw"], setup_runs_s=[
                done["raw_setup_s"] for done in setup_runs]),
            "metrics": metrics, "provenance": provenance(main["probe_ms"])}


def print_run(result: dict) -> None:
    attempted = result["attempted"]
    census = ", ".join(f"{name}={count}" for name, count
                       in result["census"].items()) or "none"
    print(f"workload {result['workload']}: {attempted} items in "
          f"{result['wall_s']:.2f} s (latency percentiles over all "
          f"{attempted} items)")
    not_passed = result["refused"] + result["failed"]
    print(f"fail_ratio {not_passed / attempted:.4f} ({not_passed}/{attempted}: "
          f"{result['refused']} refused, {result['failed']} wrong); "
          f"by class: {census}")
    print("unscaled: " + json.dumps(result["unscaled"], sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one row of metrics per workload."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{workload}: benchmark error\n{done.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        cells = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                          for name, m in result["metrics"].items())
        verdict = "ok" if result["correct"] else "OUTPUT CHECK FAILED"
        print(f"{workload:15s} {verdict}  attempted={result['attempted']} "
              f"failed={result['failed']}  {cells}")
        if not result["correct"]:
            status = 1
    return status


def record_golden() -> int:
    """Rewrite golden.json from the current library: a deliberate act, since
    the golden bytes are what every later run is held to."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    runner = Runner(time.monotonic() + 600)
    golden: dict = {"recorded_seed": RECORDED_SEED, "prefix_items": PREFIX_ITEMS,
                    "digests": {}, "cli-readme": {}}
    for workload in LIBRARY_WORKLOADS:
        golden["digests"][workload] = runner.worker(
            "--workload", workload, "--seed", str(RECORDED_SEED),
            "--items", str(PREFIX_ITEMS[workload]))["digest"]
    for argv in workloads.README_COMMANDS:
        argv = list(argv) + ["--json"]
        code, stdout = workloads.cli_subprocess(argv)
        golden["cli-readme"][workloads.command_key(argv)] = {
            "exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reciprocity_lab" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1, sort_keys=True))
    print_run(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
