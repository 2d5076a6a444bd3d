"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reciprocity_lab import funcfield, parsing  # noqa: E402
from reciprocity_lab.fields import field_from_descriptor  # noqa: E402
from reciprocity_lab.parsing import parse_rational  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # 0: [0, 10] has children 1: [1, 4] and 2: [3, 6] (overlapping) and
    # 3: [8, 12] (runs past its parent); 1 has child 4: [2, 3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracer.self_times(starts, ends, parents)
    # children cover [1, 6] and [8, 10] of the root: 5 + 2 = 7
    assert selfs == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_generators_repeat_for_a_seed_and_vary_across_seeds():
    for name, (make_item, _, _) in workloads.WORKLOADS.items():
        first = [make_item(5, i) for i in range(40)]
        assert first == [make_item(5, i) for i in range(40)], name
        assert first != [make_item(6, i) for i in range(40)], name


def test_generated_strings_parse_in_their_field():
    for i in range(64):
        spec = workloads.curve_item(3, i)
        field = field_from_descriptor(spec["field"])
        for key in ("f", "g"):
            assert not parse_rational(spec[key], field).is_zero()


def test_corrupted_golden_digest_is_detected():
    golden = json.loads(run.GOLDEN.read_text())
    runner = run.Runner(deadline=run.time.monotonic() + 120)
    assert run.golden_checks(runner, "curve-laws", golden) == []
    digest = golden["digests"]["curve-laws"]
    golden["digests"]["curve-laws"] = ("0" if digest[0] != "0" else "1") \
        + digest[1:]
    problems = run.golden_checks(runner, "curve-laws", golden)
    assert len(problems) == 1 and "golden" in problems[0]


def test_tracer_patches_import_sites_and_restores_them():
    original = funcfield.factor_polynomial
    spans = tracer.Tracer()
    spans.install()
    try:
        assert funcfield.factor_polynomial is not original
        f = parsing.parse_rational("(t^2-1)/(t+3)",
                                   field_from_descriptor("Fp:7"))
        f.support()
        metrics = spans.metrics()
    finally:
        spans.uninstall()
    assert funcfield.factor_polynomial is original
    assert metrics["funcfield.support.calls"] == (1, "count")
    assert metrics["factor.factor_polynomial.calls"][0] == 2
    assert metrics["parsing.parse.calls"][0] == 1
    assert all(value >= 0 for value, _ in metrics.values())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (_, unit)
                in tracer.Tracer().metrics().items()}
    reported.update({"trace.overhead_ratio": "ratio", "cli.interpreter_ms": "ms",
                     "cli.import_ms": "ms", "cli.main_ms": "ms"})
    assert per_layer == reported


def test_percentile_is_nearest_rank():
    import worker
    values = [float(v) for v in range(1, 101)]
    assert worker.percentile(values, 0.9) == 90.0
    assert worker.percentile([3.0], 0.9) == 3.0
