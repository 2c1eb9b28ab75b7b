"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They trace one call of every workload, so they take about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

from checks import check_report, digest, load_refs  # noqa: E402
from record_refs import stratify  # noqa: E402
from spans import LAYERS, Recorder, Tracer  # noqa: E402
from workloads import BATCHES, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_MAP = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
RUN_WIDE = ("unattributed_s", "trace_overhead_frac")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Layer metrics of one traced call per workload, on its first input."""
    out_dir = tmp_path_factory.mktemp("reports")
    metrics = {}
    for name, workload in WORKLOADS.items():
        batches, refs = load_refs(name)
        seed = batches[0][0]
        recorder = Recorder()
        tracer = Tracer(recorder)
        out = out_dir / f"{name}.csv"
        with tracer:
            status = workload.call(seed, out)
        assert status == 0
        assert check_report(out.read_text(encoding="utf-8"), refs[seed], workload.exact) is None
        metrics[name] = (
            run.layer_metrics(recorder, [t[0] for t in tracer.targets], 1),
            recorder,
        )
    return metrics


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(METRIC_MAP["workloads"]) == set(WORKLOADS)


def test_metric_map_covers_every_per_layer_metric():
    assert list(METRIC_MAP["metrics"]) == PER_LAYER
    for entry in METRIC_MAP["metrics"].values():
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_every_per_layer_metric_is_computed(traced):
    values, _ = traced["theorem1-float"]
    missing = [n for n in PER_LAYER if n not in values and n not in RUN_WIDE]
    assert missing == []


def _evidence(name: str, values: dict, recorder) -> float:
    """The count that shows a metric was exercised at all."""
    if name.endswith(".self_s"):
        span = name[: -len(".self_s")]
        if span in LAYERS:
            return sum(s[0] for n, s in recorder.spans.items() if n.startswith(span + "."))
        return values[f"{span}.calls"]
    if name == "wavepacket.tiles_per_interval":
        return values["wavepacket.batch_inner_products.tiles"]
    if name == "random_gen.disjoint_collection.accept_ratio":
        return values["random_gen.disjoint_collection.draws"]
    return values[name]


@pytest.mark.parametrize(
    "metric",
    [n for n in PER_LAYER if n not in RUN_WIDE],
)
def test_span_coverage_on_mapped_workloads(traced, metric):
    for workload in METRIC_MAP["metrics"][metric]["workloads"]:
        values, recorder = traced[workload]
        assert _evidence(metric, values, recorder) > 0, (metric, workload)


def test_names_imported_by_value_are_rewrapped():
    import walshtf.experiments.cli as cli
    import walshtf.experiments.theorem as theorem
    import walshtf.trees as trees
    from walshtf.experiments import random_gen

    original = random_gen.disjoint_collection
    tracer = Tracer(Recorder())
    with tracer:
        assert theorem.disjoint_collection is random_gen.disjoint_collection
        assert theorem.disjoint_collection is not original
        assert cli.select_trees is trees.select_trees
        assert cli.select_trees.__wrapped__ is not None
        originals = {id(t[3]) for t in tracer.targets}
        for module_name, module in sys.modules.items():
            if module_name.startswith("walshtf"):
                stale = [a for a, v in vars(module).items() if id(v) in originals]
                assert stale == [], (module_name, stale)
    assert theorem.disjoint_collection is original
    assert not hasattr(cli.select_trees, "__wrapped__")


def test_self_time_excludes_children():
    import random

    from walshtf.experiments import random_gen

    recorder = Recorder()
    with Tracer(recorder):
        random_gen.disjoint_collection(random.Random(3), 20, 3, 5)
    calls, total, own = recorder.spans["random_gen.disjoint_collection"]
    draws = recorder.spans["random_gen.random_quartile"]
    assert calls == 1
    assert own == total - draws[1]
    assert recorder.counts["random_gen.disjoint_collection.draws"] == draws[0]
    assert recorder.counts["random_gen.disjoint_collection.accepted"] == 20


def test_exact_check_needs_identical_bytes():
    text = "# report: x\na,b\n1,0.5\n"
    ref = {"sha256": digest(text)}
    assert check_report(text, ref, exact=True) is None
    assert check_report(text.replace("0.5", "0.50"), ref, exact=True) is not None


def test_float_check_tolerance():
    ref_text = "# report: theorem1\n# unit_ratio = 1.0\n# failures = 0\nsize,ratio\n10,0.25\n"
    ref = {"sha256": digest(ref_text), "csv": ref_text}
    assert check_report(ref_text, ref, exact=False) is None
    near = ref_text.replace("0.25", repr(0.25 * (1 + 1e-12)))
    assert check_report(near, ref, exact=False) is None
    far = ref_text.replace("0.25", repr(0.25 * (1 + 1e-6)))
    assert check_report(far, ref, exact=False) is not None
    assert check_report(ref_text.replace("10,", "11,"), ref, exact=False) is not None
    unit = ref_text.replace("unit_ratio = 1.0", "unit_ratio = 0.9999999999999999")
    assert check_report(unit, ref, exact=False) is not None
    failed = ref_text.replace("failures = 0", "failures = 1")
    assert check_report(failed, ref, exact=False) is not None


def test_batches_partition_the_pool():
    for name, workload in WORKLOADS.items():
        batches, refs = load_refs(name)
        assert len(batches) == BATCHES
        assert all(len(b) == workload.inputs_per_batch for b in batches)
        flat = sorted(s for b in batches for s in b)
        assert flat == list(workload.pool) == sorted(refs)


def test_stratify_deals_each_stratum_across_batches():
    costs = {seed: float(seed) for seed in range(12)}
    batches = stratify(costs, 4, "salt")
    for batch in batches:
        assert sorted(seed // 4 for seed in batch) == [0, 1, 2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem1-float", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
