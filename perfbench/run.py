"""Benchmark of the walshtf experiment drivers.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that has `src/walshtf`.  One
process, one thread.  Each timed unit is one in-process driver call
that writes its report to `.perfbench_out/`; every call's report is
checked against its recorded reference.

With `--trace 0` the run reports the end-to-end metrics: the median
wall and CPU time of a call, the process's peak resident memory, and
the median time to start a fresh interpreter, import walshtf and build
the config.  With `--trace 1` it runs the cross-lane agreement checks,
then alternates untraced and traced calls on the same inputs and
reports per-layer span and counter metrics per call.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
for people.  The exit status is 0 when every check passed, 1 when any
failed, and 2 when the checkout has no walshtf sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

from checks import check_report, cross_lane_checks, load_refs
from spans import LAYERS, Recorder, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_STARTS = 5


def bootstrap() -> None:
    """Import walshtf from this checkout's sources, or exit with status 2."""
    package = SRC / "walshtf"
    if not (package / "__init__.py").is_file():
        print(f"error: no walshtf sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import walshtf

    if Path(walshtf.__file__).resolve().parent != package.resolve():
        print(f"error: walshtf was imported from {walshtf.__file__}", file=sys.stderr)
        raise SystemExit(2)


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_times(config: dict) -> list[float]:
    """Seconds from a fresh interpreter's start to an imported, configured walshtf."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import walshtf, walshtf.experiments.cli; "
        "from walshtf.experiments.config import ExperimentConfig; "
        f"ExperimentConfig(**{config!r})"
    )
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            check=True,
            timeout=60,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


class Runner:
    """Times driver calls and checks each report against its reference."""

    def __init__(self, workload, refs: dict[int, dict]) -> None:
        self.workload = workload
        self.refs = refs
        self.out = OUT_DIR / f"{workload.name}.csv"
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def call(self, driver_seed: int, tracer=None) -> tuple[float, float]:
        """Wall and CPU seconds of one checked call."""
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        gc.collect()  # every call starts without the last one's garbage
        status, error = None, None
        with tracer or nullcontext():
            wall, cpu = perf_counter(), process_time()
            try:
                status = self.workload.call(driver_seed, self.out)
            except Exception as exc:  # a crash is a failed call, not a stop
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = perf_counter() - wall, process_time() - cpu
        if error is None and status != 0:
            error = f"exit status {status}"
        if error is None:
            ref = self.refs.get(driver_seed)
            if ref is None:
                error = "no reference report"
            elif not self.out.is_file():
                error = "no report written"
            else:
                error = check_report(
                    self.out.read_text(encoding="utf-8"), ref, self.workload.exact
                )
        if error is not None:
            self.fail(f"driver seed {driver_seed}: {error}")
        return wall, cpu


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n {len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n {len(values)}"


def end_to_end(runner: Runner, seeds: list[int], seconds: float) -> dict:
    setup = setup_times(runner.workload.config)
    runner.call(seeds[-1])  # warm-up: fills lazy caches, not timed
    walls, cpus = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not walls:
        wall, cpu = runner.call(seeds[len(walls) % len(seeds)])
        walls.append(wall)
        cpus.append(cpu)
    metrics = {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    print(f"run_s        {metrics['run_s']:.4f} s   ({_spread(walls)})")
    print(f"cpu_s        {metrics['cpu_s']:.4f} s   ({_spread(cpus)})")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"setup_s      {metrics['setup_s']:.4f} s   ({_spread(setup)})")
    return metrics


def layer_metrics(recorder, span_names, calls: int) -> dict[str, float]:
    """Per-call span and counter metrics of `calls` traced driver calls."""
    per = 1.0 / calls
    out: dict[str, float] = {}
    for name in span_names:
        count, _, own_ns = recorder.spans.get(name, (0, 0, 0))
        out[f"{name}.self_s"] = own_ns * 1e-9 * per
        out[f"{name}.calls"] = count * per
    for layer in LAYERS:
        own_ns = sum(
            s[2] for n, s in recorder.spans.items() if n.startswith(layer + ".")
        )
        out[f"{layer}.self_s"] = own_ns * 1e-9 * per
    counts = recorder.counts
    for key, value in counts.items():
        out[key] = value * per
    intervals = counts["wavepacket.batch_inner_products.intervals"]
    out["wavepacket.tiles_per_interval"] = (
        counts["wavepacket.batch_inner_products.tiles"] / intervals if intervals else 0.0
    )
    draws = counts["random_gen.disjoint_collection.draws"]
    out["random_gen.disjoint_collection.accept_ratio"] = (
        counts["random_gen.disjoint_collection.accepted"] / draws if draws else 0.0
    )
    return out


def per_layer(runner: Runner, seeds: list[int], seconds: float, seed: int) -> dict:
    runner.attempted += 1
    disagreements = cross_lane_checks(seed)
    if disagreements:
        runner.fail("cross-lane: " + "; ".join(disagreements))
    print(f"cross-lane checks: {'; '.join(disagreements) or 'ok'}")
    runner.call(seeds[-1])  # warm-up: fills lazy caches, not timed
    recorder = Recorder()
    tracer = Tracer(recorder)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        driver_seed = seeds[len(traced) % len(seeds)]
        plain.append(runner.call(driver_seed)[0])
        traced.append(runner.call(driver_seed, tracer)[0])
    metrics = layer_metrics(recorder, [t[0] for t in tracer.targets], len(traced))
    metrics["unattributed_s"] = (sum(traced) - recorder.covered_ns * 1e-9) / len(traced)
    metrics["trace_overhead_frac"] = sum(traced) / sum(plain) - 1.0
    print(f"traced calls {len(traced)}, overhead {metrics['trace_overhead_frac']:.3f}")
    print("top self times per call:")
    ranked = sorted(
        (k for k in metrics if k.endswith(".self_s") and k.count(".") > 1),
        key=metrics.get,
        reverse=True,
    )
    for key in ranked[:15]:
        print(f"  {metrics[key]:9.4f} s  {key}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    batches, refs = load_refs(workload.name)
    seeds = batches[args.seed % len(batches)]
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(workload, refs)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "driver_seeds": seeds,
        "command": workload.command,
        "config": workload.config,
        "inputs": workload.properties,
        "machine": machine(),
    }
    print(f"record: {json.dumps(record)}")
    if args.trace:
        values = per_layer(runner, seeds, args.seconds, args.seed)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runner, seeds, args.seconds)
        wanted = spec["end_to_end"]
    fail_frac = runner.failed / runner.attempted
    print(f"fail_frac    {fail_frac:.4f}   ({runner.failed} of {runner.attempted})")
    for reason in runner.reasons:
        print(f"FAILED {reason}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
