"""sgdmlab benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each experiment goes through the same public calls as `sgdmlab run`:
parse_config -> run_experiment -> emit_outputs into a scratch directory
with all three output formats.  The program receives only the generated
config text; --seed sets every config's run.base_seed.  Load comes from
this one process with no worker pool and BLAS/OpenMP threads pinned to 1,
in a closed loop: the next experiment starts when the previous returns.

--trace 0  runs whole passes over the workload's configs until --seconds
           have passed and at least two passes are done, then prints the
           end-to-end metrics.
--trace 1  runs one untraced and one traced pass over the configs, then
           times run_batch again without a partition on the same inputs,
           and prints the per-layer metrics of the traced pass.  Its
           counts are per pass, so they repeat exactly run to run.
--smoke    runs every workload at a tiny horizon (for the smoke test).

Every experiment is checked: pinned seed-independent window fields, no
diverged seed, no bounds/descent/ledger violation, finite rate medians,
and byte-identical outputs whenever a config runs again.  An experiment
that raises or fails a check counts as failed.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  Spans, the box
description and the full result go to perfbench/.work/<workload>/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"          # must precede the first numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
SETUP_SAMPLES = 11                  # median of these, after one discarded warm-up
WARMUP_HORIZON = 2001
OUTPUTS = ("summary.json", "steps.csv", "windows.csv")

END_TO_END = {
    "seed_steps_per_s": "1/s",
    "experiment_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# Residual and exponent-fit times stay in the per-span table of the result
# file, not here: they read exactly 0 on the heavy-ball workloads, where K_T
# is never reached and no rate is fitted.  Their call counts are here.
PER_LAYER = {
    "config.parse_s": "s",
    "harness.verdicts_self_s": "s",
    "harness.emit_outputs_s": "s",
    "harness.emit_self_s": "s",
    "harness.output_bytes": "bytes",
    "runner.run_batch_s": "s",
    "runner.self_s": "s",
    "runner.window_stream_s": "s",
    "windows.build_partition_calls": "count",
    "windows.build_partition_s": "s",
    "windows.verify_window_lengths_s": "s",
    "windows.applicability_index_calls": "count",
    "windows.applicability_index_s": "s",
    "windows.residual_calls": "count",
    "windows.self_s": "s",
    "windows.n_windows": "count",
    "schedules.step_size_calls": "count",
    "schedules.step_size_s": "s",
    "noise.take_s": "s",
    "noise.vectors": "count",
    "problems.grad_batch_s": "s",
    "problems.grad_batch_calls": "count",
    "problems.f_batch_s": "s",
    "rates.estimate_exponent_calls": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
RESIDUAL_SPANS = ("windows.spread_residual", "windows.gap_residual",
                  "windows.descent_residual", "windows.tail_error_sums",
                  "windows.tail_error_sums_batch")


def load_program():
    """Import sgdmlab from this checkout's src/, never from an installed copy."""
    pkg = SRC / "sgdmlab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no sgdmlab source at {pkg}")
    sys.path.insert(0, str(SRC))
    import sgdmlab
    if Path(sgdmlab.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: imported sgdmlab from {sgdmlab.__file__}, not {pkg}")
    return sgdmlab


def box_description(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed, "base_seed": wl.base_seed(seed)}


def setup_seconds(texts) -> float:
    """Median time to import sgdmlab and parse the configs, in fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    payload = json.dumps(texts)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                             timeout=60, check=True)
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def experiment(sgdmlab, text: str, outdir: Path) -> dict:
    """One experiment as `sgdmlab run` performs it."""
    cfg = sgdmlab.config.parse_config(text)
    summary, batch = sgdmlab.harness.run_experiment(cfg)
    sgdmlab.harness.emit_outputs(summary, batch, cfg, str(outdir))
    return summary.data


def check_summary(data: dict, key, horizon: int, rate_targets) -> list:
    """Violations of the seed-independent pins and the acceptance invariants."""
    errs = []
    win = data.get("windows", {})
    for field, want in wl.pins(key, horizon).items():
        if win.get(field) != want:
            errs.append(f"windows.{field} = {win.get(field)!r}, pinned {want!r}")
    if data.get("n_diverged") != 0:
        errs.append(f"n_diverged = {data.get('n_diverged')!r}")
    for field in ("bounds_violations", "descent_violations", "ledger_violations"):
        if win.get(field) != 0:
            errs.append(f"windows.{field} = {win.get(field)!r}")
    for target in rate_targets:
        med = data.get("rates", {}).get(target, {}).get("median")
        if not isinstance(med, float) or not math.isfinite(med):
            errs.append(f"rates.{target}.median = {med!r}")
    return errs


class Loop:
    """Runs and checks experiments; reruns of a config must match byte for byte."""

    def __init__(self, sgdmlab, workload, seed: int, horizon: int):
        self.sgdmlab = sgdmlab
        self.workload = workload
        self.horizon = horizon
        self.texts = [wl.config_text(k, horizon, seed, workload.rate_targets)
                      for k in workload.keys]
        self.experiment = experiment
        self.first_digests = {}
        self.attempted = self.failed = self.reruns = 0
        self.errors = []

    def warm_up(self):
        """Short untimed experiments, so lazy imports and first-call costs
        land before timing."""
        for key in self.workload.keys:
            text = wl.config_text(key, WARMUP_HORIZON, 0, self.workload.rate_targets)
            experiment(self.sgdmlab, text, WORK / self.workload.name / "warmup")

    def run(self, idx: int):
        """(seconds, summary data, output bytes) of one experiment, or None if it raised."""
        outdir = WORK / self.workload.name / f"config{idx}"
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            data = self.experiment(self.sgdmlab, self.texts[idx], outdir)
        except Exception:
            self._fail(idx, [traceback.format_exc()])
            return None
        elapsed = time.perf_counter() - t0
        errs = check_summary(data, self.workload.keys[idx], self.horizon,
                             self.workload.rate_targets)
        digests, nbytes = {}, 0
        for name in OUTPUTS:
            path = outdir / name
            if not path.is_file():
                errs.append(f"{name} not written")
                continue
            blob = path.read_bytes()
            digests[name] = hashlib.sha256(blob).hexdigest()
            nbytes += len(blob)
        first = self.first_digests.setdefault(idx, digests)
        if first is not digests:
            self.reruns += 1
            errs += [f"{name} differs from the first run of this config"
                     for name in OUTPUTS if digests.get(name) != first.get(name)]
        if errs:
            self._fail(idx, errs)
        return elapsed, data, nbytes

    def _fail(self, idx: int, errs: list):
        self.failed += 1
        self.errors.append({"config": list(self.workload.keys[idx]), "errors": errs})
        for e in errs:
            print(f"FAILED {self.workload.keys[idx]}: {e}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.reruns > 0


def measure(sgdmlab, loop: Loop, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced closed loop, and the raw samples."""
    setup_s = setup_seconds(loop.texts)
    loop.warm_up()
    times = []
    passes = 0
    t0 = time.perf_counter()
    # whole passes keep the config mix, and so the medians, the same in
    # every run; the second pass reruns every config for the byte check
    while passes < 2 or time.perf_counter() - t0 < seconds:
        for i in range(len(loop.texts)):
            out = loop.run(i)
            if out is not None:
                times.append(out[0])
        passes += 1
    if not times:
        raise SystemExit("error: no experiment completed")
    seed_steps = wl.SEEDS * (loop.horizon - 1) * len(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "seed_steps_per_s": seed_steps / sum(times),
        "experiment_s_p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
    }, {"passes": passes, "experiment_s": times}


def measure_traced(sgdmlab, loop: Loop) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass over the workload's configs,
    and the per-span table."""
    import tracing
    harness = sgdmlab.harness
    run_batch = harness.run_batch
    loop.warm_up()
    n = len(loop.texts)

    calls = []          # (bound arguments, seconds) of each untraced run_batch

    def timed_run_batch(*args, **kwargs):
        t0 = time.perf_counter()
        out = run_batch(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        calls.append((inspect.signature(run_batch).bind(*args, **kwargs), elapsed))
        return out

    harness.run_batch = timed_run_batch
    try:
        untraced = [loop.run(i) for i in range(n)]
    finally:
        harness.run_batch = run_batch

    tracer = tracing.Tracer()
    tracer.install(sgdmlab)
    loop.experiment = tracer.wrap("bench.experiment", experiment)
    try:
        traced = [loop.run(i) for i in range(n)]
    finally:
        tracer.restore()
        loop.experiment = experiment
    if tracer.missing:
        print(f"warning: not traced (name not found): {tracer.missing}", file=sys.stderr)

    no_partition = 0.0
    for bound, _ in calls:
        bound.arguments["partition"] = None
        t0 = time.perf_counter()
        run_batch(*bound.args, **bound.kwargs)
        no_partition += time.perf_counter() - t0

    spans = tracer.per_label()
    total = lambda *labels: sum(spans.get(lab, (0, 0.0, 0.0))[1] for lab in labels)
    own = lambda label: spans.get(label, (0, 0.0, 0.0))[2]
    count = lambda label: spans.get(label, (0, 0.0, 0.0))[0]
    layer_self = {}
    for label, (_, _, s) in spans.items():
        layer = label.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    done = [o for o in traced if o is not None]
    metrics = {
        "config.parse_s": total("config.parse_config"),
        "harness.verdicts_self_s": own("harness.run_experiment"),
        "harness.emit_outputs_s": total("harness.emit_outputs"),
        "harness.emit_self_s": own("harness.emit_outputs"),
        "harness.output_bytes": sum(o[2] for o in done),
        "runner.run_batch_s": total("runner.run_batch"),
        "runner.self_s": own("runner.run_batch"),
        "runner.window_stream_s": sum(s for _, s in calls) - no_partition,
        "windows.build_partition_calls": count("windows.build_partition"),
        "windows.build_partition_s": total("windows.build_partition"),
        "windows.verify_window_lengths_s": total("windows.verify_window_lengths"),
        "windows.applicability_index_calls": count("windows.applicability_index"),
        "windows.applicability_index_s": total("windows.applicability_index"),
        "windows.residual_calls": sum(count(lab) for lab in RESIDUAL_SPANS),
        "windows.self_s": layer_self.get("windows", 0.0),
        "windows.n_windows": sum(o[1].get("windows", {}).get("n_windows", 0) for o in done),
        "schedules.step_size_calls": count("schedules.step_size"),
        "schedules.step_size_s": total("schedules.step_size"),
        "noise.take_s": total("noise.take"),
        "noise.vectors": tracer.counts.get("noise.vectors", 0),
        "problems.grad_batch_s": total("problems.grad_batch"),
        "problems.grad_batch_calls": count("problems.grad_batch"),
        "problems.f_batch_s": total("problems.f_batch"),
        "rates.estimate_exponent_calls": count("rates.estimate_exponent"),
        "trace.overhead_s": (sum(o[0] for o in traced if o is not None)
                             - sum(o[0] for o in untraced if o is not None)),
        "trace.spans": len(tracer.end),
    }
    outdir = WORK / loop.workload.name
    tracer.save(outdir / "trace_spans.npz")
    detail = {"spans": {lab: {"calls": c, "total_s": t, "self_s": s}
                        for lab, (c, t, s) in spans.items()},
              "layer_self_s": layer_self, "not_traced": tracer.missing}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"run at horizon {wl.SMOKE_HORIZON} instead of the workload's")
    args = ap.parse_args(argv)

    sgdmlab = load_program()
    workload = wl.WORKLOADS[args.workload]
    horizon = wl.SMOKE_HORIZON if args.smoke else workload.horizon
    (WORK / workload.name).mkdir(parents=True, exist_ok=True)
    loop = Loop(sgdmlab, workload, args.seed, horizon)
    if args.trace:
        values, detail = measure_traced(sgdmlab, loop)
        units = PER_LAYER
    else:
        values, detail = measure(sgdmlab, loop, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": loop.correct, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    box = box_description(args.seed)
    record = dict(result, workload=workload.name, horizon=horizon, trace=args.trace,
                  seconds=args.seconds, box=box, detail=detail, errors=loop.errors)
    with open(WORK / workload.name / f"result_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    print("box: " + json.dumps(box))
    print(f"workload {workload.name}: horizon {horizon}, {len(workload.keys)} configs, "
          f"{loop.attempted} experiments, {loop.reruns} byte-compared reruns")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
