"""arrayforge benchmark: runs one workload and prints its metrics.

    python3 benchmarks/bench.py --workload crb-maps --seed 3 --seconds 35 --trace 0

With ``--trace 0`` it runs ``python -m arrayforge ...`` as a subprocess,
one invocation at a time, until the next invocation would overrun
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
runs one untraced invocation, one traced invocation (``tracer.py``, which
calls ``arrayforge.cli.main`` in-process with every layer wrapped) and the
layer microbenchmarks, and reports the per-layer metrics.  Every
invocation's artifacts are checked outside the timed interval; see
``workloads.py``.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give each metric with its unit, the error rate and a machine fingerprint;
the full result, with samples and fingerprint, goes to
``.bench_work/<workload>-<scale>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import CRB_STATUSES, INPUT_SEEDS, SCALES, WORKLOADS, compare_with_reference

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_PROBES = 15
SETUP_PROBE = "import sys\nimport arrayforge.cli\narrayforge.cli.parse_and_validate(sys.argv[1:])\n"
# Every process is killed once the run has lasted this long, so the run
# ends within 180 s even if the program hangs.
RUN_DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Process:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def run_process(cmd, cwd: Path, timeout_s: float) -> Process:
    """Run ``cmd`` to completion; wall time and its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "process.stdout", "wb") as out, open(cwd / "process.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (cwd / "process.stderr").read_text(encoding="utf-8", errors="replace")
    return Process(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr[-2000:])


def artifact_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(item.relative_to(path)).encode() + b"\0" + item.read_bytes() + b"\0")
    return digest.hexdigest()


def fingerprint() -> dict:
    """What the results depend on besides the code: cores, CPU, BLAS setup."""
    import numpy as np

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
    except OSError:
        models = []
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


class Run:
    """Invocations of one run: their checks, timings and failures.

    Every invocation's artifacts are checked; repeats within the run must be
    byte-identical to the first, which is checked in full.
    """

    def __init__(self, workload, scale, seed: int, workdir: Path, reference) -> None:
        self.workload, self.scale, self.seed = workload, scale, seed
        self.workdir, self.reference = workdir, reference
        self.argv = workload.argv(scale, seed)
        self.started = time.perf_counter()
        self.attempted = 0
        self.problems = []
        self.digest = None
        self.first_problems = []

    def timeout(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def invoke(self, cmd) -> Process:
        """One checked CLI invocation, writing into a fresh ``out``."""
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        proc = run_process(cmd, self.workdir, self.timeout())
        self.record(self.check(proc))
        return proc

    def check(self, proc: Process) -> list:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            digest = artifact_digest(self.workdir / "out")
            if self.digest is None:
                problems = self.workload.verify(self.scale, self.seed, self.workdir)
                problems += compare_with_reference(
                    self.workload.observe(self.scale, self.workdir), self.reference
                )
                self.digest, self.first_problems = digest, problems
            elif digest != self.digest:
                return ["artifacts differ from the first invocation of this run"]
            return self.first_problems
        except Exception as exc:  # a malformed artifact is a failed check, not a crash
            return [f"output check raised {exc!r}"]

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(problems)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)

    def setup_probe(self) -> float:
        proc = run_process([sys.executable, "-c", SETUP_PROBE, *self.argv], self.workdir, self.timeout())
        self.record([] if proc.returncode == 0 else [f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}"])
        return proc.wall_s


def cli_command(argv) -> list:
    return [sys.executable, "-m", "arrayforge", *argv]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced(run: Run, seconds: float) -> tuple:
    """End-to-end metrics and the text lines describing them."""
    setup, walls, rss = [], [], []

    def probe_until(count):
        while len(setup) < count:
            setup.append(run.setup_probe())

    # Set-up probes are spread over the run in proportion to the time
    # measured, so that they see the same machine load as the invocations.
    probe_until(1)
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        proc = run.invoke(cli_command(run.argv))
        walls.append(proc.wall_s)
        rss.append(proc.peak_rss_mb)
        probe_until(math.ceil(SETUP_PROBES * min(1.0, sum(walls) / seconds)))
        if run.timeout() <= 0:
            break
    probe_until(SETUP_PROBES)
    work = run.workload.work_units(run.scale)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "work_per_s": statistics.median(work / w for w in walls),
    }
    q1, q3 = quartiles(walls)
    notes = {
        "wall_s": f"median of {len(walls)} invocations, quartiles {q1:.4f} .. {q3:.4f}",
        "setup_s": f"median of {len(setup)} subprocesses",
        "peak_rss_mb": "median over invocations of each process's maximum",
        "work_per_s": f"{run.workload.work_name}: {work} units per invocation",
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, notes, samples


def traced(run: Run) -> tuple:
    """Per-layer metrics: one untraced and one traced invocation, microbenchmarks.

    If the traced invocation fails, its failure is recorded and no metrics
    are measured.
    """
    from layers import microbenchmarks
    from tracer import span_cost_s

    plain = run.invoke(cli_command(run.argv))
    spans, summary_path = run.workdir / "spans.jsonl", run.workdir / "trace_summary.json"
    summary_path.unlink(missing_ok=True)
    tracer_cmd = [
        sys.executable, str(TRACER), "--spans", str(spans),
        "--summary", str(summary_path), "--", *run.argv,
    ]
    with_trace = run.invoke(tracer_cmd)
    if with_trace.returncode != 0:
        return {}, {}, {"untraced_wall_s": plain.wall_s, "traced_wall_s": with_trace.wall_s}
    summary = json.loads(summary_path.read_text(encoding="utf-8"))

    sweep_argv = WORKLOADS["sweep-mixed"].argv(run.scale, run.seed)
    metrics = microbenchmarks(run.scale, run.seed, run.workdir, run.argv, sweep_argv)
    metrics["cli.import_s"] = summary["import_s"]
    for layer, entry in summary["layers"].items():
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    metrics["fileio.bytes_written"] = summary["bytes_written"]
    cells = summary["cells"]
    for status in CRB_STATUSES:
        metrics[f"crb_eval.cells_{status.replace('-', '_')}"] = cells.get(status, 0)
    attempted = sum(cells.values())
    metrics["crb_eval.ok_ratio"] = cells.get("ok", 0) / attempted if attempted else 0.0
    metrics["trace.spans"] = summary["spans"]
    # Both processes start the interpreter, import the package and run the
    # same argv; the traced one also installs the wrappers, records every
    # span and writes them out.  One sample of each, so where tracing costs
    # less than the run-to-run spread the difference is noise.
    metrics["trace.overhead_s"] = with_trace.wall_s - plain.wall_s
    # The same cost from the parts of the traced process that tracing adds.
    span_cost = span_cost_s()
    metrics["trace.estimated_overhead_s"] = (
        summary["install_s"] + summary["spans"] * span_cost + summary["finish_s"]
    )
    notes = {
        "trace.overhead_s": f"traced {with_trace.wall_s:.4f} s - untraced {plain.wall_s:.4f} s, one sample each",
        "trace.estimated_overhead_s": (
            f"install {summary['install_s']:.4f} s + {summary['spans']} spans x {span_cost * 1e6:.3f} us"
            f" + summarise and write {summary['finish_s']:.4f} s"
        ),
        "crb_eval.ok_ratio": f"{cells.get('ok', 0)} ok of {attempted} cells",
    }
    for layer, entry in summary["layers"].items():
        notes[f"{layer}.self_s"] = f"{entry['self_s'] / summary['run_s']:.1%} of the {summary['run_s']:.4f} s traced run"
    samples = {"untraced_wall_s": plain.wall_s, "traced_wall_s": with_trace.wall_s, "trace_summary": summary}
    return metrics, notes, samples


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def add_import_paths() -> None:
    """Make the checkout's package and test oracles importable."""
    for path in (str(ROOT / "tests"), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one arrayforge benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper",
                        help="problem sizes; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "arrayforge" / "__init__.py").is_file():
        print(f"error: no arrayforge sources under {SRC}", file=sys.stderr)
        return 2
    add_import_paths()
    workload, scale = WORKLOADS[args.workload], SCALES[args.scale]
    seed = args.seed % INPUT_SEEDS
    references = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    reference = references["scales"].get(scale.name, {}).get(workload.name, {}).get(str(seed))
    units = declared_metrics(bool(args.trace))

    workdir = WORK_ROOT / f"{workload.name}-{scale.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.prepare(scale, seed, workdir)
    run = Run(workload, scale, seed, workdir, reference)
    if args.trace:
        metrics, notes, samples = traced(run)
    else:
        metrics, notes, samples = untraced(run, args.seconds)
    failed = len(run.problems)
    if not failed and set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    machine = fingerprint()
    print(f"workload {workload.name} ({scale.name}), seed {args.seed} -> input seed {seed}, "
          f"trace {args.trace}")
    for name in filter(metrics.__contains__, units):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {metrics[name]:>16.6g} {units[name]}{note}")
    print(f"  {'error_rate':<40} {failed / run.attempted:>16.6g} ratio  ({failed} of {run.attempted} failed)")
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    detail = dict(result, args=vars(args), input_seed=seed, fingerprint=machine,
                  samples=samples, problems=run.problems)
    (workdir / "result.json").write_text(json.dumps(detail, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
