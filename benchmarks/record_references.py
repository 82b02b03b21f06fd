"""Record the reference values that the benchmark's output checks compare with.

    python3 benchmarks/record_references.py

Runs each workload's CLI invocation once per input seed and scale, refuses to
record output that fails the independent checks in ``workloads.py``,
and writes the observed values into ``references.json``.  Re-record only
when the computed quantities are meant to change, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from bench import BENCH_DIR, WORK_ROOT, add_import_paths, cli_command, run_process
from workloads import INPUT_SEEDS, SCALES, WORKLOADS


def record(workload, scale, seed: int) -> dict:
    workdir = WORK_ROOT / f"reference-{workload.name}-{scale.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.prepare(scale, seed, workdir)
    proc = run_process(cli_command(workload.argv(scale, seed)), workdir, timeout_s=600.0)
    if proc.returncode != 0:
        raise SystemExit(f"{workload.name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    problems = workload.verify(scale, seed, workdir)
    if problems:
        raise SystemExit(f"{workload.name} seed {seed}: " + "; ".join(problems))
    return workload.observe(scale, workdir)


def main() -> int:
    add_import_paths()
    references = {"scales": {}}
    for scale_name, scale in sorted(SCALES.items()):
        for name, workload in sorted(WORKLOADS.items()):
            entry = references["scales"].setdefault(scale_name, {}).setdefault(name, {})
            for seed in range(INPUT_SEEDS):
                entry[str(seed)] = record(workload, scale, seed)
                print(f"recorded {scale_name} {name} seed {seed}", flush=True)
    path = BENCH_DIR / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
