"""Span tracer for one in-process CLI run, installed from outside the library.

Run as a script, it imports arrayforge, wraps the public functions of each
package module (plus a few hot methods and the harness job runner) at
every module binding that refers to them, calls ``arrayforge.cli.main``
with the given argv, and writes the spans and a per-layer summary:

    python benchmarks/tracer.py --spans S.jsonl --summary S.json -- design ...

Spans are kept in memory as (id, name, parent, start_ns, end_ns, thread)
and written out when the run ends.  Each thread keeps its own parent
stack; a job that the harness runs on a pool thread gets the span of the
submitting ``_run_jobs`` call as its parent.  A span's self time is its
duration minus the union of its children's intervals, so jobs that run
side by side are not subtracted twice.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("array_model", "scf_objective", "sgd_designer", "crb_eval", "harness", "fileio", "cli")
# Methods on the hot paths that the public functions do not cover.
METHODS = (
    ("scf_objective", "ScfGrid", "directions"),
    ("scf_objective", "CombiningMatrix", "gramian"),
    ("scf_objective", "CombiningMatrix", "normalize"),
)
SPAN_FIELDS = ("id", "name", "parent", "start_ns", "end_ns", "thread")


class Tracer:
    """Collects spans and the counters observed at layer boundaries."""

    def __init__(self) -> None:
        self.spans = []
        self.cells = Counter()
        self.bytes_written = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end, threading.get_ident()))

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def observe_write(self, args, kwargs, result) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        with self._lock:
            self.bytes_written += len(text.encode("utf-8"))

    def observe_map(self, args, kwargs, result) -> None:
        counts = Counter(str(s) for s in result.status.ravel())
        with self._lock:
            self.cells.update(counts)

    def wrap_run_jobs(self, run_jobs):
        """Give each harness job a span parented to the submitting call."""

        def run_jobs_traced(jobs, worker, parallelism):
            parent = self._stack()[-1]

            def job(item):
                return self.call("harness.job", worker, (item,), {}, parent=parent)

            return run_jobs(jobs, job, parallelism)

        return self.wrap("harness._run_jobs", run_jobs_traced)


OBSERVERS = {
    "fileio.atomic_write_text": Tracer.observe_write,
    "crb_eval.crb_map": Tracer.observe_map,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function at every arrayforge module binding.

    Returns the number of bindings replaced.
    """
    modules = {layer: importlib.import_module(f"arrayforge.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn, OBSERVERS.get(name)))
    replaced = 0
    for module in (importlib.import_module("arrayforge"), *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced += 1
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
    harness = modules["harness"]
    harness._run_jobs = tracer.wrap_run_jobs(harness._run_jobs)
    return replaced


def span_cost_s() -> float:
    """Seconds a traced call adds to a call of a no-op; median of 5 rounds."""

    def noop():
        pass

    traced = Tracer().wrap("noop", noop)
    calls, costs = 20000, []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def _covered(intervals, start, end) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def summarize(spans) -> dict:
    """Calls, inclusive and self seconds per function and per layer."""
    children = defaultdict(list)
    for span_id, _, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    functions = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    for span_id, name, _, start, end, _ in spans:
        self_ns = end - start - _covered(children.get(span_id, ()), start, end)
        entry = functions[name]
        entry["calls"] += 1
        entry["inclusive_s"] += (end - start) * 1e-9
        entry["self_s"] += self_ns * 1e-9
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, entry in functions.items():
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    return {"functions": dict(sorted(functions.items())), "layers": layers}


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for span in sorted(spans):
            handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file for the spans")
    parser.add_argument("--summary", required=True, help="JSON file for the summary")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER, help="-- followed by the CLI argv")
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    # Timed before anything else imports numpy, as a user's first import.
    start = time.perf_counter()
    from arrayforge import cli

    import_s = time.perf_counter() - start

    start = time.perf_counter()
    tracer = Tracer()
    bindings = install(tracer)
    install_s = time.perf_counter() - start
    start = time.perf_counter()
    code = cli.main(cli_argv)
    run_s = time.perf_counter() - start

    start = time.perf_counter()
    summary = summarize(tracer.spans)
    write_spans(tracer.spans, args.spans)
    summary.update(
        exit_code=code,
        run_s=run_s,
        import_s=import_s,
        install_s=install_s,
        finish_s=time.perf_counter() - start,
        bindings_wrapped=bindings,
        spans=len(tracer.spans),
        cells=dict(tracer.cells),
        bytes_written=tracer.bytes_written,
    )
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
