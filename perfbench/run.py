"""The repository's benchmark: seeded workloads over the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload nsf_writes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table
    python3 perfbench/run.py --check-determinism --seed 1
    python3 perfbench/run.py --workload nsf_writes --crash   # crash restart

One run builds the workload's preloaded state ``SETUPS`` times (the median
is ``setup_s``), then drives the closed loop (one client, no threads) for
``--seconds``, checks the program's outputs and prints every metric with
its unit and sample count. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, holding
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0`` and
its ``per_layer`` metrics with ``--trace 1``. A failed correctness check
exits with status 1.

The traced run shims the calls into each layer (``spans.py``) and turns
tracing on for every other block of operations; the gap between the
traced and untraced blocks' mean operation time (slowest 1% of each left
out) is reported as ``trace.overhead_pct``. Spans are written to
``.perfbench/traces/``.

``--check-determinism`` runs each workload twice, in two processes, for a
fixed number of operations and requires every count to repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, process_time

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 3  # set-up builds per run, unless the workload sets its own
HASH_SEED = "0"

WORKLOADS = ("nsf_writes", "web_reads", "replica_mesh")


def _load_modules():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {src}\n")
        sys.exit(2)
    sys.path[:0] = [HERE, src]
    import wl_mesh
    import wl_nsf
    import wl_web

    return {module.NAME: module for module in (wl_nsf, wl_web, wl_mesh)}


class Recorder:
    """Latency samples (ms), request/write counts and failures of a run."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        # The same calls' CPU time (ms): what the process computed, without
        # the time it waited for the disk.
        self.cpu_samples: dict[str, list[float]] = defaultdict(list)
        self.requests = 0
        self.writes = 0
        self.failed = 0
        self.failures: list[str] = []
        self.excluded_s = 0.0

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.on

    def write(self, call, *args, **kwargs):
        """Time one write; returns what ``call`` returned."""
        result = self.request("write", call, *args, **kwargs)
        self.writes += 1  # acknowledged: the call returned
        return result

    def request(self, kind: str, call, *args, **kwargs):
        """Time one client request of ``kind``; returns its result. A
        request that raises is attempted but leaves no sample."""
        self.requests += 1
        start, cpu_start = perf_counter(), process_time()
        result = call(*args, **kwargs)
        self.samples[kind].append((perf_counter() - start) * 1000.0)
        self.cpu_samples[kind].append((process_time() - cpu_start) * 1000.0)
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @contextmanager
    def excluded(self):
        """Harness-side checks inside the loop: neither timed nor traced."""
        was_on = self.tracing
        if was_on:
            self.tracer.on = False
        start = perf_counter()
        try:
            yield
        finally:
            self.excluded_s += perf_counter() - start
            if was_on:
                self.tracer.on = True


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_workload(module, seed: int, seconds: float, ops: int | None,
                 traced: bool) -> dict:
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    inputs = module.Inputs(seed)
    tracer = Tracer() if traced else None
    setup_times = []
    state = None
    try:
        for _ in range(getattr(module, "SETUPS", SETUPS)):
            if state is not None:
                module.discard(state)
                state = None
            gc.collect()
            start = perf_counter()
            state = module.setup(inputs, workdir, tracer)
            setup_times.append(perf_counter() - start)
        # The preloaded state is long-lived, as in a server that has opened
        # its databases: move it out of the collector's reach, as such a
        # server would (objects the run creates are collected as usual).
        # Otherwise full collections re-traverse the whole preloaded heap,
        # which costs web_reads about 40% of its time and dominates the
        # run-to-run spread.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            module.trace(state, tracer)
        rec = Recorder(tracer)
        op_ms = {False: [], True: []}
        # Per window of module.WINDOW operations: (requests, writes, s).
        windows = []
        mark = (0, 0, 0.0)
        done = 0
        start = perf_counter()
        deadline = start + seconds
        while done < ops if ops else perf_counter() < deadline:
            if tracer is not None:
                tracer.on = (done // module.TRACE_BLOCK) % 2 == 1
                tracer.begin_op()
            op_start = perf_counter()
            try:
                module.op(state, rec)
            except Exception as exc:  # a failed operation, counted
                rec.fail(f"{type(exc).__name__}: {exc}")
            if tracer is not None:
                op_ms[tracer.on].append((perf_counter() - op_start) * 1000.0)
            done += 1
            if done % module.WINDOW == 0:
                now = (rec.requests, rec.writes,
                       perf_counter() - start - rec.excluded_s)
                windows.append(tuple(b - a for a, b in zip(mark, now)))
                mark = now
        wall = perf_counter() - start - rec.excluded_s
        # Peak memory of the workload itself, before the checks build
        # their reference copies.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.on = False
        finish_start = perf_counter()
        finished = module.finish(state, rec, tracer)
        finish_s = perf_counter() - finish_start
    finally:
        gc.unfreeze()
        if state is not None:
            module.discard(state)
        shutil.rmtree(workdir, ignore_errors=True)
    failures = rec.failures + finished["failures"]
    return {
        "rec": rec,
        "wall": wall,
        "windows": windows,
        "ops": done,
        "setup_times": setup_times,
        "report": finished["report"],
        "failures": failures,
        "failed": rec.failed + len(finished["failures"]),
        "tracer": tracer,
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb,
        "phases_s": (sum(setup_times), wall, finish_s),
    }


def end_to_end(result: dict) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, samples) for every end-to-end metric the
    run measured, including the workload-specific ones."""
    rec = result["rec"]
    writes, cpu_writes = rec.samples["write"], rec.cpu_samples["write"]
    # Rates are medians over windows of a fixed number of operations
    # (each nsf_writes window spans a full checkpoint cycle), so a burst
    # of interference from outside the process moves them less than a
    # whole-run average; a run shorter than one window uses the total.
    windows = result["windows"] or [
        (rec.requests, rec.writes, result["wall"])]
    request_rate = statistics.median(r / s for r, _, s in windows)
    write_rate = statistics.median(w / s for _, w, s in windows)
    out = {
        "setup_s": (statistics.median(result["setup_times"]), "s",
                    len(result["setup_times"])),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "failed_frac": (result["failed"] / max(rec.requests, 1), "1",
                        rec.requests),
        "requests_per_s": (request_rate, "1/s", rec.requests),
        "writes_per_s": (write_rate, "1/s", rec.writes),
        "write_p50_ms": (percentile(writes, 50), "ms", len(writes)),
        "write_p90_ms": (percentile(writes, 90), "ms", len(writes)),
        "write_p99_ms": (percentile(writes, 99), "ms", len(writes)),
        "write_cpu_p50_ms": (percentile(cpu_writes, 50), "ms", len(writes)),
        "write_cpu_p90_ms": (percentile(cpu_writes, 90), "ms", len(writes)),
    }
    everything = [value for kind in ("write", "view", "search", "document",
                                     "memo") for value in rec.samples[kind]]
    out["request_p50_ms"] = (percentile(everything, 50), "ms", len(everything))
    out["request_p99_ms"] = (percentile(everything, 99), "ms", len(everything))
    for kind in ("view", "search"):
        samples = rec.samples.get(kind)
        if samples:
            out[f"{kind}_p50_ms"] = (percentile(samples, 50), "ms",
                                     len(samples))
            out[f"{kind}_p95_ms"] = (percentile(samples, 95), "ms",
                                     len(samples))
    units = {"restart_s": "s", "space_amp": "1", "log_bytes_per_write": "B",
             "repl_docs_per_s": "1/s", "wire_bytes_per_doc": "B"}
    for name, unit in units.items():
        if name in result["report"]:
            out[name] = (result["report"][name], unit, 1)
    return out


def _trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, len(ordered) * 99 // 100)])


def per_layer(result: dict, wanted: list[dict]) -> dict[str, tuple]:
    """metric -> (value, unit, samples) for every per-layer metric; a
    metric of a layer this workload does not reach reads 0."""
    tracer = result["tracer"]
    times = tracer.layer_times()
    report = result["report"]
    op_ms = result["op_ms"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name == "trace.overhead_pct":
            # Mean operation time, i.e. the inverse of throughput, of the
            # traced blocks against the untraced ones, each without its
            # slowest 1% (checkpoints and collector pauses fall unevenly
            # between the two halves).
            on, off = op_ms[True], op_ms[False]
            value = (100.0 * (_trimmed_mean(on) / _trimmed_mean(off) - 1.0)
                     if on and off else 0.0)
            out[name] = (value, unit, len(on))
        elif name in report:
            out[name] = (report[name], unit, 1)
        else:
            # A span-timed layer: mean self time per call.
            span = name.removesuffix("_ms").removesuffix("_self")
            calls, _, self_ms = times.get(span, (0, 0.0, 0.0))
            out[name] = (self_ms / calls if calls else 0.0, unit, calls)
    return out


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={samples}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        return json.load(src)


def run_one(modules, spec, name: str, seed: int, seconds: float,
            traced: bool) -> tuple[bool, dict]:
    result = run_workload(modules[name], seed, seconds, None, traced)
    if traced:
        metrics = per_layer(result, spec["per_layer"])
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        result["tracer"].dump(
            os.path.join(OUT, "traces", f"{name}-{seed}.jsonl.gz"))
        wanted = [metric["name"] for metric in spec["per_layer"]]
    else:
        metrics = end_to_end(result)
        wanted = [metric["name"] for metric in spec["end_to_end"]]
    print_table(f"{name} seed={seed} ops={result['ops']} "
                f"trace={int(traced)}", metrics)
    for key, value in sorted(result["report"].items()):
        print(f"  report.{key:<35} {value:>14.6g}")
    print("  phases: set-up %.1f s, loop %.1f s, finish %.1f s"
          % result["phases_s"])
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    correct = not result["failures"] and result["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": max(result["rec"].requests, 1),
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in wanted},
    }
    return correct, summary


def _run_self(*args: str, capture: bool = False):
    """This script in a fresh process (own memory peak, own collector)."""
    return subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          capture_output=capture, text=True, timeout=900)


def check_determinism(seed: int, names: list[str]) -> bool:
    """Two processes per workload, a fixed operation count each; every
    count the workload declares must repeat exactly."""
    same = True
    for name in names:
        outputs = []
        for _ in range(2):
            completed = _run_self("--workload", name, "--seed", str(seed),
                                  "--counts", capture=True)
            completed.check_returncode()
            outputs.append(json.loads(completed.stdout.splitlines()[-1]))
        verdict = "repeats" if outputs[0] == outputs[1] else "DIFFERS"
        same = same and outputs[0] == outputs[1]
        print(f"{name}: counts {verdict}: {json.dumps(outputs[0])}")
        if outputs[0] != outputs[1]:
            print(f"  second run: {json.dumps(outputs[1])}")
    return same


def _fixed_hash_seed() -> None:
    """Re-execute under a fixed ``PYTHONHASHSEED``.

    String hashing is salted per process, which changes dict and set
    layouts, iteration orders and so speed from one process to the next.
    A fixed salt removes that source of run-to-run spread and makes every
    count repeat exactly for one ``--seed``.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", action="store_true",
                        help="fixed-length traced run; print its counts")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--crash", action="store_true",
                        help="nsf_writes: restart after a simulated crash "
                        "instead of a clean shutdown")
    args = parser.parse_args(argv)
    modules = _load_modules()
    modules["nsf_writes"].CRASH = args.crash
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.check_determinism:
        return 0 if check_determinism(args.seed, names) else 1
    if len(names) > 1:
        common = ["--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds:
            common += ["--seconds", str(args.seconds)]
        if args.crash:
            common.append("--crash")
        codes = [_run_self("--workload", name, *common).returncode
                 for name in names]
        return max(codes)
    if args.counts:
        module = modules[names[0]]
        result = run_workload(module, args.seed, 0.0, module.COUNT_OPS, True)
        # A count the run could not reach (a failed reopen) reads null.
        counts = {key: result["report"].get(key) for key in module.COUNTS}
        counts["failures"] = len(result["failures"])
        print(json.dumps(counts, sort_keys=True))
        return 0
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    correct, summary = run_one(modules, spec, names[0], args.seed, seconds,
                               bool(args.trace))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    _fixed_hash_seed()
    sys.exit(main())
