"""Benchmark of the quartics package: one workload, one closed-loop client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {symbolic,numeric,certify,cli} \
        --seed N --seconds S --trace {0,1}

A run attempts a fixed number of operations, about ``--seconds`` of work
at reference machine speed (see :meth:`Run.operations`).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs every input twice, untraced and then with span
recording, and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer prints no
result and exits with code 1; a missing package source exits with code 2.

End-to-end times are reported at reference machine speed (see
:class:`Pacer` and perfbench/README.md): on a shared host whose speed
drifts by tens of percent within seconds, this removes most of the drift
while keeping any change in the package's own cost.  The raw times are
printed alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: the last thing a fresh interpreter does before the first operation
_SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import quartics, quartics.cli; print(time.perf_counter())")
SETUP_REPEATS = {0: 7, 1: 3}
TAIL_BEYOND = 10
TRACE_MARK = "PERFBENCH-TRACE "
#: the reference kernel's time at reference machine speed
KERNEL_REF_S = 2e-3

END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def _reference_kernel() -> None:
    # integer, tuple and dict work only: nothing the package does can change its speed
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * i) // 7
        acc = (acc * 31 + i) % 1000003


class Pacer:
    """Times calls at reference machine speed.

    The pure-Python reference kernel is timed before the first call and
    after every call; a call's time is scaled by KERNEL_REF_S over the mean
    of the kernel's timings on either side of it.  The kernel runs on the
    same CPU as the calls, their child processes included (see ``main``).
    """

    def __init__(self):
        self.last = self._time_kernel()

    @staticmethod
    def _time_kernel() -> float:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start

    def __call__(self, fn, *args):
        """Returns (raw seconds, seconds at reference speed, result)."""
        before = self.last
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.last = self._time_kernel()
        return elapsed, elapsed * KERNEL_REF_S * 2 / (before + self.last), out


def _importtime_ms(stderr: str, module: str) -> float:
    """Cumulative import time of *module* from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == module:
            return int(line.split("|")[1]) / 1e3
    raise RuntimeError(f"{module} missing from -X importtime output")


def measure_setup(trace: int):
    """Time from spawning a fresh interpreter until ``quartics`` and
    ``quartics.cli`` are imported: the median over a few children, run one
    at a time, raw and at reference speed.  The first child only warms the
    bytecode cache and is not counted."""
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           "-c", _SETUP_PROBE, str(SRC)]

    def probe():
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        return float(proc.stdout.split()[-1]) - start, proc.stderr

    probe()
    paced = Pacer()
    raw, scaled, imports = [], [], {"quartics.components": [], "quartics.detrep": []}
    for _ in range(SETUP_REPEATS[trace]):
        elapsed, at_ref, (ready, stderr) = paced(probe)
        # set-up ends at the child's clock reading, before the child exits
        raw.append(ready)
        scaled.append(ready * at_ref / elapsed)
        if trace:
            for module, values in imports.items():
                values.append(_importtime_ms(stderr, module))
    return (statistics.median(raw), statistics.median(scaled),
            {k: statistics.median(v) for k, v in imports.items() if v})


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    def __init__(self, name: str, seed: int, seconds: float):
        import workloads

        self.workloads = workloads
        self.name = name
        self.work = workloads.make(name, SRC)
        self.inputs = self.work.inputs(seed)
        self.seconds = seconds
        self.count = self.operations(seconds)
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}

    def operations(self, seconds: float) -> int:
        """How many operations a run of *seconds* attempts: the workload's
        reference rate times *seconds*, in whole input cycles.

        A fixed count rather than a deadline: runs with the same seed and
        seconds attempt the same inputs, so their failures agree exactly."""
        n = max(math.ceil(seconds * self.work.RATE), TAIL_BEYOND + 1)
        return -(-n // self.work.CYCLE) * self.work.CYCLE

    def settle(self, inp, out) -> bool:
        """Count and check an outcome; True when it is a verified answer."""
        self.attempted += 1
        if isinstance(out, self.workloads.Failed):
            self.failed += 1
            self.causes[out.cause] = self.causes.get(out.cause, 0) + 1
            return False
        self.work.check(inp, out)
        return True

    def untraced(self):
        """Closed loop over ``self.count`` inputs; returns raw and paced latencies."""
        paced = Pacer()
        first = next(self.inputs)
        *_, out = paced(self.work.run, first)  # warm-up: lazy set-up finishes before timing
        if not isinstance(out, self.workloads.Failed):
            self.work.check(first, out)
        raw, scaled, ok = [], [], 0
        for _ in range(self.count):
            inp = next(self.inputs)
            elapsed, at_ref, out = paced(self.work.run, inp)
            raw.append(elapsed)
            scaled.append(at_ref)
            ok += self.settle(inp, out)
        return raw, scaled, ok

    def traced_op(self, rec, inp):
        """One operation with spans, starting from a cold restriction cache.

        Returns (seconds, outcome, (cache hits, cache misses)); the cli
        workload runs the bootstrap, which reports its spans and cache."""
        cache = self.workloads.bitangent._restriction_coefficients_cached
        cache.cache_clear()
        if self.name != "cli":
            rec.install()
            try:
                start = time.perf_counter()
                idx = rec.open("bench.op", start)
                out = self.work.run(inp)
                end = time.perf_counter()
                rec.close(idx, end)
            finally:
                rec.uninstall()
            return end - start, out, cache.cache_info()[:2]
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_boot.py"), str(SRC), *inp]
        start = time.perf_counter()
        idx = rec.open("bench.op", start)
        code, stdout, stderr = self.work.spawn(cmd)
        end = time.perf_counter()
        rec.close(idx, end)
        lines = stderr.decode().splitlines()
        info = json.loads(next(l for l in lines if l.startswith(TRACE_MARK))[len(TRACE_MARK):])
        rec.spans.append(("cli.spawn", start, info["started"], idx, rec.op, None))
        rec.spans.append(("cli.import", info["importing"], info["imported"], idx, rec.op, None))
        rec.adopt(info["spans"], idx)
        self.stdout_bytes.append(len(stdout))
        out = (code, stdout)
        if code == self.workloads.cli.EXIT_NUMERIC:
            out = self.workloads.Failed(f"cli {inp[0]}: exit {code}")
        return end - start, out, info["restriction_cache"]

    def traced(self):
        """Every input untraced, then traced; returns the recorder and the
        per-layer metrics with the tracing overhead."""
        import tracing

        rec = tracing.Recorder()
        hits = misses = 0
        self.stdout_bytes = []
        plain, traced = [], []
        # every input runs twice: half the operations of an untraced run
        for _ in range(self.operations(self.seconds / 2)):
            inp = next(self.inputs)
            start = time.perf_counter()
            out = self.work.run(inp)
            plain.append(time.perf_counter() - start)
            self.settle(inp, out)
            rec.op += 1
            elapsed, traced_out, (op_hits, op_misses) = self.traced_op(rec, inp)
            hits, misses = hits + op_hits, misses + op_misses
            traced.append(elapsed)
            if not self.work.same(out, traced_out):
                raise self.workloads.WrongAnswer(f"traced run changed the answer for {inp}")
        metrics = tracing.layer_metrics(rec.spans, len(traced), hits, misses)
        base = statistics.median(plain)
        overhead = statistics.median(traced) - base
        metrics["cli.stdout_bytes"] = (statistics.median(self.stdout_bytes)
                                       if self.stdout_bytes else 0)
        metrics["trace.overhead_ms"] = overhead * 1e3
        metrics["trace.overhead_frac"] = overhead / base
        return rec, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("symbolic", "numeric", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quartics" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # one CPU for this process and its children, so that the pacing kernel
    # runs where the operations run: on a shared host the CPUs' speeds differ
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup_raw, setup_s, imports_ms = measure_setup(args.trace)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            rec, metrics = run.traced()
        else:
            raw, scaled, ok = run.untraced()
    except run.workloads.WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1

    print(f"machine: {machine()}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={run.attempted} failed={run.failed} "
          f"fail_frac={run.failed / run.attempted:.4f}")
    for cause, count in sorted(run.causes.items()):
        print(f"failure: {cause} x{count}")

    if args.trace:
        metrics["components.import_ms"] = imports_ms["quartics.components"]
        metrics["detrep.import_ms"] = imports_ms["quartics.detrep"]
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        rec.write(path)
        print(f"spans: {len(rec.spans)} written to {path.relative_to(ROOT)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        tail_s, pct = tail(scaled)
        metrics = {
            "ops_per_s": ok / sum(scaled),
            "latency_p50_ms": statistics.median(scaled) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "ok_frac": ok / run.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"latency_tail_ms is p{pct:.1f} of {len(scaled)} samples")
        print(f"raw (unpaced): ops_per_s = {ok / sum(raw):.6g} op/s, latency_p50_ms = "
              f"{statistics.median(raw) * 1e3:.6g} ms, latency_tail_ms = "
              f"{tail(raw)[0] * 1e3:.6g} ms, setup_s = {setup_raw:.6g} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac", ".fail")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("terms_out"):
        return "terms/op"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
