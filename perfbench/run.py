"""Benchmark of the qfodc command line, run from the root of a checkout:

    python3 perfbench/run.py --workload lie-rank --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's tasks one after another (a
closed loop), pass after pass, until one more pass would overrun --seconds.
Every report is checked against the digest pinned in perfbench/pins.json.
Times are scaled to a reference host speed sampled while the tasks run
(clock.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics: a third of the time runs untraced passes, the rest traced
ones, and the span list is written to .bench_out/.  The last line of standard
output is the result object; the line before it records the provenance.  The
exit status is 1 when any report differs from its pin.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import clock
import harness
from tracer import Tracer

SETUP_PROBES = 5  # at the start of a run and again at its end
MIN_BURSTS = 10  # a task with fewer sampled bursts is scaled by its whole pass
OUT_DIR = harness.ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_times(workload, seed):
    """Times of fresh interpreters from start to the first task being ready
    (importing qfodc, loading the pins, making the tasks), each scaled by the
    host speed its interpreter sampled meanwhile.  Returns (scaled, raw)."""
    code = (
        f"import sys; sys.path.insert(0, {str(harness.HERE)!r}); import clock; "
        "sampler = clock.Sampler(); sampler.start(); import harness; "
        f"harness.prepare({workload!r}, {seed}); sampler.stop(); "
        "print('ready', clock.speed(sampler.bursts), flush=True)"
    )
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=harness.ROOT, stdout=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline().split()
            raw.append(time.perf_counter() - t0)
        if line[:1] != [b"ready"] or proc.returncode:
            raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
        scaled.append(raw[-1] * float(line[1]))
    return scaled, raw


def run_passes(cli, pins, tasks, budget, traced=False, sampler=None):
    """Passes until one more would overrun the budget (at least one).
    Returns the passes and, when traced, one Tracer per pass."""
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        if traced:
            with Tracer() as tr:
                passes.append(harness.run_pass(cli, pins, tasks, tr))
            tracers.append(tr)
        else:
            passes.append(harness.run_pass(cli, pins, tasks, sampler=sampler))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes, tracers


def task_minima(passes):
    """Each task's fastest time over the passes, in task order."""
    return [min(times) for times in zip(*[[t[0] for t in p] for p in passes])]


def scaled_medians(passes):
    """Each task's median over the passes of its CPU time scaled by the host
    speed sampled while it ran (by its whole pass when it ran too briefly to
    be sampled MIN_BURSTS times), in task order."""
    scaled = []
    for p in passes:
        whole = clock.speed([b for t in p for b in t[3]])
        scaled.append([t[0] * (clock.speed(t[3]) if len(t[3]) >= MIN_BURSTS else whole)
                       for t in p])
    return [statistics.median(times) for times in zip(*scaled)]


def failures(passes):
    return sum(not t[1] for p in passes for t in p)


def git_commit():
    """The checked-out commit, read from .git without running git (the
    benchmark may run in a checkout that is not a repository)."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(kind):
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end(cli, pins, tasks, args):
    # probes before and after the passes sample two moments of a shared host
    probes, raw_probes = setup_times(args.workload, args.seed)
    with clock.Sampler() as sampler:
        passes, _ = run_passes(cli, pins, tasks, args.seconds, sampler=sampler)
    more, more_raw = setup_times(args.workload, args.seed)
    probes += more
    raw_probes += more_raw
    failed = failures(passes)
    attempted = sum(len(p) for p in passes)
    medians = scaled_medians(passes)
    task_medians = [statistics.median(ts) for ts in zip(*[[t[0] for t in p] for p in passes])]
    # the unscaled figures go to the provenance line, for reference
    unscaled = {
        "wall_s": sum(task_medians),
        "max_task_s": max(task_medians),
        "setup_s": statistics.median(raw_probes),
        "host_speed": clock.speed(sampler.bursts),
    }
    return passes, failed, unscaled, {
        "wall_s": sum(medians),
        "max_task_s": max(medians),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(cli, pins, tasks, args, names):
    plain, _ = run_passes(cli, pins, tasks, args.seconds / 3)
    traced, tracers = run_passes(cli, pins, tasks, args.seconds * 2 / 3, traced=True)
    # traced reports must be byte-identical to untraced ones
    differ = sum(a[2] != b[2] for p in traced for a, b in zip(plain[0], p))
    layers = [tr.metrics() for tr in tracers]
    values = {n: statistics.median(m[n] for m in layers) for n in names if n != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = sum(task_minima(traced)) / sum(task_minima(plain))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"tasks": [" ".join(t) for t in tasks],
                   "passes": [{"spans": tr.spans, "counts": tr.counts} for tr in tracers]}, fh)
    return plain + traced, failures(plain + traced) + differ, None, values


def main(argv=None):
    args = parse_args(argv)
    clock.pin_to_one_cpu()
    try:
        cli, pins, tasks = harness.prepare(args.workload, args.seed)
    except OSError as exc:
        sys.exit(f"perfbench: {exc}")
    if args.trace:
        units = declared_metrics("per_layer")
        passes, failed, unscaled, values = per_layer(cli, pins, tasks, args, units)
    else:
        units = declared_metrics("end_to_end")
        passes, failed, unscaled, values = end_to_end(cli, pins, tasks, args)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "tasks": [" ".join(t) for t in tasks],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    if unscaled:
        provenance["unscaled"] = unscaled
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
