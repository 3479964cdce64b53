"""Workloads, seeded task lists and the correctness gate of the qfodc benchmark.

A task is one CLI invocation, run in process through ``qfodc.cli.main`` with
its report captured; a pass runs every task of a workload once, in order.
Every report is compared with the exit status and SHA-256 digest pinned in
``pins.json``, which holds one entry per task variant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

# Galois-conjugate twists with equal certified answers; the seed picks one per
# task.  Twists are passed as --zeta=<v> because argparse reads "--zeta -i" as
# a missing argument followed by an unknown option (exit 3).
TWISTS = {
    "sl3": ("w", "w2"),
    "sl4": ("w", "w3", "i", "-i"),
}

# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "lie-rank": (
        "build --series sp --n 3 --corep u",
        "build --series sl --n 3 --corep tensor(u,u)",
        "build --series sl --n 5 --corep u",
        "build --series sl --n 3 --corep proj:sym(tensor(u,u))",
    ),
    "certify": (
        "verify --series sl --n 4 --claim minor-tau --degree 4",
        "build --series sl --n 4 --corep minor:2",
        "verify --series sl --n 3 --claim factorizability --degree 2",
    ),
    "twist": (
        "verify --series sl --n 3 --claim coideal --zeta={sl3}",
        "classify --series sl --n 3 --corep u --zeta={sl3}",
        "verify --series sl --n 3 --claim centrality --zeta={sl3}",
        "build --series sl --n 4 --corep u --zeta={sl4}",
    ),
    "interactive": (
        "build --series sl --n 2 --corep u",
        "build --series sl --n 3 --corep u",
        "build --series sl --n 3 --corep u --zeta={sl3}",
        "build --series sp --n 2 --corep u",
        "build --series sl --n 2 --corep dsum(1,u) --zeta=-1",
        "build --series sl --n 3 --corep minor:2",
        "build --series sl --n 2 --corep tensor(u,u)",
        "verify --series sl --n 2 --claim minor-tau --degree 4",
        "verify --series sl --n 3 --claim minor-tau --degree 3",
        "verify --series sp --n 1 --claim minor-tau --degree 4",
        "verify --series sl --n 2 --claim centrality --zeta=-1",
        "verify --series sl --n 2 --claim tensor-identity",
        "verify --series sl --n 2 --claim coideal --zeta=-1",
        "verify --series sp --n 1 --claim coideal --zeta=-1",
        "verify --series sl --n 2 --claim leibniz --zeta=-1",
        "verify --series sl --n 3 --claim leibniz --zeta={sl3}",
        "verify --series sl --n 2 --claim factorizability --degree 2",
        "verify --series sl --n 2 --claim direct-sum --zeta=-1",
        "verify --series sl --n 2 --claim central-generates --zeta=-1",
        "classify --series sl --n 2 --corep dsum(1,u) --zeta=-1",
        "classify --series sl --n 2 --central u --zeta=-1",
        "classify --series sp --n 1 --corep u --zeta=-1",
        "report --series sl --n 2 --corep u --zeta=-1",
        "report --series sp --n 1 --corep u --zeta=-1",
        "report --series sl --n 3 --corep u",
    ),
}


def variants(template):
    """Every command line a template can expand to, in a fixed order."""
    for key, twists in TWISTS.items():
        if "{" + key + "}" in template:
            return [template.replace("{" + key + "}", z) for z in twists]
    return [template]


def tasks_for(workload, seed):
    """The seeded task list: the seed picks a twist for every templated task
    and then shuffles the order.  Returns a list of argv lists."""
    rng = random.Random(seed)
    lines = [rng.choice(variants(t)) for t in WORKLOADS[workload]]
    rng.shuffle(lines)
    return [line.split() for line in lines]


def load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def import_cli():
    """Import the CLI from the checkout's own source tree."""
    if not (SRC / "qfodc" / "cli.py").is_file():
        raise FileNotFoundError(f"qfodc sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qfodc import cli

    return cli


def prepare(workload, seed):
    """Everything a run needs before its first task: the CLI, the pins and
    the task list."""
    cli = import_cli()
    return cli, load_pins(), tasks_for(workload, seed)


def run_task(cli, argv):
    """Run one CLI invocation in process; returns (status, report, seconds).

    seconds is the CPU time of the calling thread, so a sampler thread that
    takes the interpreter lock meanwhile does not count (the tasks are
    single-threaded and CPU-bound: alone, CPU time is their wall time).
    status is None when the task raised instead of returning an exit code.
    """
    out = io.StringIO()
    t0 = time.thread_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(list(argv))
    except Exception:  # a crashing task is a failed task; the pass goes on
        traceback.print_exc()
        status = None
    return status, out.getvalue(), time.thread_time() - t0


def digest(report):
    return hashlib.sha256(report.encode()).hexdigest()


def is_pinned(pins, argv, status, sha):
    return pins.get(" ".join(argv)) == {"status": status, "sha256": sha}


def run_pass(cli, pins, tasks, tracer=None, sampler=None):
    """One pass over the tasks: a list of (seconds, ok, digest, bursts) per
    task.  A tracer, when given, is told the index of the running task; with
    a sampler (clock.Sampler), bursts holds the burst times it took while the
    task ran, and is None without one."""
    out = []
    for i, argv in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        first = len(sampler.bursts) if sampler is not None else 0
        status, report, seconds = run_task(cli, argv)
        bursts = sampler.bursts[first:] if sampler is not None else None
        sha = digest(report)
        ok = is_pinned(pins, argv, status, sha)
        if not ok:
            sys.stderr.write(f"mismatch: {' '.join(argv)} -> status {status}, {sha}\n")
        out.append((seconds, ok, sha, bursts))
    return out
