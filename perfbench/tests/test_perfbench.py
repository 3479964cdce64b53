"""Self-tests of the benchmark: python3 -m pytest -q perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CLI = harness.import_cli()
PINS = harness.load_pins()
with open(harness.ROOT / "BENCHMARK.json") as fh:
    DECLARED = json.load(fh)


def traced_pass(tasks):
    with tracer.Tracer() as tr:
        results = harness.run_pass(CLI, PINS, tasks, tr)
    return results, tr.metrics()


@pytest.fixture(scope="module")
def layers():
    """Per-layer metrics of one traced pass of every workload (seed 0)."""
    out = {}
    for name in harness.WORKLOADS:
        results, metrics = traced_pass(harness.tasks_for(name, 0))
        assert all(t[1] for t in results), name
        out[name] = metrics
    return out


def test_every_declared_metric_is_produced(layers):
    for metrics in layers.values():
        missing = {m["name"] for m in DECLARED["per_layer"]} - set(metrics)
        assert missing == {"trace.overhead_ratio"}


def test_cyclotomic_arithmetic_only_on_twists(layers):
    for name in ("lie-rank", "certify"):
        assert layers[name]["cyclotomic.mul.calls"] == 0
        assert layers[name]["cyclotomic.inverse.calls"] == 0
    assert layers["twist"]["cyclotomic.mul.calls"] > 0
    assert layers["twist"]["cyclotomic.inverse.calls"] > 0


def test_self_times_nonzero_where_the_layer_runs(layers):
    assert layers["certify"]["dual.Workspace.corep.self_s"] > 0
    assert layers["lie-rank"]["linalg.echelon.self_s"] > 0
    # no declared time may read a constant 0 on any workload
    for name, metrics in layers.items():
        for m in DECLARED["per_layer"]:
            if m["unit"] == "s":
                assert metrics[m["name"]] > 0, (name, m["name"])


def test_two_traced_runs_of_one_seed_give_identical_counters():
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]
    runs = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "interactive",
             "--seed", "5", "--seconds", "3", "--trace", "1"],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: result["metrics"][k]["value"] for k in counts})
    assert runs[0] == runs[1]
    assert runs[0]["cli.tasks"] == len(harness.WORKLOADS["interactive"])


def test_corrupted_pin_is_a_failure():
    argv = "build --series sl --n 2 --corep u".split()
    key = " ".join(argv)
    assert harness.run_pass(CLI, PINS, [argv])[0][1]
    bad_digest = dict(PINS, **{key: dict(PINS[key], sha256="0" * 64)})
    bad_status = dict(PINS, **{key: dict(PINS[key], status=1)})
    for pins in (bad_digest, bad_status, {}):
        assert not harness.run_pass(CLI, pins, [argv])[0][1]


def test_sampler_times_bursts_while_a_task_runs():
    argv = "build --series sl --n 3 --corep u".split()
    with clock.Sampler() as sampler:
        (seconds, ok, _, bursts), = harness.run_pass(CLI, PINS, [argv], sampler=sampler)
    assert ok and seconds > 0
    assert bursts and all(b > 0 for b in bursts)
    assert set(bursts) <= set(sampler.bursts)


def test_times_are_scaled_by_the_speed_sampled_during_each_task():
    ref = clock.REF_BURST_S
    fast, slow = [ref] * run.MIN_BURSTS, [2 ** (1 / clock.SPEED_EXPONENT) * ref] * run.MIN_BURSTS
    passes = [
        [(1.0, True, "", fast), (4.0, True, "", slow), (0.3, True, "", [])],
        [(1.2, True, "", fast), (3.0, True, "", slow), (0.3, True, "", [ref])],
    ]
    # a task sampled too few times is scaled by the bursts of its whole pass
    whole = [clock.speed(fast + slow), clock.speed(fast + slow + [ref])]
    assert run.scaled_medians(passes) == pytest.approx(
        [1.1, 1.75, 0.3 * (whole[0] + whole[1]) / 2])
    assert clock.speed([ref] * 18 + [0.1 * ref, 100 * ref]) == pytest.approx(1.0)


def test_tracer_rebinds_aliases_and_restores_them():
    from qfodc import cli, dual, fodc

    before = (fodc.iter_word_states, fodc.eps_word_values, cli.Workspace.corep)
    with tracer.Tracer():
        assert fodc.iter_word_states is dual.iter_word_states
        assert fodc.iter_word_states is not before[0]
        assert fodc.eps_word_values is not before[1]
        assert cli.Workspace.corep is not before[2]
    assert (fodc.iter_word_states, fodc.eps_word_values, cli.Workspace.corep) == before


def test_tasks_are_seeded_and_pinned():
    for name in harness.WORKLOADS:
        assert harness.tasks_for(name, 3) == harness.tasks_for(name, 3)
        for template in harness.WORKLOADS[name]:
            for line in harness.variants(template):
                assert line in PINS
    orders = {tuple(map(tuple, harness.tasks_for("interactive", s))) for s in range(5)}
    assert len(orders) == 5


def test_runs_without_sources_fail_without_a_result():
    # a tree holding only BENCHMARK.json and the benchmark's own files
    tree = harness.ROOT / ".bench_out" / "no-sources"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(BENCH, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tree)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "twist", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(tree)
    assert out.returncode != 0
    assert out.stdout == ""
