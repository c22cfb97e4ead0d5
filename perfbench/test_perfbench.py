"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q

They take a few minutes: the failed-op test runs every distinct op of
every workload on two seeds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))


def _workdir(name):
    path = os.path.join(HERE, "_work", name)
    os.makedirs(path, exist_ok=True)
    return path


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_file_matches_the_code():
    assert set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}
    assert _units("end_to_end") == dict(run.END_TO_END)
    assert _units("per_layer") == {n: u for n, u, _ in tracing.PER_LAYER_METRICS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    result, detail = run.measure(name, seed=1, seconds=0, trace=trace, op_limit=3)
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, detail["failures"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_no_op_fails(name, seed):
    T = run.load_package()
    workload = WORKLOADS[name](T, seed, _workdir(name))
    recorder = run.Recorder()
    run.run_periods(workload, recorder, 0, count=len(workload.periods))
    assert recorder.failures == []
    assert len(recorder) > 0


def _attributes():
    """Every module attribute and class attribute of the package."""
    seen = {}
    for mod_name, mod in sys.modules.items():
        if mod_name.startswith("thickrep"):
            for name, value in vars(mod).items():
                seen[(mod_name, name)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        seen[(mod_name, name, attr)] = raw
    return seen


def test_traced_run_leaves_nothing_patched():
    T = run.load_package()
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.leftovers(), "install patched nothing"
    workload = WORKLOADS["fp-reducible-check"](T, 1, _workdir("fp-reducible-check"))
    run.run_periods(workload, run.Recorder(tracer, op_limit=5), 0, count=1)
    tracer.remove()
    assert tracer.leftovers() == []
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_time_subtracts_child_spans():
    T = run.load_package()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        F3 = T.fields.GF(3)
        rep = T.repcore.Representation(
            F3, 2, T.repcore.GROUP, [T.linalg.Matrix.from_ints(F3, [[0, 1], [1, 1]])]
        )
        T.repcore.all_submodules(rep)
    finally:
        tracer.remove()
    totals = tracer.layer_totals()
    wall = tracer.end[0] - tracer.start[0]  # the outermost span
    assert tracer.parent[0] == -1
    assert sum(totals["self_s"].values()) == pytest.approx(wall, rel=1e-9)
    assert totals["calls"]["repcore.spin"] == totals["spins_under_lattice"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_change_inputs_not_metric_names(name):
    inputs = []
    for seed in (1, 2):
        T = run.load_package()
        workload = WORKLOADS[name](T, seed, _workdir(name))
        inputs.append(
            [repr(getattr(x, "generators", x)) + repr(getattr(x, "mat", "")) for x in workload.inputs]
        )
    assert inputs[0] != inputs[1]
    names = [set(run.measure(name, s, 0, 0, op_limit=2)[0]["metrics"]) for s in (1, 2)]
    assert names[0] == names[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_percentiles_sit_inside_one_class(name):
    # whole periods; fp-random-dim4 has short periods, so give it time for many
    seconds = 8 if name == "fp-random-dim4" else 0
    _, detail = run.measure(name, seed=3, seconds=seconds, trace=0)
    windows = detail["percentile_classes"]
    assert len(windows["p50"]) == 1, windows
    assert len(windows["p95"]) == 1, windows


def test_refuses_optimized_python_and_missing_source():
    script = os.path.join(HERE, "run.py")
    args = ["--workload", "gl4-f2-scan", "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run([sys.executable, "-O", script] + args, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
    # a copy of the benchmark with no package source beside it
    lone = os.path.join(HERE, "_work", "lone", "perfbench")
    os.makedirs(lone, exist_ok=True)
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(os.path.join(HERE, name), lone)
    proc = subprocess.run([sys.executable, os.path.join(lone, "run.py")] + args,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
