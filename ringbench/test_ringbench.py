"""Tests of the benchmark harness on a small configuration.

    python3 -m pytest -q ringbench/test_ringbench.py
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from ringinv import theorems  # noqa: E402
from ringinv.cli import main as ringinv_main  # noqa: E402

SMALL = 3   # random instances on top of the named catalog


@pytest.fixture(autouse=True)
def small_config(monkeypatch):
    monkeypatch.setitem(workloads.RANDOM_COUNT, "sweep", SMALL)
    monkeypatch.setitem(workloads.RANDOM_COUNT, "masked", SMALL)


@pytest.fixture(scope="module")
def census():
    return {w: workloads.load_census(w) for w in ("sweep", "masked")}


def _traced_pass(workload, census):
    masks = workloads.load_masks() if workload == "masked" else frozenset()
    with Tracer() as tracer:
        result = run.run_pass(workload, 0, census[workload], masks, tracer)
    return tracer, result


def _original(module_name: str, qualname: str):
    obj = sys.modules["ringinv." + module_name]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return getattr(obj, "__func__", obj)


def test_traced_calls_equal_cprofile_counts(census):
    profiler = cProfile.Profile()
    profiler.enable()
    run.run_pass("masked", 0, census["masked"], workloads.load_masks())
    profiler.disable()
    by_code = {(f, line, name): row[1]
               for (f, line, name), row in pstats.Stats(profiler).stats.items()}
    tracer, _ = _traced_pass("masked", census)
    assert tracer.calls["lattices.hermite_form"] > 0
    for module_name, qualname in TARGETS:
        code = _original(module_name, qualname).__code__
        profiled = by_code.get((code.co_filename, code.co_firstlineno,
                                code.co_name), 0)
        name = f"{module_name}.{qualname}"
        traced = (sum(n for k, n in tracer.calls.items()
                      if k.startswith(name + "."))
                  if name == "theorems.check" else tracer.calls[name])
        assert traced == profiled, name


def _bindings():
    out = {m: dict(vars(sys.modules[m])) for m in sys.modules
           if m.startswith("ringinv")}
    for module_name, qualname in TARGETS:
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(sys.modules["ringinv." + module_name], cls_name)
            out[f"{module_name}.{qualname}"] = cls.__dict__[attr]
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    with Tracer():
        assert theorems.check is not before["ringinv.theorems"]["check"]
    assert _bindings() == before


@pytest.mark.parametrize("workload", ["sweep", "masked"])
def test_traced_report_equals_untraced(workload, census):
    masks = workloads.load_masks() if workload == "masked" else frozenset()
    untraced = run.run_pass(workload, 0, census[workload], masks)
    _, traced = _traced_pass(workload, census)
    assert traced.digest == untraced.digest
    assert untraced.failed == 0 and traced.failed == 0


def test_sweep_report_equals_ringinv_check(census, tmp_path):
    result = run.run_pass("sweep", 0, census["sweep"], frozenset())
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = ringinv_main(["check", "--random", str(SMALL), "--seed",
                             str(workloads.program_seed("sweep", 0)),
                             "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == result.digest


CALLS_SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
import run, workloads
from tracer import Tracer
workloads.RANDOM_COUNT["sweep"] = {small}
with Tracer() as tracer:
    run.run_pass("sweep", 0, workloads.load_census("sweep"), frozenset(), tracer)
print(json.dumps(tracer.calls, sort_keys=True))
"""


def test_calls_repeat_across_processes():
    script = CALLS_SCRIPT.format(here=str(HERE), small=SMALL)
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True, timeout=170,
                              env={"PYTHONHASHSEED": hash_seed})
        outputs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0]["lattices.hermite_form"] > 0


def test_a_failing_check_is_recorded_and_the_run_continues(census, monkeypatch):
    real_check = theorems.check

    def flaky(theorem, ctx, *args, **kwargs):
        if theorem == "N2" and ctx.ring_name == "m2f2":
            raise RuntimeError("injected")
        return real_check(theorem, ctx, *args, **kwargs)

    monkeypatch.setattr(theorems, "check", flaky)
    result = run.run_pass("sweep", 0, census["sweep"], frozenset())
    assert result.failures == [{"instance": "m2f2|inner", "theorem": "N2",
                                "error": "RuntimeError",
                                "message": "injected"}]
    assert result.attempted == (10 + SMALL) * len(theorems.THEOREM_IDS)
    assert result.mismatches == 0
    assert result.failed == 1


def test_a_verdict_that_differs_from_the_census_counts_as_failed(census):
    changed = json.loads(json.dumps(census["sweep"]))
    verdicts = changed["seeds"][str(workloads.program_seed("sweep", 0))]["verdicts"]
    first = verdicts["z12|trivial"]
    verdicts["z12|trivial"] = ("+" if first[0] != "+" else ".") + first[1:]
    result = run.run_pass("sweep", 0, changed, frozenset())
    assert result.failures == [] and result.mismatches == 1


def test_the_seed_orders_the_instances_and_leaves_the_report(census):
    plain = run.run_pass("sweep", 0, census["sweep"], frozenset())
    ordered = run.run_pass("sweep", 0, census["sweep"], frozenset(),
                           order_seed=7)
    names = [i.name for i in run.setup("sweep", 0, 7)[0].instances]
    assert names != [i.name for i in workloads.build("sweep", 0).instances]
    assert ordered.digest == plain.digest and ordered.failed == 0


def test_times_are_stated_at_the_reference_speed():
    twice = 2 * run.calibrate.REFERENCE_S
    result = run.PassResult(setup_s=1.0, attempted=36, serialize_s=0.02,
                            instance_s=[0.2, 0.4], kernel_s=[twice] * 3)
    assert result.reference_instance_s() == pytest.approx([0.1, 0.2])
    assert result.checks_per_s == pytest.approx(36 / 0.31)


def test_calibration_kernel_is_fixed():
    assert run.calibrate.kernel() == run.calibrate.KERNEL_CHECKSUM
    assert run.calibrate.sample() > 0


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(110)]
    value, pct = run.tail(samples)
    assert pct == 90 and sum(1 for s in samples if s > value) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)
