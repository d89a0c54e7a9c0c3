"""Run one benchmark workload and print its metrics.

    python3 ringbench/run.py --workload sweep --seed 0 --seconds 50 --trace 0

All load comes from this one process, serially, as a closed loop: the next
check is issued only after the previous one returns.  A run repeats whole
passes over its instance set, rebuilding the instances before each pass so
the caches the program keeps on rings and contexts start cold, and starts
another pass only while the passes so far fit in ``--seconds``.

The instance set is chosen by ``--set`` (default 0); ``--seed`` orders it.
Between instances the run samples the fixed kernel of ``calibrate.py``, and
each instance's time is divided by how much slower than ``REFERENCE_S`` the
kernel ran around it, so the times are stated at the reference speed and
the host's drifting speed cancels out.  Each instance then counts with its
median over the passes.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
run makes one untraced and one traced pass and prints the per-layer metrics
of the traced pass, plus the tracing overhead.  Every pass is checked
against the frozen census; the last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# workloads puts this checkout's src/ on the path, so it comes first
from workloads import (
    GLYPHS,
    NOT_FOUND,
    REVERIFIED,
    WORKLOADS,
    build,
    instance_key,
    load_census,
    load_masks,
)

from ringinv import theorems
from ringinv.caps import Caps
from ringinv.theorems import THEOREM_IDS

import calibrate
from tracer import TARGETS, Tracer

SETUP_REPS = 5          # set-up is timed at least this many times per run
TAIL_SAMPLES = 10       # samples the tail percentile must leave beyond it
SETUP_SAMPLES = 3       # kernel samples before and after each set-up
SPAN_DIR = Path(".ringbench")


@dataclass
class PassResult:
    setup_s: float
    setup_slowdown: float = 1.0
    serialize_s: float = 0.0
    instance_s: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)    # before each instance and at the end
    attempted: int = 0
    failures: list = field(default_factory=list)
    mismatches: int = 0
    digest: str = ""
    bytes_match: bool = False   # the report bytes have the census digest

    @property
    def failed(self) -> int:
        return len(self.failures) + self.mismatches

    def slowdowns(self) -> list:
        """For each instance, the mean time of the two kernel samples that
        bracket it over ``REFERENCE_S``: how much slower than the reference
        the machine ran while the instance was checked."""
        ks = self.kernel_s
        return [(ks[i] + ks[i + 1]) / 2 / calibrate.REFERENCE_S
                for i in range(len(self.instance_s))]

    def reference_instance_s(self) -> list:
        return [t / s for t, s in zip(self.instance_s, self.slowdowns())]

    def reference_serialize_s(self) -> float:
        return self.serialize_s / self.slowdowns()[-1]

    @property
    def checks_per_s(self) -> float:
        return self.attempted / (sum(self.reference_instance_s())
                                 + self.reference_serialize_s())


def serialize(reports) -> str:
    """The report bytes exactly as ``ringinv check`` writes them."""
    reports.sort(key=lambda r: (r["theorem"], r["ring"], r["group"]))
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def slowdown(samples: int) -> float:
    """The machine's slowdown against the reference, from a few kernel runs."""
    return statistics.fmean(calibrate.sample() for _ in range(samples)) \
        / calibrate.REFERENCE_S


def setup(workload: str, instance_set: int, order_seed: int | None):
    """Build the instances of one pass, in the seed's order, and their contexts."""
    ws = build(workload, instance_set)
    if order_seed is not None:
        random.Random(order_seed).shuffle(ws.instances)
    return ws, [inst.context() for inst in ws.instances]


def timed_setup(workload: str, instance_set: int, order_seed: int | None):
    """``setup`` with its time and the slowdown the kernel saw around it."""
    before = slowdown(SETUP_SAMPLES)
    start = time.perf_counter()
    ws, contexts = setup(workload, instance_set, order_seed)
    seconds = time.perf_counter() - start
    return ws, contexts, seconds, (before + slowdown(SETUP_SAMPLES)) / 2


def run_pass(workload: str, instance_set: int, census: dict, masks,
             tracer: Tracer | None = None,
             order_seed: int | None = None) -> PassResult:
    """Build the instances, then check every (instance, theorem) pair."""
    clock = time.perf_counter
    ws, contexts, seconds, slow = timed_setup(workload, instance_set, order_seed)
    result = PassResult(setup_s=seconds, setup_slowdown=slow)
    expected = census["seeds"][str(ws.seed)]
    caps = Caps()
    reports = []
    for inst, ctx in zip(ws.instances, contexts):
        key = instance_key(inst.name, inst.group_name)
        if tracer is not None:
            tracer.request = key
        glyphs = []
        result.kernel_s.append(calibrate.sample())
        begin = clock()
        for theorem in THEOREM_IDS:
            result.attempted += 1
            try:
                if workload == "masked":
                    found = theorems.counterexample_search(
                        [theorem], [ctx], caps, masks, seed=ws.seed)
                    glyphs.append(REVERIFIED if found else NOT_FOUND)
                    reports.extend(r.as_json() for r in found)
                else:
                    report = theorems.check(
                        theorem, ctx, caps, (), seed=ws.seed).as_json()
                    glyphs.append(GLYPHS[report["verdict"]])
                    reports.append(report)
            except Exception as exc:  # one bad check must not end the run
                glyphs.append("!")
                result.failures.append({
                    "instance": key, "theorem": theorem,
                    "error": type(exc).__name__, "message": str(exc)})
                traceback.print_exc(file=sys.stderr)
        result.instance_s.append(clock() - begin)
        want = expected["verdicts"].get(key, "")
        result.mismatches += sum(
            1 for i, g in enumerate(glyphs)
            if g != "!" and (i >= len(want) or g != want[i]))
    begin = clock()
    payload = serialize(reports)
    result.serialize_s = clock() - begin
    result.kernel_s.append(calibrate.sample())
    result.digest = hashlib.sha256(payload.encode()).hexdigest()
    result.bytes_match = result.digest == expected["digest"]
    if tracer is not None:
        tracer.request = None
    return result


def tail(samples) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_SAMPLES samples beyond
    it, and that percentile; with fewer samples, the maximum (percentile 100)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_SAMPLES:
        return xs[-1], 100
    pct = math.floor(100 * (n - TAIL_SAMPLES) / n)
    rank = max(0, math.ceil(pct / 100 * n) - 1)
    return xs[rank], pct


def end_to_end(passes, setups) -> dict:
    """Each instance at its median over the passes, in reference seconds."""
    per_instance = [statistics.median(ts) for ts in
                    zip(*(p.reference_instance_s() for p in passes))]
    check_s = sum(per_instance) + statistics.median(
        p.reference_serialize_s() for p in passes)
    tail_s, pct = tail(per_instance)
    beyond = sum(1 for t in per_instance if t > tail_s)
    print(f"instance_tail_s is p{pct} over {len(per_instance)} instances "
          f"({beyond} beyond it)")
    print("slowdown against the reference by pass: " + " ".join(
        f"{statistics.fmean(p.slowdowns()):.3f}" for p in passes))
    print("checks_per_s by pass, as measured: " + " ".join(
        f"{p.attempted / (sum(p.instance_s) + p.serialize_s):.4g}"
        for p in passes))
    print("setup_s by set-up, as measured: "
          + " ".join(f"{s:.4g}" for s, _ in setups))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(s / slow for s, slow in setups), "s"),
        "checks_per_s": (passes[0].attempted / check_s, "1/s"),
        "instance_p50_s": (statistics.median(per_instance), "s"),
        "instance_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(tracer: Tracer, untraced: PassResult, traced: PassResult) -> dict:
    out = {}
    for module_name, qualname in TARGETS:
        name = f"{module_name}.{qualname}"
        if name == "theorems.check":
            for theorem in THEOREM_IDS:
                key = f"{name}.{theorem}"
                out[f"{key}.s"] = (tracer.total_s.get(key, 0.0), "s")
            continue
        if name == "theorems.counterexample_search":
            candidates = tracer.calls["theorems.rebuild_context"]
            found = tracer.useful[name]
            out[f"{name}.reverified_ratio"] = (
                found / candidates if candidates else 0.0, "ratio")
            continue
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
        if name in tracer.useful:
            calls = tracer.calls[name]
            out[f"{name}.yes_ratio"] = (
                tracer.useful[name] / calls if calls else 0.0, "ratio")
    out["trace.untraced_checks_per_s"] = (untraced.checks_per_s, "1/s")
    out["trace.traced_checks_per_s"] = (traced.checks_per_s, "1/s")
    out["trace.overhead"] = (untraced.checks_per_s / traced.checks_per_s, "ratio")
    return out


def run(workload: str, instance_set: int, seed: int, seconds: float,
        trace: bool) -> dict:
    census = load_census(workload)
    masks = load_masks() if workload == "masked" else frozenset()
    slowdown(SETUP_SAMPLES)  # the kernel's first runs in a process are slower
    passes = []
    if trace:
        passes.append(run_pass(workload, instance_set, census, masks,
                               order_seed=seed))
        gc.collect()  # free the previous pass before the next starts
        with Tracer() as tracer:
            passes.append(run_pass(workload, instance_set, census, masks,
                                   tracer, order_seed=seed))
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(
            SPAN_DIR / f"spans-{workload}-{instance_set}-{seed}.jsonl")
        metrics = per_layer(tracer, *passes)
    else:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(workload, instance_set, census, masks,
                                   order_seed=seed))
            gc.collect()  # free the previous pass before the next starts
            spent = time.perf_counter() - started
            if spent * (len(passes) + 1) / len(passes) > seconds:
                break
        setups = [(p.setup_s, p.setup_slowdown) for p in passes]
        while len(setups) < SETUP_REPS:
            ws, contexts, setup_s, slow = timed_setup(
                workload, instance_set, seed)
            setups.append((setup_s, slow))
            del ws, contexts
            gc.collect()
        metrics = end_to_end(passes, setups)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # every pass, traced or not, must give the census's report bytes
    correct = all(p.failed == 0 and p.bytes_match for p in passes)
    for p in passes:
        for f in p.failures:
            print(f"failed: {f['instance']} {f['theorem']}: "
                  f"{f['error']}: {f['message']}")
    print(f"{workload}: {len(passes)} pass(es), {attempted} checks, "
          f"{failed} failed (failed_share {failed / attempted:.4f}), "
          f"correct: {correct}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the instances of the set")
    parser.add_argument("--set", type=int, default=0, dest="instance_set",
                        help="instance set (0 to 15; 15 is held out)")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.instance_set, args.seed,
                 args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
