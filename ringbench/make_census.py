"""Freeze the reference census that every benchmark run is checked against.

    python3 ringbench/make_census.py [--workload sweep|ladder|masked]

Run it at the commit that defines the reference.  For every instance set a
run can get it records one glyph per theorem for each (ring, group) and the
SHA-256 of the report bytes:

- sweep: the verdicts and bytes of ``ringinv check --random N --seed S``;
- ladder: the verdicts and report bytes of the scale ladder;
- masked: which checks ``counterexample_search`` re-verifies as
  counterexamples under every mask in ``masks.json``, and the bytes of those
  re-verified reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from workloads import (
    CENSUS_DIR,
    CENSUS_SEEDS,
    GLYPHS,
    NOT_FOUND,
    RANDOM_COUNT,
    REVERIFIED,
    WORKLOADS,
    build,
    instance_key,
    load_masks,
)

from run import serialize

from ringinv.caps import Caps
from ringinv.cli import main as ringinv_main
from ringinv.theorems import THEOREM_IDS, check, counterexample_search


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _glyph_table(instances, verdict_of) -> dict:
    return {instance_key(i.name, i.group_name):
            "".join(verdict_of(instance_key(i.name, i.group_name), th)
                    for th in THEOREM_IDS)
            for i in instances}


def sweep_entry(seed: int) -> dict:
    ws = build("sweep", seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = ringinv_main(["check", "--random", str(RANDOM_COUNT["sweep"]),
                                 "--seed", str(ws.seed), "--out", str(out)])
        payload = out.read_text()
    if code not in (0, 4):
        raise SystemExit(f"ringinv check exited {code} on seed {ws.seed}")
    verdicts = {(r["theorem"], instance_key(r["ring"], r["group"])): r["verdict"]
                for r in json.loads(payload)}
    table = _glyph_table(
        ws.instances, lambda key, th: GLYPHS[verdicts[(th, key)]])
    return ws.seed, {"digest": _digest(payload), "verdicts": table}


def ladder_entry(seed: int) -> dict:
    ws = build("ladder", seed)
    contexts = [inst.context() for inst in ws.instances]
    reports = [check(th, ctx, Caps(), (), seed=ws.seed).as_json()
               for ctx in contexts for th in THEOREM_IDS]
    verdicts = {(r["theorem"], instance_key(r["ring"], r["group"])): r["verdict"]
                for r in reports}
    table = _glyph_table(
        ws.instances, lambda key, th: GLYPHS[verdicts[(th, key)]])
    return ws.seed, {"digest": _digest(serialize(reports)), "verdicts": table}


def masked_entry(seed: int) -> dict:
    ws = build("masked", seed)
    found = counterexample_search(THEOREM_IDS,
                                  [i.context() for i in ws.instances],
                                  Caps(), load_masks(), seed=ws.seed)
    reports = [r.as_json() for r in found]
    hits = {(r["theorem"], instance_key(r["ring"], r["group"])) for r in reports}
    table = _glyph_table(
        ws.instances,
        lambda key, th: REVERIFIED if (th, key) in hits else NOT_FOUND)
    return ws.seed, {"digest": _digest(serialize(reports)), "verdicts": table}


ENTRIES = {"sweep": sweep_entry, "ladder": ladder_entry, "masked": masked_entry}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="freeze the benchmark census")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    CENSUS_DIR.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        seeds = {}
        for seed in range(1 if workload == "ladder" else CENSUS_SEEDS):
            program_seed, entry = ENTRIES[workload](seed)
            seeds[str(program_seed)] = entry
            print(f"{workload} seed {program_seed}: done", file=sys.stderr)
        census = {"workload": workload, "theorems": list(THEOREM_IDS),
                  "random_count": RANDOM_COUNT.get(workload, 0),
                  "seeds": seeds}
        with open(CENSUS_DIR / f"{workload}.json", "w") as fh:
            json.dump(census, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
