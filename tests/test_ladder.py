"""The scale ladder of the benchmark, checked in full against its frozen
census: M2(Z/4) and M2(F5) under conjugation by I + e12, and F2[S3] under
the trivial group, all 18 theorems."""

import hashlib
import json
from pathlib import Path

from ringinv import groups
from ringinv.caps import Caps
from ringinv.catalog import Instance
from ringinv.invariants import inner_automorphism
from ringinv.ring_core import cyclic_ring, group_ring, matrix_ring
from ringinv.theorems import THEOREM_IDS, check

from test_cross_checks import s3_cayley

CENSUS = Path(__file__).resolve().parents[1] / "ringbench" / "census" / "ladder.json"
GLYPHS = {"verified": "+", "vacuous": ".", "counterexample": "X",
          "skipped(cap)": "?"}


def ladder_instances():
    out = []
    for name, d in (("m2_z4", 4), ("m2_f5", 5)):
        ring = matrix_ring(cyclic_ring(d), 2, name=name)
        gens = (inner_automorphism(ring, (1, 1, 0, 1)),)
        out.append(Instance(name, ring, groups.close_group(list(gens), ring=ring),
                            "inner", gens, "ladder"))
    ring = group_ring(cyclic_ring(2), s3_cayley(), name="f2_s3")
    out.append(Instance("f2_s3", ring, groups.trivial_group(ring), "trivial", (),
                        "ladder"))
    return out


def test_ladder_matches_its_census():
    census = json.loads(CENSUS.read_text())
    assert tuple(census["theorems"]) == THEOREM_IDS
    expected = census["seeds"]["0"]
    reports, verdicts = [], {}
    for inst in ladder_instances():
        ctx = inst.context()
        glyphs = ""
        for theorem in THEOREM_IDS:
            report = check(theorem, ctx, Caps(), (), seed=0).as_json()
            glyphs += GLYPHS[report["verdict"]]
            reports.append(report)
        verdicts[f"{inst.name}|{inst.group_name}"] = glyphs
    assert verdicts == expected["verdicts"]
    reports.sort(key=lambda r: (r["theorem"], r["ring"], r["group"]))
    payload = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == expected["digest"]
