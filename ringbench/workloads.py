"""The benchmark's workloads: how each builds its instances from a seed, and
the frozen reference census every run is compared against.

A run's ``--set`` selects one of ``CENSUS_SEEDS`` instance sets per
workload (``set % CENSUS_SEEDS``; its ``--seed`` only orders the set), so
every input a run can get has a frozen reference verdict census, made by
``make_census.py`` at the commit whose verdicts and report bytes are the
reference.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ringinv  # noqa: E402
from ringinv import catalog, groups  # noqa: E402
from ringinv.catalog import Instance  # noqa: E402
from ringinv.invariants import inner_automorphism  # noqa: E402
from ringinv.ring_core import cyclic_ring, group_ring, matrix_ring  # noqa: E402
from ringinv.theorems import THEOREM_IDS  # noqa: E402

if not Path(ringinv.__file__).is_relative_to(HERE.parent / "src"):
    raise SystemExit(f"ringinv was imported from {ringinv.__file__}, "
                     "not from this checkout's src/")

CENSUS_DIR = HERE / "census"
CENSUS_SEEDS = 16
# random instances per set; one pass over a set takes about 10 s
RANDOM_COUNT = {"sweep": 100, "masked": 100}
BASE_SEED = {"sweep": 20260808, "masked": 20260909}
WORKLOADS = ("sweep", "ladder", "masked")

# one census glyph per theorem, in THEOREM_IDS order
GLYPHS = {"verified": "+", "vacuous": ".", "counterexample": "X",
          "skipped(cap)": "?"}
REVERIFIED, NOT_FOUND = "X", "-"


@dataclass
class WorkloadSet:
    """The instances of one pass, with the seed the program is given."""
    seed: int
    instances: list


def program_seed(workload: str, instance_set: int) -> int:
    """The seed handed to ringinv for a benchmark ``--set``."""
    if workload == "ladder":
        return 0
    return BASE_SEED[workload] + instance_set % CENSUS_SEEDS


def s3_cayley() -> list[list[int]]:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
            for p in perms]


def ladder_instances() -> list[Instance]:
    """The scale ladder: two matrix rings under conjugation by I + e12 and a
    group ring under the trivial group."""
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


def build(workload: str, instance_set: int) -> WorkloadSet:
    """Build the instances of one pass; every call returns fresh objects, so
    the caches the program keeps on rings and contexts start cold.  Traced
    functions are called through their module, where the tracer wraps them."""
    pseed = program_seed(workload, instance_set)
    if workload == "ladder":
        return WorkloadSet(pseed, ladder_instances())
    instances = catalog.named_instances()
    instances.extend(catalog.random_instances(RANDOM_COUNT[workload], pseed)[0])
    return WorkloadSet(pseed, instances)


def instance_key(ring: str, group: str) -> str:
    return f"{ring}|{group}"


def load_census(workload: str) -> dict:
    with open(CENSUS_DIR / f"{workload}.json") as fh:
        census = json.load(fh)
    if tuple(census["theorems"]) != THEOREM_IDS:
        raise ValueError(f"{workload} census has another theorem order")
    return census


def load_masks() -> frozenset:
    with open(HERE / "masks.json") as fh:
        return frozenset(json.load(fh))
