"""Command-line surface: validate instance files, build and save the catalog,
run theorem suites with masking, and print instance profiles.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 counterexample
found.  A counterexample is reported only once a check on a context rebuilt
from raw data has reproduced it.  The JSON report array is the machine
contract; identical configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .caps import Caps
from .catalog import (
    ParseError,
    ValidationError,
    load,
    named_instances,
    random_instances,
    save,
)
from .invariants import torsion_ideal, unit_group
from .radicals import (
    CrossCheckError,
    jacobson_radical,
    prime_radical,
    regular_elements_quotient,
    uniform_dimension,
)
from .ring_core import factorize
from .theorems import (
    COUNTEREXAMPLE,
    THEOREM_IDS,
    check,
    parse_masks,
    reverified,
    to_jsonable,
)

ENV_PREFIX = "RINGINV_"

GLYPHS = {"verified": "+", "vacuous": ".", "counterexample": "X",
          "skipped(cap)": "?"}


def _env_default(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringinv",
        description="exact engine for finite rings with finite automorphism "
                    "groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate an instance file")
    p_val.add_argument("path")

    p_chk = sub.add_parser("check", help="run theorem checkers")
    p_chk.add_argument("--instances", default=None,
                       help="comma-separated named instances or file paths "
                            "(default: whole named catalog)")
    p_chk.add_argument("--random", type=int,
                       default=_env_default("random", 0),
                       help="add this many seeded random instances")
    p_chk.add_argument("--theorems", default=_env_default("theorems", None),
                       help="comma-separated theorem ids (default: all)")
    p_chk.add_argument("--caps", default=_env_default("caps", ""),
                       help="cap overrides k=v,k=v")
    p_chk.add_argument("--seed", type=int,
                       default=_env_default("seed", 0))
    p_chk.add_argument("--mask", default=_env_default("mask", ""),
                       help="comma-separated THEOREM:condition masks")
    p_chk.add_argument("--out", default=_env_default("out", None),
                       help="report JSON path")
    p_chk.add_argument("--jobs", type=int, default=_env_default("jobs", 1))

    p_prof = sub.add_parser("profile", help="print an instance profile")
    p_prof.add_argument("instance", help="named instance or file path")

    p_cat = sub.add_parser("catalog", help="list or save the catalog")
    p_cat.add_argument("--out", default=None, help="directory to save into")
    p_cat.add_argument("--random", type=int, default=0)
    p_cat.add_argument("--seed", type=int, default=0)
    return parser


def _resolve_instances(spec: str | None, random_count: int, seed: int):
    named = named_instances()
    if spec:
        by_name = {i.name: i for i in named}
        out = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if token in by_name:
                out.append(by_name[token])
            else:
                out.extend(load(token))
    else:
        out = list(named)
    if random_count:
        rand, stats = random_instances(random_count, seed)
        out.extend(rand)
        print(f"random generation: {stats.valid}/{stats.attempted} tables "
              f"valid ({stats.ratio:.2f})", file=sys.stderr)
    return out


def _check_one(args):
    """The reports of one instance; CrossCheckError when a counterexample
    does not come out the same on a rebuilt context."""
    instance, theorems, caps, masks, seed = args
    ctx = instance.context()
    out = []
    for th in theorems:
        report = check(th, ctx, caps, masks, seed=seed)
        if (report.verdict == COUNTEREXAMPLE
                and not reverified(report, ctx, caps, masks, seed)):
            raise CrossCheckError(
                f"{th} on {instance.name} under {instance.group_name}: the "
                f"counterexample differs on a rebuilt context")
        out.append(report.as_json())
    return out


def cmd_check(ns) -> int:
    try:
        caps = Caps.parse(ns.caps)
    except ValueError as exc:
        print(f"bad --caps: {exc}", file=sys.stderr)
        return 2
    try:
        masks = parse_masks(ns.mask)
    except ValueError as exc:
        print(f"bad --mask {exc}", file=sys.stderr)
        return 2
    theorems = (tuple(t.strip() for t in ns.theorems.split(",") if t.strip())
                if ns.theorems else THEOREM_IDS)
    for th in theorems:
        if th not in THEOREM_IDS:
            print(f"unknown theorem id {th!r}", file=sys.stderr)
            return 2
    if not theorems:
        print(f"no theorem to check: --theorems {ns.theorems!r} names none", file=sys.stderr)
        return 2
    if ns.random < 0:
        return _negative_random(ns.random)
    if ns.jobs < 1:
        print(f"bad --jobs {ns.jobs}: at least one worker is needed", file=sys.stderr)
        return 2
    try:
        instances = _resolve_instances(ns.instances, ns.random, ns.seed)
    except (ParseError, ValidationError, OSError) as exc:
        return _load_error(exc)
    if not instances:
        print(f"no instance to check: --instances {ns.instances!r} names none", file=sys.stderr)
        return 2
    work = [(inst, theorems, caps, masks, ns.seed) for inst in instances]
    # the pool forks all its workers at the first submit: no more than
    # there are instances
    jobs = min(ns.jobs, len(work))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_check_one, work))
    else:
        chunks = [_check_one(w) for w in work]
    reports = [rep for chunk in chunks for rep in chunk]
    reports.sort(key=lambda r: (r["theorem"], r["ring"], r["group"]))
    payload = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    _print_summary(instances, theorems, chunks)
    bad = sum(1 for r in reports if r["verdict"] == COUNTEREXAMPLE)
    if bad:
        print(f"{bad} counterexample verdict(s)", file=sys.stderr)
        return 4
    return 0


def _print_summary(instances, theorems, chunks) -> None:
    width = max((len(i.name) for i in instances), default=4)
    header = " ".join(th[:6].ljust(6) for th in theorems)
    print(f"{'':{width}} {header}", file=sys.stderr)
    for inst, chunk in zip(instances, chunks):
        glyphs = " ".join(GLYPHS[rep["verdict"]].ljust(6) for rep in chunk)
        print(f"{inst.name:{width}} {glyphs}", file=sys.stderr)
    print("legend: + verified, . vacuous, X counterexample, ? skipped(cap)",
          file=sys.stderr)


def _negative_random(count: int) -> int:
    print(f"bad --random {count}: the count must not be negative", file=sys.stderr)
    return 2


def _load_error(exc: Exception) -> int:
    """Report an instance file that failed to load on one stderr line and
    return its exit code: 3 for a validation error, 2 otherwise."""
    if isinstance(exc, ValidationError):
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    kind = "parse error" if isinstance(exc, ParseError) else "cannot read"
    print(f"{kind}: {exc}", file=sys.stderr)
    return 2


def cmd_validate(ns) -> int:
    try:
        instances = load(ns.path)
    except (ParseError, ValidationError, OSError) as exc:
        return _load_error(exc)
    for inst in instances:
        print(f"{inst.name}: ring of order {inst.ring.order}, "
              f"group of order {inst.group.order}, tags {sorted(inst.tags)}")
    return 0


def cmd_profile(ns) -> int:
    named = {i.name: i for i in named_instances()}
    if ns.instance in named:
        inst = named[ns.instance]
    else:
        try:
            loaded = load(ns.instance)
        except (ParseError, ValidationError, OSError) as exc:
            return _load_error(exc)
        if not loaded:
            print(f"no instance to profile: {ns.instance} lists none", file=sys.stderr)
            return 2
        inst = loaded[0]
    ctx = inst.context()
    ring = inst.ring
    print(f"instance {inst.name} with group {inst.group_name}")
    print(f"  order {ring.order}, additive orders {list(ring.cyclic_orders)}, "
          f"unital: {ring.is_unital}")
    nil = prime_radical(ring)
    rad = jacobson_radical(ring)
    print(f"  prime radical: size {nil.size}, basis {to_jsonable(list(nil.basis))}")
    print(f"  jacobson radical: size {rad.size} (agrees: {nil.sub == rad.sub})")
    print(f"  fixed ring: size {ctx.fixed.size}, "
          f"basis {to_jsonable(list(ctx.fixed.basis))}")
    t_img = ctx.trace_image()
    print(f"  trace image: size {t_img.size}")
    profile = ctx.bad_primes()
    for p in sorted(factorize(ctx.n)):
        print(f"  tor_{p}: size {torsion_ideal(ring, p).size}")
    print(f"  bad primes: {list(profile.primes)}")
    for p in profile.primes:
        data = profile.data[p]
        comp = data.complement.order if data.complement else None
        print(f"    p={p}: complement order {comp}, d={data.d}")
    found, exhaustive = ctx.splittings()
    print(f"  splittings found: {len(found)} (exhaustive: {exhaustive})")
    for side in ("left", "right"):
        sd, status = ctx.proper_splitting(side)
        print(f"  proper splitting [{side}]: {status}")
        cert = uniform_dimension(ring, side)
        print(f"  udim [{side}]: {cert.value} ({cert.maximality})")
    # the regular elements are the units (`regular_elements_quotient`)
    print(f"  regular elements: {len(unit_group(ring))}, quotient ring: "
          f"{regular_elements_quotient(ring)}")
    return 0


def cmd_catalog(ns) -> int:
    if ns.random < 0:
        return _negative_random(ns.random)
    instances = named_instances()
    if ns.random:
        rand, stats = random_instances(ns.random, ns.seed)
        instances.extend(rand)
        print(f"random generation: {stats.valid}/{stats.attempted} valid",
              file=sys.stderr)
    if ns.out:
        manifest = save(instances, ns.out)
        print(f"saved {len(instances)} instances to {manifest.parent}")
    else:
        for inst in instances:
            print(f"{inst.name:20s} order={inst.ring.order:<4d} "
                  f"|G|={inst.group.order:<3d} tags={sorted(inst.tags)}")
    return 0


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    if ns.command == "validate":
        return cmd_validate(ns)
    if ns.command == "check":
        return cmd_check(ns)
    if ns.command == "profile":
        return cmd_profile(ns)
    if ns.command == "catalog":
        return cmd_catalog(ns)
    return 2


if __name__ == "__main__":
    sys.exit(main())
