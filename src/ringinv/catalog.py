"""Named instances, seeded random instance generation, and (de)serialization.

The text format is the interchange for the whole engine:

    ring <name>
    add d1 d2 ... dk
    mul i j -> c1 ... ck        # one line per generator pair, 1-based, row-major
    unit c1 ... ck              # optional
    aut <name>                  # zero or more blocks
    gen i -> c1 ... ck          # k lines per block
    group <gname> = <aut> ...   # exactly one per instance file

Whitespace separated, `#` starts a comment.  Canonical files sort the
generators by ascending cyclic order and the automorphisms by image vector,
so saving is a fixed point: save(load(save(x))) == save(x) byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd, prod
from pathlib import Path

from .caps import Caps, DEFAULT_CAPS
from .groups import (
    AutomorphismGroup,
    GroupError,
    InvalidAutomorphism,
    RingAutomorphism,
    close_group,
    trivial_group,
)
from .invariants import (
    GActionContext,
    inner_automorphism,
    torsion_ideal,
    unit_group,
)
from .lattices import smith_form
from .radicals import (
    jacobson_radical,
    nilpotency_index,
    prime_radical,
    uniform_dimension,
)
from .ring_core import (
    Element,
    FiniteRing,
    RingError,
    cyclic_ring,
    direct_product,
    group_ring,
    matrix_ring,
    validate_ring,
    zero_mult_ring,
)


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(Exception):
    def __init__(self, witness):
        super().__init__(str(witness))
        self.witness = witness


@dataclass
class Instance:
    name: str
    ring: FiniteRing
    group: AutomorphismGroup
    group_name: str
    generators: tuple[RingAutomorphism, ...]
    provenance: str = "constructed"
    tags: frozenset = frozenset()

    def context(self) -> GActionContext:
        return GActionContext(self.ring, self.group, ring_name=self.name,
                              group_name=self.group_name)


@dataclass(frozen=True)
class Fingerprint:
    order: int
    invariant_factors: tuple[int, ...]
    unit_count: int | None
    prime_radical_size: int
    udim: str
    unital: bool


def cayley_cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


# -- named instances ---------------------------------------------------------------

def _zm_f4_with_group():
    ring = zero_mult_ring((2, 2), name="zm_f4")
    mult_omega = RingAutomorphism(ring, [(0, 1), (1, 1)])
    frobenius = RingAutomorphism(ring, [(1, 0), (1, 1)])
    gens = (mult_omega, frobenius)
    return ring, close_group(gens), gens


def named_instances() -> list[Instance]:
    """The fixed instance suite every sweep runs over."""
    out = []

    z12 = cyclic_ring(12, name="z12")
    out.append(_mk(z12, (), "trivial", "constructed"))

    f3xf3 = direct_product([cyclic_ring(3), cyclic_ring(3)], name="f3xf3")
    swap3 = RingAutomorphism(f3xf3, [f3xf3.generator(1), f3xf3.generator(0)])
    out.append(_mk(f3xf3, (swap3,), "swap", "constructed"))

    f2xf2 = direct_product([cyclic_ring(2), cyclic_ring(2)], name="f2xf2")
    swap2 = RingAutomorphism(f2xf2, [f2xf2.generator(1), f2xf2.generator(0)])
    out.append(_mk(f2xf2, (swap2,), "swap", "constructed"))

    two_z8 = cyclic_ring(4, c=2, name="two_z8")
    negation = RingAutomorphism(two_z8, [(3,)])
    out.append(_mk(two_z8, (negation,), "negation", "constructed"))

    m2f2 = matrix_ring(cyclic_ring(2), 2, name="m2f2")
    omega_u = inner_automorphism(m2f2, (1, 1, 0, 1))  # conjugation by I + e12
    out.append(_mk(m2f2, (omega_u,), "inner", "constructed"))

    zm_f4, zm_group, zm_gens = _zm_f4_with_group()
    out.append(Instance("zm_f4", zm_f4, zm_group, "c6", zm_gens, "constructed"))

    f2c2 = group_ring(cyclic_ring(2), cayley_cyclic(2), name="f2c2")
    out.append(_mk(f2c2, (), "trivial", "constructed"))

    m2f3 = matrix_ring(cyclic_ring(3), 2, name="m2f3")
    omega_d = inner_automorphism(m2f3, (1, 0, 0, 2))  # conjugation by diag(1,-1)
    out.append(_mk(m2f3, (omega_d,), "inner", "constructed"))

    # direct product S x R with S carried along trivially: the fixed ring is
    # exactly S while the whole product is killed by the group order
    base_ring, base_group, base_gens = _zm_f4_with_group()
    composite = direct_product([cyclic_ring(2, name="f2"), base_ring],
                               name="composite_s3")
    ext_gens = tuple(
        RingAutomorphism(composite,
                         [composite.generator(0)]
                         + [(0,) + im for im in g.images])
        for g in base_gens)
    out.append(Instance("composite_s3", composite, close_group(ext_gens),
                        "c6_ext", ext_gens, "constructed"))

    zm_f9 = zero_mult_ring((3, 3), name="zm_f9")
    swap9 = RingAutomorphism(zm_f9, [zm_f9.generator(1), zm_f9.generator(0)])
    out.append(_mk(zm_f9, (swap9,), "swap", "constructed"))

    for inst in out:
        inst.tags = derive_tags(inst)
    return out


def _mk(ring: FiniteRing, gens, group_name: str, provenance: str) -> Instance:
    group = close_group(list(gens), ring=ring) if gens else trivial_group(ring)
    return Instance(ring.name, ring, group, group_name, tuple(gens), provenance)


# -- tags and fingerprints ------------------------------------------------------------

def derive_tags(instance: Instance, caps: Caps = DEFAULT_CAPS) -> frozenset:
    """Tags are always recomputed from the instance, never read from disk."""
    ring = instance.ring
    ctx = instance.context()
    tags = set()
    if ring.is_unital:
        tags.add("unital")
    nil = prime_radical(ring)
    if nil.is_zero():
        tags.add("semiprime")
    if jacobson_radical(ring).is_zero():
        tags.add("semisimple")
    if nilpotency_index(ring) is not None:
        tags.add("nilpotent")
    profile = ctx.bad_primes(caps)
    for p in profile.primes:
        tags.add(f"bad-prime-{p}")
    found, _ = ctx.splittings(caps)
    if found:
        tags.add("splitting-exists")
    if instance.group.order == 1 and instance.provenance.startswith("random"):
        tags.add("rigid")
    if profile.primes and all(
            profile.data[p].complement is not None
            and profile.data[p].d is not None
            and torsion_ideal(ctx.fixed_image().ring, p).is_zero()
            for p in profile.primes):
        tags.add("n1-hypotheses-hold")
    return frozenset(tags)


def fingerprint(ring: FiniteRing, caps: Caps = DEFAULT_CAPS) -> Fingerprint:
    cert = uniform_dimension(ring, "left", caps)
    udim = str(cert.value) if cert.maximality == "exhaustive" \
        else f">={cert.value} (capped)"
    return Fingerprint(
        order=ring.order,
        invariant_factors=_invariant_factors(ring.cyclic_orders),
        unit_count=len(unit_group(ring)) if ring.is_unital else None,
        prime_radical_size=prime_radical(ring).size,
        udim=udim,
        unital=ring.is_unital,
    )


def _invariant_factors(orders: tuple[int, ...]) -> tuple[int, ...]:
    k = len(orders)
    if k == 0:
        return ()
    rows = [[orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    d, _, _ = smith_form(rows, k)
    return tuple(x for x in d if x > 1)


# -- random instances -------------------------------------------------------------------

@dataclass
class GenStats:
    attempted: int = 0
    valid: int = 0

    @property
    def ratio(self) -> float:
        return self.valid / self.attempted if self.attempted else 0.0


ORDER_CHOICES = (2, 3, 4, 5, 7, 8, 9)


def random_instances(count: int, seed: int, max_order: int = 64,
                     max_generators: int = 3, automorphism_budget: int = 30,
                     group_cap: int = 24):
    """Seeded random rings with automorphism search; deterministic per seed.

    Returns (instances, stats).  Roughly a third are cyclic rings (always
    associative); the rest are rejection-sampled structure constants.
    """
    rng = random.Random(seed)
    stats = GenStats()
    out = []
    seen_tables = set()
    index = 0
    while len(out) < count:
        index += 1
        want_cyclic = rng.random() < 0.35
        stats.attempted += 1
        if want_cyclic:
            d = rng.choice([d for d in (2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27)
                            if d <= max_order])
            c = rng.randrange(d)
            ring = cyclic_ring(d, c=c, name=f"rand{seed}_{index}")
        else:
            k = rng.randint(1, max_generators)
            orders = sorted(rng.choice(ORDER_CHOICES) for _ in range(k))
            while prod(orders) > max_order:
                orders = orders[:-1]
            if not orders:
                continue
            orders = tuple(orders)
            table = _random_table(rng, orders)
            try:
                ring = validate_ring(orders, table, name=f"rand{seed}_{index}")
            except RingError:
                continue
        key = ring.table_key()
        if key in seen_tables:
            continue
        seen_tables.add(key)
        stats.valid += 1
        gens = _random_automorphisms(rng, ring, automorphism_budget, group_cap)
        group = close_group(list(gens), ring=ring) if gens else trivial_group(ring)
        inst = Instance(ring.name, ring, group,
                        "rand" if gens else "trivial", tuple(gens),
                        provenance=f"random({seed})")
        inst.tags = derive_tags(inst)
        out.append(inst)
    return out, stats


def _random_table(rng: random.Random, orders: tuple[int, ...]):
    """Structure constants that are well-defined by construction."""
    k = len(orders)
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            entry = []
            for t in range(k):
                dt = orders[t]
                # the coordinate must be killed by both orders d_i and d_j
                step = dt // gcd(dt, gcd(orders[i], orders[j]))
                entry.append(step * rng.randrange(dt // step))
            row.append(tuple(entry))
        table.append(row)
    return table


def _random_automorphisms(rng: random.Random, ring: FiniteRing, budget: int,
                          group_cap: int):
    """Try permutation-style and random image maps; empty tuple when rigid."""
    k = ring.rank
    found = []
    candidates = []
    # generator permutations among equal cyclic orders
    for i in range(k):
        for j in range(i + 1, k):
            if ring.cyclic_orders[i] == ring.cyclic_orders[j]:
                images = list(ring.generators())
                images[i], images[j] = images[j], images[i]
                candidates.append(images)
    elems = list(ring.elements()) if ring.order <= 512 else None
    for _ in range(budget):
        if elems and rng.random() < 0.7:
            images = [rng.choice(elems) for _ in range(k)]
        elif candidates:
            images = rng.choice(candidates)
        else:
            break
        try:
            aut = RingAutomorphism(ring, images)
        except (InvalidAutomorphism, GroupError):
            continue
        if aut.is_identity():
            continue
        trial = found + [aut]
        try:
            close_group(trial, ring=ring, cap=group_cap)
        except GroupError:
            continue
        found = trial
        if len(found) >= 2:
            break
    return tuple(found)


# -- text format ----------------------------------------------------------------------

def save_text(instance: Instance) -> str:
    """Canonical serialization; stable under load/save round trips."""
    ring, perm = _canonical_ring(instance.ring)
    lines = [f"ring {instance.name}"]
    lines.append(("add " + " ".join(str(d) for d in ring.cyclic_orders)).rstrip())
    k = ring.rank
    for i in range(k):
        for j in range(k):
            coeffs = " ".join(str(c) for c in ring.mul_table[i][j])
            lines.append(f"mul {i + 1} {j + 1} ->" + (" " + coeffs if k else ""))
    if ring.unit is not None and k:
        lines.append("unit " + " ".join(str(c) for c in ring.unit))
    gen_auts = sorted(
        {_permute_automorphism(a, perm, ring).images: None
         for a in instance.generators}) if instance.generators else []
    names = []
    for idx, images in enumerate(gen_auts, start=1):
        name = f"a{idx}"
        names.append(name)
        lines.append(f"aut {name}")
        for i in range(k):
            coeffs = " ".join(str(c) for c in images[i])
            lines.append(f"gen {i + 1} -> {coeffs}")
    lines.append(f"group {instance.group_name} =" +
                 ((" " + " ".join(names)) if names else ""))
    return "\n".join(lines) + "\n"


def _canonical_ring(ring: FiniteRing):
    """Permute generators so the cyclic orders ascend (stable)."""
    k = ring.rank
    perm = sorted(range(k), key=lambda i: (ring.cyclic_orders[i], i))
    if perm == list(range(k)):
        return ring, perm
    inv = [0] * k
    for new, old in enumerate(perm):
        inv[old] = new

    def remap(vec: Element) -> Element:
        return tuple(vec[perm[t]] for t in range(k))

    orders = tuple(ring.cyclic_orders[perm[i]] for i in range(k))
    table = [[remap(ring.mul_table[perm[i]][perm[j]]) for j in range(k)]
             for i in range(k)]
    unit = remap(ring.unit) if ring.unit is not None else None
    return validate_ring(orders, table, unit_hint=unit, name=ring.name), perm


def _permute_automorphism(aut: RingAutomorphism, perm, new_ring: FiniteRing):
    k = new_ring.rank

    def remap(vec: Element) -> Element:
        return tuple(vec[perm[t]] for t in range(k))

    images = [remap(aut.images[perm[i]]) for i in range(k)]
    return RingAutomorphism(new_ring, images)


def load_text(text: str, default_name: str = "ring") -> Instance:
    """Parse the instance format; tags are re-derived, never trusted."""
    name = default_name
    orders: tuple[int, ...] | None = None
    mul_entries: dict[tuple[int, int], Element] = {}
    unit: Element | None = None
    auts: dict[str, list] = {}
    current_aut: str | None = None
    group_name = "trivial"
    group_gens: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "ring":
                name = parts[1] if len(parts) > 1 else default_name
            elif kind == "add":
                orders = tuple(int(x) for x in parts[1:])
            elif kind == "mul":
                if orders is None:
                    raise ParseError(lineno, "mul before add")
                if "->" not in parts:
                    raise ParseError(lineno, "mul line needs '->'")
                arrow = parts.index("->")
                if arrow != 3:
                    raise ParseError(lineno, "mul needs two indices")
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                coeffs = tuple(int(x) for x in parts[arrow + 1:])
                if len(coeffs) != len(orders):
                    raise ParseError(lineno, "wrong coefficient count")
                if not (0 <= i < len(orders) and 0 <= j < len(orders)):
                    raise ParseError(lineno, "generator index out of range")
                mul_entries[(i, j)] = coeffs
            elif kind == "unit":
                if orders is None:
                    raise ParseError(lineno, "unit before add")
                unit = tuple(int(x) for x in parts[1:])
                if len(unit) != len(orders):
                    raise ParseError(lineno, "wrong unit length")
            elif kind == "aut":
                if len(parts) != 2:
                    raise ParseError(lineno, "aut needs a name")
                current_aut = parts[1]
                auts[current_aut] = []
            elif kind == "gen":
                if current_aut is None:
                    raise ParseError(lineno, "gen before aut")
                arrow = parts.index("->") if "->" in parts else -1
                if arrow != 2:
                    raise ParseError(lineno, "gen needs one index")
                coeffs = tuple(int(x) for x in parts[arrow + 1:])
                if orders is None or len(coeffs) != len(orders):
                    raise ParseError(lineno, "wrong image length")
                auts[current_aut].append((int(parts[1]) - 1, coeffs))
            elif kind == "group":
                eq = parts.index("=") if "=" in parts else -1
                if eq != 2:
                    raise ParseError(lineno, "group needs a name and '='")
                group_name = parts[1]
                group_gens = parts[eq + 1:]
            else:
                raise ParseError(lineno, f"unknown directive {kind!r}")
        except ParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise ParseError(lineno, str(exc)) from exc
    if orders is None:
        raise ParseError(0, "missing add line")
    k = len(orders)
    for i in range(k):
        for j in range(k):
            if (i, j) not in mul_entries:
                raise ParseError(0, f"missing mul {i + 1} {j + 1}")
    table = [[mul_entries[(i, j)] for j in range(k)] for i in range(k)]
    try:
        ring = validate_ring(orders, table, unit_hint=unit, name=name)
    except RingError as exc:
        raise ValidationError(exc) from exc
    gens = []
    if group_gens is None:
        group_gens = []
    for aut_name in group_gens:
        if aut_name not in auts:
            raise ParseError(0, f"group references unknown automorphism "
                                f"{aut_name!r}")
        rows = auts[aut_name]
        if sorted(i for i, _ in rows) != list(range(k)):
            raise ParseError(0, f"automorphism {aut_name!r} must map every "
                                f"generator exactly once")
        images = [None] * k
        for i, coeffs in rows:
            images[i] = coeffs
        try:
            gens.append(RingAutomorphism(ring, images))
        except GroupError as exc:
            raise ValidationError(exc) from exc
    try:
        group = close_group(gens, ring=ring) if gens else trivial_group(ring)
    except GroupError as exc:
        raise ValidationError(exc) from exc
    inst = Instance(name, ring, group, group_name, tuple(gens),
                    provenance="file")
    inst.tags = derive_tags(inst)
    return inst


def save(instances, directory) -> Path:
    """Write one file per instance plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for inst in instances:
        path = directory / f"{inst.name}.ring"
        path.write_text(save_text(inst))
        manifest.append({"name": inst.name, "file": path.name,
                         "group": inst.group_name,
                         "provenance": inst.provenance,
                         "tags": sorted(inst.tags)})
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load(path) -> list[Instance]:
    """Load one instance file, or every instance listed in a manifest."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        return [load_text((path.parent / entry["file"]).read_text(),
                          default_name=entry["name"])
                for entry in manifest]
    return [load_text(path.read_text(), default_name=path.stem)]
