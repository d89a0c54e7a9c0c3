"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is part of the default pytest run.
"""

import hashlib
import itertools
import json
import random
import time

from ringinv.catalog import load_text, save_text
from ringinv.cli import main as cli_main
from ringinv.groups import (
    InvalidAutomorphism,
    RingAutomorphism,
    close_group,
    h_constant,
    p_group_fixed_point,
)
from ringinv.radicals import (
    enumerate_ideals,
    radical_profile,
    uniform_dimension,
)
from ringinv.ring_core import (
    LEFT,
    RIGHT,
    Subgroup,
    generated_ideal,
    zero_mult_ring,
)
from ringinv.theorems import THEOREM_IDS, check


class criterion:
    """Context manager printing the acceptance verdict line."""

    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"ACCEPTANCE {self.num} ({self.name}): {status}")
        return False


def test_criterion_1_radical_cross_oracle(big_catalog):
    with criterion(1, "radical cross-oracle on >= 500 rings"):
        start = time.monotonic()
        count = 0
        for inst in big_catalog:
            assert inst.ring.order <= 256
            profile = radical_profile(inst.ring)  # raises on disagreement
            assert profile.prime_radical.sub == profile.jacobson_radical.sub
            count += 1
        elapsed = time.monotonic() - start
        assert count >= 500, count
        assert elapsed <= 300, f"took {elapsed:.1f}s"


def _p_power_order(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _automorphism_candidates(ring, p, rng, budget=80):
    """Deterministic search for automorphisms of p-power order <= 8."""
    k = ring.rank
    found = {}
    elems = list(ring.elements())
    candidates = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if ring.cyclic_orders[i] % ring.cyclic_orders[j] == 0:
                # shear: generator j picks up generator i... order condition
                images = list(ring.generators())
                images[j] = ring.add(images[j], ring.generator(i))
                candidates.append(images)
            if ring.cyclic_orders[i] == ring.cyclic_orders[j] and i < j:
                images = list(ring.generators())
                images[i], images[j] = images[j], images[i]
                candidates.append(images)
    for _ in range(budget):
        if candidates and rng.random() < 0.3:
            images = candidates[rng.randrange(len(candidates))]
        else:
            images = [rng.choice(elems) for _ in range(k)]
        try:
            aut = RingAutomorphism(ring, images)
        except InvalidAutomorphism:
            continue
        if aut.is_identity():
            continue
        order = aut.order()
        if order <= 8 and _p_power_order(order, p):
            found.setdefault(aut.images, aut)
    return list(found.values())


def _p_subgroups(ring, auts, p, limit=12):
    groups = {}
    for a in auts:
        g = close_group([a], ring=ring, cap=16)
        if g.order <= 8 and _p_power_order(g.order, p) and g.order > 1:
            groups.setdefault(tuple(sorted(x.images for x in g.elements)), g)
    for a, b in itertools.combinations(auts[:6], 2):
        try:
            g = close_group([a, b], ring=ring, cap=16)
        except Exception:
            continue
        if g.order <= 8 and _p_power_order(g.order, p) and g.order > 1:
            groups.setdefault(tuple(sorted(x.images for x in g.elements)), g)
    return list(groups.values())[:limit]


def test_criterion_2_fixed_point_lemma():
    shapes = {
        2: [(2,), (4,), (2, 2), (8,), (4, 2), (2, 2, 2), (16,), (8, 2),
            (4, 4), (4, 2, 2), (2, 2, 2, 2), (32,), (16, 2), (8, 4),
            (8, 2, 2), (4, 4, 2), (4, 4, 4), (2, 2, 2, 2, 2), (64,)],
        3: [(3,), (9,), (3, 3), (27,), (9, 3), (3, 3, 3)],
        5: [(5,), (25,), (5, 5)],
        7: [(7,), (49,)],
    }
    with criterion(2, "p-group fixed points, |P| <= 8, |V| <= 64"):
        rng = random.Random(424242)
        cases = 0
        for p, shape_list in shapes.items():
            for shape in shape_list:
                ring = zero_mult_ring(shape)
                assert ring.order <= 64
                auts = _automorphism_candidates(ring, p, rng)
                for group in _p_subgroups(ring, auts, p):
                    modules = [Subgroup.from_generators(ring.additive,
                                                        ring.generators())]
                    scaled = Subgroup.from_generators(
                        ring.additive,
                        [ring.smul(p, g) for g in ring.generators()])
                    if not scaled.is_zero():
                        modules.append(scaled)
                    for module in modules:
                        fixed = p_group_fixed_point(group, module)
                        assert fixed is not None, (shape, group.order)
                        assert any(fixed)
                        assert all(a.apply(fixed) == fixed
                                   for a in group.elements)
                        cases += 1
        assert cases >= 100, f"only {cases} cases generated"


def test_criterion_3_h_constant_table():
    with criterion(3, "h-constant table"):
        assert h_constant(1) == 2
        assert h_constant(2) == 6
        assert h_constant(3) == 32
        assert h_constant(4) == 350


def test_criterion_4_soundness_sweep(tmp_path):
    with criterion(4, "zero counterexamples over named + 500 random"):
        assert len(THEOREM_IDS) == 18
        out = tmp_path / "sweep.json"
        code = cli_main(["check", "--random", "500", "--seed", "20260808",
                         "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f48c5b96602eb93b7f92aed4634a03648b8a5c186b9884e441fde3c293e0433b")
        reports = json.loads(out.read_text())
        assert len(reports) >= 510 * 18
        for report in reports:
            assert report["verdict"] != "counterexample", json.dumps(report)
            if report["verdict"] == "vacuous":
                failing = [h for h in report["hypotheses"]
                           if h["status"] == "fails"
                           and not h["text"].endswith("[masked]")]
                assert failing, f"no failing hypothesis named: {report}"


def test_criterion_5_n1_positive_instance(named_contexts):
    with criterion(5, "N1 on (zero-mult F4, order-6 group)"):
        report = check("N1", named_contexts["zm_f4"])
        assert report.verdict == "verified"
        hyps = {h.cond: h for h in report.hypotheses}
        assert hyps["B"].status == "holds"
        assert hyps["1(p=2)"].status == "holds"
        assert hyps["1(p=2)"].witness == {"complement_order": 3, "cyclic": True}
        assert hyps["2(p=2)"].status == "holds"
        assert hyps["3(p=2)"].status == "holds"
        assert hyps["3(p=2)"].witness == {"d": 1}
        power = {c.cond: c for c in report.conclusion}["power"]
        assert power.status == "holds (dominated)"
        assert power.witness["nilpotency_index"] == 2
        assert power.witness["bounds"][2]["l"]["value"] == 32 ** 6


def test_criterion_6_trace_nilpotency_desk_check(named_contexts):
    with criterion(6, "trace-nilpotency bound on (zero-mult F9, swap)"):
        ctx = named_contexts["zm_f9"]
        ring = ctx.ring
        # independent oracle: the trace image is the nonzero diagonal, its
        # square vanishes, and so does every 6-fold product
        t_img = ctx.trace_image()
        assert t_img.size == 3
        for a in t_img.elements():
            for b in t_img.elements():
                assert ring.mul(a, b) == ring.zero
        rng = random.Random(6)
        elems = list(ring.elements())
        for _ in range(500):
            acc = rng.choice(elems)
            for _ in range(5):
                acc = ring.mul(acc, rng.choice(elems))
            assert acc == ring.zero  # R^6 = 0, in particular R^{h(2)} = 0
        report = check("BI_1_4", named_contexts["zm_f9"])
        assert report.verdict == "verified"
        hyps = {h.cond: h for h in report.hypotheses}
        assert hyps["1"].status == "holds"
        assert hyps["2"].witness == {"d": 2}
        bound = report.conclusion[0]
        assert bound.status == "holds (dominated)"
        assert bound.witness["nilpotency_index"] == 2
        assert bound.witness["bound"] == {"base": 6, "exp": 2, "value": 36}


def test_criterion_7_radical_equality_pair(named_contexts):
    with criterion(7, "radical equality: positive and hypothesis-failure pair"):
        pos = check("RAD_1_4", named_contexts["f3xf3"])
        assert pos.verdict == "verified"
        neg = check("RAD_1_4", named_contexts["m2f2"])
        assert neg.verdict == "vacuous"
        assert any(h.cond == "invertible" and h.status == "fails"
                   for h in neg.hypotheses)
        concl = neg.conclusion[0]
        assert concl.status == "fails"
        # rad(R^G) has order 2 (the span of e12) while rad(R) ∩ R^G is zero
        assert concl.witness["fixed_ring_radical"].size == 2
        assert concl.witness["restricted_radical"].size == 1


def test_criterion_8_udim_bounds(named_catalog, named_contexts):
    with criterion(8, "uniform dimension spot values and bounds"):
        f3 = named_contexts["f3xf3"]
        assert uniform_dimension(f3.ring, LEFT).value == 2
        diag_ring = f3.fixed_image().ring
        assert uniform_dimension(diag_ring, LEFT).value == 1
        m2 = named_contexts["m2f2"]
        assert uniform_dimension(m2.ring, LEFT).value == 2
        for inst in named_catalog:
            ctx = named_contexts[inst.name]
            report = check("COR_A8", ctx)
            if report.verdict in ("verified", "counterexample"):
                # hypotheses held: the bounds must have been verified
                assert report.verdict == "verified"
                for side in (LEFT, RIGHT):
                    lo = uniform_dimension(ctx.fixed_image().ring, side)
                    hi = uniform_dimension(ctx.ring, side)
                    if lo.maximality == hi.maximality == "exhaustive":
                        assert lo.value <= hi.value <= ctx.n * lo.value


def test_criterion_9_lemma_suite(named_catalog, named_contexts):
    with criterion(9, "extension-restriction and lattice-injection lemmas"):
        checked_b6 = 0
        checked_c6 = 0
        for inst in named_catalog:
            if inst.ring.order > 256:
                continue
            ctx = named_contexts[inst.name]
            splittings, exhaustive = ctx.splittings()
            if not splittings:
                continue
            assert exhaustive
            image = ctx.fixed_image()
            for side in (LEFT, RIGHT):
                ideals, exh = enumerate_ideals(image.ring, side)
                assert exh
                for j in ideals:
                    emb = [image.from_image(b) for b in j.basis]
                    j_e = generated_ideal(ctx.ring, emb, side)
                    meet = j_e.sub.intersect(ctx.fixed.sub)
                    back = Subgroup.from_generators(
                        image.ring.additive,
                        [image.to_image(x) for x in meet.basis])
                    assert back == j.sub, (inst.name, side, j)
                    checked_b6 += 1
            for side in (LEFT, RIGHT):
                sd, status = ctx.proper_splitting(side)
                if status != "yes":
                    continue
                inv_ideals, exh = ctx.invariant_ideals(side)
                assert exh
                fixed_ideals, exh2 = enumerate_ideals(image.ring, side)
                assert exh2
                for ideal in inv_ideals:
                    restricted = Subgroup.from_generators(
                        image.ring.additive,
                        [image.to_image(x)
                         for x in ideal.sub.intersect(ctx.fixed.sub).basis])
                    for j in fixed_ideals:
                        if not all(j.contains(x) for x in restricted.basis):
                            continue
                        emb = [image.from_image(b) for b in j.basis]
                        rj_plus_i = generated_ideal(
                            ctx.ring, emb, side).sub.join(ideal.sub)
                        back = Subgroup.from_generators(
                            image.ring.additive,
                            [image.to_image(x)
                             for x in rj_plus_i.intersect(ctx.fixed.sub).basis])
                        assert back == j.sub, (inst.name, side, ideal, j)
                        checked_c6 += 1
        assert checked_b6 >= 20
        assert checked_c6 >= 20


def test_criterion_10_byte_determinism(tmp_path):
    with criterion(10, "byte-identical reports for identical configs"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["check", "--random", "20", "--seed", "777"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # the exact bytes are pinned, so refactors cannot change the report
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "32e582f98a3140ed6e43c8c8686a4b6a4687fed731f330aa52877ecda0206f04")


def test_criterion_11_roundtrip_identity(named_catalog):
    with criterion(11, "save/load identity on canonical files"):
        for inst in named_catalog:
            text = save_text(inst)
            reloaded = load_text(text, default_name=inst.name)
            assert save_text(reloaded) == text
            assert reloaded.ring.order == inst.ring.order
            assert reloaded.group.order == inst.group.order
