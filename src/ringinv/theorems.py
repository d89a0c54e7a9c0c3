"""One checker per statement about rings of invariants under finite actions.

Every checker evaluates its hypotheses item by item, evaluates the conclusion
whenever it is computable, and classifies the instance as verified, vacuous,
counterexample, or skipped(cap).  Conclusions that would need astronomically
large ring powers are proved by domination: a computed nilpotency index below
the bound implies the bound, and the clause is flagged "holds (dominated)".
Hypothesis masking (by condition id) supports necessity demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .caps import Caps, DEFAULT_CAPS
from .groups import AutomorphismGroup, RingAutomorphism, h_constant
from .invariants import (
    GActionContext,
    averaging_idempotent,
    degenerate_trace_ideal,
    is_proper_splitting,
    subgroup_power_nilpotency,
    torsion_ideal,
)
from .radicals import (
    enumerate_ideals,
    jacobson_radical,
    nilpotency_index,
    prime_radical,
    quotient_length,
    radical_profile,
    regular_elements_quotient,
    uniform_dimension,
)
from .ring_core import (
    LEFT,
    RIGHT,
    Ideal,
    Subgroup,
    SubringView,
    inverse,
    quotient_by_ideal,
    validate_ring,
)

THEOREM_IDS: tuple[str, ...] = (
    "BI_1_4", "MONT_1_7", "N1", "C1_5", "N2", "COR_A8", "TH_1_9", "TH_4APR",
    "RAD_1_4", "B5APR", "LEVITZKI", "TH_8APR", "COR_B8", "A5APR",
    "LEM_A6", "LEM_B6", "LEM_C6", "COR_C8",
)

TITLES = {
    "BI_1_4": "nilpotent trace forces a nilpotent ring (torsion-free case)",
    "MONT_1_7": "zero fixed ring with normal complements forces nilpotency",
    "N1": "nilpotency with explicit bounds under bad-prime conditions",
    "C1_5": "semiprimeness descends to the fixed ring (torsion-free case)",
    "N2": "semiprimeness descends to the fixed ring (bad-prime case)",
    "COR_A8": "Goldie transfer and uniform dimension bounds",
    "TH_1_9": "prime radical restriction (torsion-free case)",
    "TH_4APR": "prime radical restriction via the semiprime quotient",
    "RAD_1_4": "radical restriction when the group order is invertible",
    "B5APR": "radical restriction via proper splittings of the quotient",
    "LEVITZKI": "semisimplicity descends when the group order is invertible",
    "TH_8APR": "semisimplicity descends under proper splittings",
    "COR_B8": "semisimplicity equivalence with uniform dimension bounds",
    "A5APR": "zero radical descends under proper splittings",
    "LEM_A6": "containment and equality forms of proper splittings agree",
    "LEM_B6": "extension-restriction identity and length bounds",
    "LEM_C6": "invariant ideal decomposition under proper splittings",
    "COR_C8": "the averaging splitting satisfies the decomposition lemma",
}

HOLDS = "holds"
FAILS = "fails"
CAPPED = "capped"
DOMINATED = "holds (dominated)"

VERIFIED = "verified"
VACUOUS = "vacuous"
COUNTEREXAMPLE = "counterexample"
SKIPPED = "skipped(cap)"


class UnknownTheorem(ValueError):
    pass


@dataclass
class Clause:
    cond: str
    text: str
    status: str
    witness: object = None
    masked: bool = False

    def as_json(self) -> dict:
        out = {"text": self.text + (" [masked]" if self.masked else ""),
               "status": self.status}
        if self.witness is not None:
            out["witness"] = to_jsonable(self.witness)
        return out


@dataclass
class TheoremReport:
    theorem: str
    ring: str
    group: str
    hypotheses: list[Clause]
    conclusion: list[Clause]
    verdict: str
    caps: dict
    seed: int | None = None
    notes: list[str] = field(default_factory=list)

    def conclusion_status(self) -> str:
        return _worst(c.status for c in self.conclusion)

    def as_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "ring": self.ring,
            "group": self.group,
            "hypotheses": [h.as_json() for h in self.hypotheses],
            "conclusion": {
                "status": self.conclusion_status(),
                "witness": {"clauses": [c.as_json() for c in self.conclusion]},
            },
            "verdict": self.verdict,
            "caps": self.caps,
            "seed": self.seed,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, Subgroup):
        return {"basis": [list(b) for b in obj.basis], "size": obj.size}
    if isinstance(obj, Ideal):
        return {"side": obj.side, "basis": [list(b) for b in obj.basis],
                "size": obj.size}
    if isinstance(obj, SubringView):
        return {"basis": [list(b) for b in obj.basis], "size": obj.size}
    if isinstance(obj, AutomorphismGroup):
        return {"order": obj.order}
    if isinstance(obj, RingAutomorphism):
        return {"images": [list(v) for v in obj.images]}
    return str(obj)


def power_at_least(base: int, exp: int, threshold: int) -> bool:
    """Whether base**exp >= threshold, without materializing huge powers."""
    if threshold <= 1:
        return True
    if exp == 0:
        return False
    if base <= 1:
        return base >= threshold
    if exp >= threshold.bit_length():
        return True
    return base ** exp >= threshold


def big_power(base: int, exp: int) -> dict:
    """A power as reportable data; the exact value only when it stays small."""
    out = {"base": base, "exp": exp}
    if base <= 1 or exp * max(base.bit_length(), 1) <= 4096:
        out["value"] = base ** exp
    return out


# -- status algebra ----------------------------------------------------------------

# clause statuses from best to worst; a conjunction is as bad as its worst part
_SEVERITY = (HOLDS, DOMINATED, CAPPED, FAILS)


def _worst(statuses) -> str:
    return max(statuses, key=_SEVERITY.index, default=HOLDS)


def _capped(status: str, capped: bool) -> str:
    """A status that held over a sampled or cut-short scan is only capped."""
    return CAPPED if capped and status == HOLDS else status


def _branch_status(all_clauses: list[Clause]) -> str:
    """A branch that was never emitted fails; a fully masked one is waived."""
    if not all_clauses:
        return FAILS
    return _worst(h.status for h in all_clauses if not h.masked)


def _hyp_status(hyps: list[Clause]) -> str:
    parts = [h.status for h in hyps if not h.cond.startswith("alt") and not h.masked]
    alt1 = [h for h in hyps if h.cond.startswith("alt1")]
    alt2 = [h for h in hyps if h.cond.startswith("alt2")]
    if alt1 or alt2:
        parts.append(min(_branch_status(alt1), _branch_status(alt2), key=_SEVERITY.index))
    return _worst(parts)


def _cond_matches(cond: str, mask: str) -> bool:
    return cond == mask or cond.split("(")[0] == mask


def _apply_masks(theorem: str, hyps: list[Clause], masks) -> None:
    for spec in masks:
        th, _, cond = spec.partition(":")
        if th != theorem or not cond:
            continue
        for h in hyps:
            if _cond_matches(h.cond, cond):
                h.masked = True


# -- shared clause builders -----------------------------------------------------------

# the status of a clause read off a proper-splitting search
_SPLIT_STATUS = {"yes": HOLDS, "capped": CAPPED, "no": FAILS}


def _zero_ideal_clause(cond: str, label: str, ideal: Ideal) -> Clause:
    """Holds when the ideal is zero; a nonzero ideal is its own witness."""
    zero = ideal.is_zero()
    return Clause(cond, label, HOLDS if zero else FAILS,
                  witness=None if zero else ideal.sub)


def _no_group_torsion_clause(ctx: GActionContext, cond: str) -> Clause:
    return _zero_ideal_clause(cond, "the ring has no torsion at the group order",
                              torsion_ideal(ctx.ring, ctx.n))


def _semiprime_clause(ctx: GActionContext) -> Clause:
    return _zero_ideal_clause("semiprime", "the ring is semiprime", prime_radical(ctx.ring))


def _fixed_semiprime_clause(ctx: GActionContext) -> Clause:
    return _zero_ideal_clause("fixed-semiprime", "the fixed ring is semiprime",
                              prime_radical(ctx.fixed_image().ring))


def _semisimple_clauses(ctx: GActionContext) -> tuple[Clause, Clause]:
    """The ring is semisimple (a hypothesis) and so is the fixed ring (the
    conclusion)."""
    return (_zero_ideal_clause("semisimple", "the ring is semisimple Artinian",
                               jacobson_radical(ctx.ring)),
            _zero_ideal_clause("fixed-semisimple", "the fixed ring is semisimple Artinian",
                               jacobson_radical(ctx.fixed_image().ring)))


def _bad_primes_clause(cond: str, profile,
                       label: str = "the set of bad primes is nonempty") -> Clause:
    return Clause(cond, label, HOLDS if profile.primes else FAILS,
                  witness={"bad_primes": list(profile.primes)})


def _complement_clause(cond: str, p: int, complement, witness) -> Clause:
    return Clause(cond, f"condition 1 (p={p}): the group has a {p}-normal complement",
                  FAILS if complement is None else HOLDS, witness=witness)


def _invertible_order_clause(ctx: GActionContext) -> Clause:
    ring = ctx.ring
    if not ring.is_unital:
        status, witness = FAILS, "ring has no identity"
    else:
        n_one = ring.smul(ctx.n, ring.unit)
        inv = inverse(ring, n_one)
        if inv is None:
            status, witness = FAILS, {"n_times_one": list(n_one)}
        else:
            status, witness = HOLDS, {"inverse": list(inv)}
    return Clause("invertible", "the group order is invertible in the ring", status,
                  witness=witness)


def _bad_prime_condition_clauses(ctx: GActionContext, caps: Caps, prefix: str,
                                 torsion_index: int):
    """Per-prime complement clauses plus the shared fixed-ring torsion clause.

    These are the two numbered conditions shared by the semiprimeness,
    Goldie, and splitting statements; `torsion_index` is the integer whose
    torsion must vanish on the fixed ring (the acting group's order).
    """
    profile = ctx.bad_primes(caps)
    clauses = []
    for p in profile.primes:
        comp = profile.data[p].complement
        witness = ("order census is not a subgroup of the right size" if comp is None
                   else {"complement_order": comp.order})
        clauses.append(_complement_clause(f"{prefix}1(p={p})", p, comp, witness))
    clauses.append(_zero_ideal_clause(
        f"{prefix}2",
        f"condition 2: the fixed ring is {torsion_index}-torsion free",
        torsion_ideal(ctx.fixed_image().ring, torsion_index)))
    return clauses, profile


def _semiprime_bad_prime_hyps(ctx: GActionContext, caps: Caps):
    """Semiprimeness, nonempty bad primes and the two numbered conditions."""
    hyps = [_semiprime_clause(ctx)]
    cond_clauses, profile = _bad_prime_condition_clauses(ctx, caps, "", ctx.n)
    hyps.append(_bad_primes_clause("B", profile))
    hyps.extend(cond_clauses)
    return hyps, profile


def _splitting_alternative_hyps(ctx: GActionContext, caps: Caps) -> list[Clause]:
    """A proper splitting, then no torsion (alt1) or the bad-prime conditions
    (alt2)."""
    hyps = [
        _proper_splitting_clause(ctx, caps, "proper-splitting",
                                 "the group splits the ring properly on some side"),
        _no_group_torsion_clause(ctx, "alt1"),
        _bad_primes_clause("alt2.B", ctx.bad_primes(caps)),
    ]
    cond_clauses, _ = _bad_prime_condition_clauses(ctx, caps, "alt2.", ctx.n)
    return hyps + cond_clauses


def _radical_restriction_clause(ctx: GActionContext, cond: str, use_jacobson: bool) -> Clause:
    radical = jacobson_radical if use_jacobson else prime_radical
    rad_s = radical(ctx.fixed_image().ring)
    restricted = ctx.restrict(radical(ctx.ring).sub)
    kind = "radical" if use_jacobson else "prime radical"
    if restricted == rad_s.sub:
        status, witness = HOLDS, {"radical_size": rad_s.size}
    else:
        status, witness = FAILS, {"fixed_ring_radical": rad_s.sub,
                                  "restricted_radical": restricted}
    return Clause(cond, f"the {kind} of the fixed ring equals the restriction of the "
                        f"ring's {kind}", status, witness=witness)


def _proper_splitting_clause(ctx: GActionContext, caps: Caps, cond: str,
                             label: str) -> Clause:
    found = {}
    statuses = []
    for side in (LEFT, RIGHT):
        sd, status = ctx.proper_splitting(side, caps)
        statuses.append(status)
        if sd is not None:
            found[side] = sd
    if found:
        status, witness = HOLDS, {side: sd.complement for side, sd in found.items()}
    elif "capped" in statuses:
        status, witness = CAPPED, None
    else:
        status, witness = FAILS, "no proper splitting on either side"
    return Clause(cond, label, status, witness=witness)


SAMPLED_NOTE = ("invariant ideal enumeration was sampled, not exhaustive "
                "(above the configured caps)")


def _trace_clause(ctx: GActionContext, caps: Caps, cond: str, label: str,
                  powers: bool) -> Clause:
    """t(I) != 0 (and with `powers`, no power of t(I) vanishes) on every
    nonzero invariant one-sided ideal I."""
    ideal, d, capped = degenerate_trace_ideal(ctx, caps, powers)
    if ideal is None:
        return Clause(cond, label, _capped(HOLDS, capped))
    reason = "zero trace" if d == 1 else f"trace image power {d} vanishes"
    return Clause(cond, label, FAILS, witness={"ideal": ideal, "reason": reason})


def _udim_bounds_clause(ctx: GActionContext, caps: Caps) -> Clause:
    ring = ctx.ring
    image = ctx.fixed_image()
    values = {}
    capped = False
    for side in (LEFT, RIGHT):
        cert_r = uniform_dimension(ring, side, caps)
        cert_s = uniform_dimension(image.ring, side, caps)
        values[side] = {"ring": cert_r.value, "fixed": cert_s.value,
                        "ring_flag": cert_r.maximality,
                        "fixed_flag": cert_s.maximality}
        if cert_r.maximality != "exhaustive" or cert_s.maximality != "exhaustive":
            capped = True
    if capped:
        status = CAPPED
    elif all(v["fixed"] <= v["ring"] <= ctx.n * v["fixed"] for v in values.values()):
        status = HOLDS
    else:
        status = FAILS
    return Clause("udim", "udim(fixed) <= udim(ring) <= |G|*udim(fixed) on both sides",
                  status, witness=values)


def _quotient_context(ctx: GActionContext):
    """Quotient by the radical with the induced action.

    Returns (quotient, induced_group, bar_ctx, image_of_fixed): the image of
    the fixed ring is the subgroup generated by the projected fixed basis.
    The radical comes from `radical_profile`, which raises unless the prime
    and Jacobson radicals agree, so one cached context serves both.
    """
    def compute():
        ring = ctx.ring
        rad = radical_profile(ring).jacobson_radical
        for g in ctx.group.elements:
            for b in rad.basis:
                if not rad.contains(g.apply(b)):
                    raise RuntimeError("radical is not invariant; engine bug")
        quot = quotient_by_ideal(ring, rad, name=f"{ctx.ring_name}_bar")
        induced = {}
        qgens = quot.ring.generators()
        for g in ctx.group.elements:
            images = tuple(quot.project(g.apply(quot.lift(e))) for e in qgens)
            if images not in induced:
                induced[images] = RingAutomorphism(quot.ring, images)
        bar_group = AutomorphismGroup(quot.ring, induced.values())
        bar_ctx = GActionContext(quot.ring, bar_group,
                                 ring_name=f"{ctx.ring_name}_bar",
                                 group_name=f"{ctx.group_name}_bar")
        fixed_image = Subgroup.from_generators(
            quot.ring.additive, [quot.project(x) for x in ctx.fixed.sub.basis])
        return quot, bar_group, bar_ctx, fixed_image
    return ctx._cached("quotient_ctx", compute)


# -- the checkers ----------------------------------------------------------------------

def _chk_bi_1_4(ctx: GActionContext, caps: Caps):
    ring = ctx.ring
    hyps = [_no_group_torsion_clause(ctx, "1")]
    d, stabilized = subgroup_power_nilpotency(ring, ctx.trace_image(), caps.d_search)
    hyps.append(Clause(
        "2", "some power of the trace image vanishes", FAILS if d is None else HOLDS,
        witness={"d_cap": caps.d_search, "stabilized_nonzero": stabilized}
        if d is None else {"d": d}))
    if d is None:
        status, witness = CAPPED, "no trace nilpotency degree found"
    else:
        idx = nilpotency_index(ring)
        h = h_constant(ctx.n)
        if idx is None:
            status, witness = FAILS, "the ring is not nilpotent"
        else:
            status = DOMINATED if power_at_least(h, d, idx) else FAILS
            witness = {"nilpotency_index": idx, "bound": big_power(h, d)}
    concls = [Clause("bound", "the ring power at h(|G|)^d vanishes", status,
                     witness=witness)]
    return hyps, concls, []


def _chk_mont_1_7(ctx: GActionContext, caps: Caps):
    hyps = [Clause("1", "the fixed ring is zero",
                   HOLDS if ctx.fixed.size == 1 else FAILS,
                   witness=None if ctx.fixed.size == 1 else ctx.fixed.sub)]
    profile = ctx.bad_primes(caps)
    missing = [p for p in profile.primes if profile.data[p].complement is None]
    hyps.append(Clause("2", "every bad prime admits a normal complement",
                       FAILS if missing else HOLDS,
                       witness={"missing": missing} if missing
                       else {"bad_primes": list(profile.primes)}))
    idx = nilpotency_index(ctx.ring)
    concl = [Clause("nilpotent", "the ring is nilpotent", FAILS if idx is None else HOLDS,
                    witness="powers stabilize at a nonzero ideal" if idx is None
                    else {"nilpotency_index": idx})]
    return hyps, concl, []


def _chk_n1(ctx: GActionContext, caps: Caps):
    profile = ctx.bad_primes(caps)
    hyps = [_bad_primes_clause("B", profile)]
    fixed_ring = ctx.fixed_image().ring
    notes: list[str] = []
    for p in profile.primes:
        data = profile.data[p]
        comp = data.complement
        hyps.append(_complement_clause(
            f"1(p={p})", p, comp,
            None if comp is None else {"complement_order": comp.order,
                                       "cyclic": _is_cyclic(comp)}))
        hyps.append(_zero_ideal_clause(
            f"2(p={p})", f"condition 2 (p={p}): the fixed ring is {p}-torsion free",
            torsion_ideal(fixed_ring, p)))
        if comp is None:
            status, witness = CAPPED, "not evaluable without the normal complement"
        elif data.d is not None:
            status, witness = HOLDS, {"d": data.d}
        else:
            status, witness = FAILS, {"d_cap": data.d_cap,
                                      "stabilized_nonzero": data.d_stabilized}
            notes.append(
                f"no trace nilpotency degree up to {data.d_cap} for p={p}; "
                f"recorded as hypothesis failure with the cap")
        hyps.append(Clause(
            f"3(p={p})", f"condition 3 (p={p}): the relative trace image is nilpotent",
            status, witness=witness))
    evaluable = profile.primes and all(
        profile.data[p].complement is not None and profile.data[p].d is not None
        for p in profile.primes)
    if not evaluable:
        power = fixed = (CAPPED, "bound data incomplete")
    else:
        power, fixed = _n1_bounds(ctx, profile)
    concls = [
        Clause("power", "the ring power at the maximal bound vanishes", *power),
        Clause("fixed-rings",
               "complement-fixed subrings are torsion free and nilpotent"
               + (" within the bound" if evaluable else ""), *fixed),
    ]
    return hyps, concls, notes


def _n1_bounds(ctx: GActionContext, profile):
    """(status, witness) of N1's two conclusions once every bad prime has its
    complement and its trace nilpotency degree."""
    idx = nilpotency_index(ctx.ring)
    bounds = {}
    dominated = False
    for p in profile.primes:
        data = profile.data[p]
        h_n = h_constant(data.complement.order)
        m_p = h_constant(data.quotient_order) ** data.d
        bounds[p] = {"l": big_power(h_n, m_p), "m": big_power(
            h_constant(data.quotient_order), data.d)}
        if idx is not None and power_at_least(h_n, m_p, idx):
            dominated = True
    if idx is None:
        power = FAILS, {"bounds": bounds, "reason": "ring not nilpotent"}
    else:
        power = (DOMINATED if dominated else FAILS), {"nilpotency_index": idx,
                                                      "bounds": bounds}
    per_prime = {}
    ok = True
    for p in profile.primes:
        data = profile.data[p]
        sring = data.fixed_image.ring
        tor = torsion_ideal(sring, p)
        sidx = nilpotency_index(sring)
        m_p = h_constant(data.quotient_order) ** data.d
        entry = {"p_torsion_free": tor.is_zero(),
                 "nilpotency_index": sidx,
                 "m": big_power(h_constant(data.quotient_order), data.d)}
        per_prime[p] = entry
        if not tor.is_zero() or sidx is None or sidx > m_p:
            ok = False
    return power, (DOMINATED if ok else FAILS, per_prime)


def _is_cyclic(group: AutomorphismGroup) -> bool:
    return any(a.order() == group.order for a in group.elements)


def _chk_c1_5(ctx: GActionContext, caps: Caps):
    hyps = [_semiprime_clause(ctx), _no_group_torsion_clause(ctx, "torsion-free")]
    concls = [_fixed_semiprime_clause(ctx), _trace_clause(
        ctx, caps, "trace-nonzero",
        "every nonzero invariant one-sided ideal has nonzero trace", powers=False)]
    notes = [SAMPLED_NOTE] if concls[-1].status == CAPPED else []
    return hyps, concls, notes


def _chk_n2(ctx: GActionContext, caps: Caps):
    hyps, profile = _semiprime_bad_prime_hyps(ctx, caps)
    notes = []
    if (hyps[0].status == HOLDS and profile.primes
            and any(h.cond == "2" and h.status == FAILS for h in hyps)):
        notes.append(
            "systematic vacuity at finite scale: a finite semiprime ring is "
            "unital, so any bad prime places p-torsion on the identity inside "
            "the fixed ring and condition 2 must fail")
    concls = [_fixed_semiprime_clause(ctx), _trace_clause(
        ctx, caps, "trace-powers",
        "nonzero invariant one-sided ideals have nonzero trace with nonzero powers",
        powers=True)]
    if concls[-1].status == CAPPED:
        notes.append(SAMPLED_NOTE)
    return hyps, concls, notes


def _chk_cor_a8(ctx: GActionContext, caps: Caps):
    hyps, _ = _semiprime_bad_prime_hyps(ctx, caps)
    notes = ["the nonzero-set condition on the bad primes is read as "
             "nonemptiness",
             "quotient-ring statements are evaluated in the finite degenerate "
             "form: every regular element of a finite unital ring is a unit"]
    ring = ctx.ring
    image = ctx.fixed_image()
    reg_r = regular_elements_quotient(ring)
    reg_s = regular_elements_quotient(image.ring)
    reg_r_set = set(reg_r.regular)
    bad = [s for s in reg_s.regular if image.from_image(s) not in reg_r_set]
    if bad:
        status, witness = FAILS, {"escaping_regular": [list(b) for b in bad]}
    else:
        status, witness = HOLDS, {"ring_quotient": reg_r.quotient_status,
                                  "fixed_quotient": reg_s.quotient_status}
    concls = [Clause("goldie", "both rings are Goldie together and fixed-ring regular "
                               "elements stay regular", status, witness=witness),
              _udim_bounds_clause(ctx, caps)]
    return hyps, concls, notes


def _chk_th_1_9(ctx: GActionContext, caps: Caps):
    hyps = [_no_group_torsion_clause(ctx, "torsion-free")]
    concls = [_radical_restriction_clause(ctx, "prime-radical-restriction",
                                          use_jacobson=False)]
    return hyps, concls, []


def _chk_th_4apr(ctx: GActionContext, caps: Caps):
    quot, bar_group, bar_ctx, fixed_image = _quotient_context(ctx)
    bar_profile = bar_ctx.bad_primes(caps)
    hyps = [Clause("alt1", "the induced action on the semiprime quotient has "
                           "no bad primes",
                   HOLDS if not bar_profile.primes else FAILS,
                   witness={"bad_primes": list(bar_profile.primes)})]
    if bar_profile.primes:
        cond_clauses, _ = _bad_prime_condition_clauses(
            bar_ctx, caps, "alt2.", ctx.n)
        hyps.extend(cond_clauses)
    concls = [_radical_restriction_clause(ctx, "prime-radical-restriction",
                                          use_jacobson=False)]
    bar_fixed_ring = bar_ctx.fixed_image().ring
    sp1 = prime_radical(bar_fixed_ring).is_zero()
    image_view = SubringView(quot.ring, fixed_image)
    image_ring = image_view.image(name="im_fixed").ring
    sp2 = prime_radical(image_ring).is_zero()
    scaled_ok = all(
        fixed_image.contains(quot.ring.smul(ctx.n, x))
        for x in bar_ctx.fixed.sub.basis)
    sandwich_ok = all(bar_ctx.fixed.sub.contains(x) for x in fixed_image.basis)
    witness = {"quotient_fixed_semiprime": sp1, "image_semiprime": sp2,
               "scaled_inclusion": scaled_ok, "image_inclusion": sandwich_ok}
    ok = sp1 and sp2 and scaled_ok and sandwich_ok
    concls.append(Clause(
        "images-semiprime",
        "quotient fixed ring and fixed-ring image are semiprime and nested "
        "around |G| times the former",
        HOLDS if ok else FAILS, witness=witness))
    return hyps, concls, []


def _chk_rad_1_4(ctx: GActionContext, caps: Caps):
    hyps = [_invertible_order_clause(ctx)]
    concls = [_radical_restriction_clause(ctx, "radical-restriction",
                                          use_jacobson=True)]
    return hyps, concls, []


def _chk_b5apr(ctx: GActionContext, caps: Caps):
    quot, bar_group, bar_ctx, fixed_image = _quotient_context(ctx)
    hyps = []
    compat = fixed_image == bar_ctx.fixed.sub
    hyps.append(Clause(
        "fix-compat",
        "the image of the fixed ring equals the fixed ring of the induced action",
        HOLDS if compat else FAILS,
        witness=None if compat else {"image": fixed_image,
                                     "quotient_fixed": bar_ctx.fixed.sub}))
    hyps.append(_proper_splitting_clause(
        bar_ctx, caps, "proper-splitting",
        "the induced group splits the radical quotient properly on some side"))
    hyps.append(_zero_ideal_clause(
        "alt1", "the radical quotient has no torsion at the induced group order",
        torsion_ideal(quot.ring, bar_group.order)))
    hyps.append(_bad_primes_clause("alt2.B", bar_ctx.bad_primes(caps),
                                   "the induced action on the quotient has bad primes"))
    cond_clauses, _ = _bad_prime_condition_clauses(
        bar_ctx, caps, "alt2.", bar_group.order)
    hyps.extend(cond_clauses)
    concls = [_radical_restriction_clause(ctx, "radical-restriction",
                                          use_jacobson=True)]
    return hyps, concls, []


def _chk_levitzki(ctx: GActionContext, caps: Caps):
    semisimple, fixed_semisimple = _semisimple_clauses(ctx)
    return [_invertible_order_clause(ctx), semisimple], [fixed_semisimple], []


def _chk_th_8apr(ctx: GActionContext, caps: Caps):
    semisimple, fixed_semisimple = _semisimple_clauses(ctx)
    return [semisimple, *_splitting_alternative_hyps(ctx, caps)], [fixed_semisimple], []


def _chk_cor_b8(ctx: GActionContext, caps: Caps):
    hyps, _ = _semiprime_bad_prime_hyps(ctx, caps)
    notes = ["the nonzero-set condition on the bad primes is read as "
             "nonemptiness"]
    ss_r = jacobson_radical(ctx.ring).is_zero()
    ss_s = jacobson_radical(ctx.fixed_image().ring).is_zero()
    concls = [Clause("equiv",
                     "the ring is semisimple Artinian iff the fixed ring is",
                     HOLDS if ss_r == ss_s else FAILS,
                     witness={"ring": ss_r, "fixed": ss_s})]
    if ss_r and ss_s:
        concls.append(_udim_bounds_clause(ctx, caps))
    else:
        concls.append(Clause("udim", "udim bounds (only when both are semisimple)",
                             HOLDS, witness="not applicable"))
    return hyps, concls, notes


def _chk_a5apr(ctx: GActionContext, caps: Caps):
    hyps = [_zero_ideal_clause("rad-zero", "the ring has zero radical",
                               jacobson_radical(ctx.ring))]
    hyps.extend(_splitting_alternative_hyps(ctx, caps))
    concls = [_zero_ideal_clause("fixed-rad-zero", "the fixed ring has zero radical",
                                 jacobson_radical(ctx.fixed_image().ring))]
    return hyps, concls, []


def _splitting_exists_clause(ctx: GActionContext, caps: Caps) -> tuple[Clause, list]:
    found, exhaustive = ctx.splittings(caps)
    if found:
        status, witness = HOLDS, {"count": len(found), "first": found[0].complement}
    else:
        status, witness = FAILS if exhaustive else CAPPED, None
    return Clause("splitting", "a splitting over the fixed ring exists", status,
                  witness=witness), found


def _chk_lem_a6(ctx: GActionContext, caps: Caps):
    clause, found = _splitting_exists_clause(ctx, caps)
    hyps = [clause]
    concls = []
    status = HOLDS
    witness = None
    capped = False
    for sd in found:
        for side in (LEFT, RIGHT):
            report = is_proper_splitting(ctx, sd, side, caps)
            if report.status == "capped":
                capped = True
            if report.status == "yes" and report.equality_holds is False:
                status = FAILS
                witness = {"complement": sd.complement, "side": side}
    concls.append(Clause(
        "equivalence",
        "containment of projections in ideal meets for all invariant ideals "
        "is equivalent to equality for all (reverse containment is automatic)",
        _capped(status, capped), witness=witness))
    return hyps, concls, ([SAMPLED_NOTE] if capped else [])


def _chk_lem_b6(ctx: GActionContext, caps: Caps):
    clause, found = _splitting_exists_clause(ctx, caps)
    hyps = [clause]
    image = ctx.fixed_image()
    er_status = HOLDS
    er_witness = None
    len_status = HOLDS
    len_witness = None
    capped = False
    for side in (LEFT, RIGHT):
        ideals, exhaustive = enumerate_ideals(image.ring, side, caps)
        capped = capped or not exhaustive
        for j in ideals:
            j_e = ctx.extend(j.sub, side)
            back = ctx.restrict(j_e.sub)
            if back != j.sub:
                er_status = FAILS
                er_witness = {"side": side, "ideal": j, "restriction": back}
                break
            l_s = quotient_length(image.ring, side, j.sub, caps)
            l_r = quotient_length(ctx.ring, side, j_e.sub, caps)
            if l_s is None or l_r is None:
                len_status = _capped(len_status, True)
            elif l_s > l_r:
                len_status = FAILS
                len_witness = {"side": side, "ideal": j,
                               "fixed_length": l_s, "ring_length": l_r}
        if er_status == FAILS:
            break
    concls = [
        Clause("restriction-identity",
               "extension then restriction is the identity on fixed-ring "
               "one-sided ideals",
               _capped(er_status, capped), witness=er_witness),
        Clause("length-bound",
               "fixed-ring quotient lengths never exceed ring quotient lengths",
               _capped(len_status, capped), witness=len_witness),
    ]
    return hyps, concls, ([SAMPLED_NOTE] if capped else [])


def _c6_clauses(ctx: GActionContext, sd, side: str, caps: Caps, tag: str):
    """The invariant-ideal decomposition clauses for one proper splitting."""
    image = ctx.fixed_image()
    ideals, exhaustive = ctx.invariant_ideals(side, caps)
    fixed_ideals, f_exhaustive = enumerate_ideals(image.ring, side, caps)
    capped = not (exhaustive and f_exhaustive)
    dec_status, dec_witness = HOLDS, None
    inj_status, inj_witness = HOLDS, None
    len_status, len_witness = HOLDS, None
    for ideal in ideals:
        meet_s = ctx.meet(ideal.sub)
        meet_b = ideal.sub.intersect(sd.complement)
        if meet_s.join(meet_b) != ideal.sub or not meet_s.intersect(meet_b).is_zero():
            dec_status, dec_witness = FAILS, {"ideal": ideal}
            break
        restricted = ctx.restrict(ideal.sub)
        for j in fixed_ideals:
            if not all(j.contains(x) for x in restricted.basis):
                continue
            back = ctx.restrict(ctx.extend(j.sub, side).sub.join(ideal.sub))
            if back != j.sub:
                inj_status, inj_witness = FAILS, {
                    "ideal": ideal, "fixed_ideal": j, "restriction": back}
                break
        if inj_status == FAILS:
            break
        l_s = quotient_length(image.ring, side, restricted, caps)
        l_r = quotient_length(ctx.ring, side, ideal.sub, caps)
        if l_s is None or l_r is None:
            len_status = CAPPED
        elif l_s > l_r:
            len_status, len_witness = FAILS, {
                "ideal": ideal, "fixed_length": l_s, "ring_length": l_r}
    return [
        Clause(f"decompose[{tag}]",
               f"every invariant {side} ideal is the direct sum of its fixed "
               f"part and its complement part",
               _capped(dec_status, capped), witness=dec_witness),
        Clause(f"lattice-injection[{tag}]",
               f"(extension + ideal) meets the fixed ring exactly in the "
               f"fixed-ring ideal, for {side} ideals",
               _capped(inj_status, capped), witness=inj_witness),
        Clause(f"length[{tag}]",
               f"fixed-ring length of the meet quotient is at most the ring "
               f"length of the {side} quotient",
               _capped(len_status, capped), witness=len_witness),
        Clause(f"chain-conditions[{tag}]",
               "Artinian/Noetherian descent holds (finite modules have both)",
               HOLDS),
    ]


def _chk_lem_c6(ctx: GActionContext, caps: Caps):
    hyps = []
    sides = {}
    for cond, side in (("alt1", LEFT), ("alt2", RIGHT)):
        sd, status = ctx.proper_splitting(side, caps)
        if sd is not None:
            sides[side] = sd
        hyps.append(Clause(cond, f"a {side} proper splitting exists", _SPLIT_STATUS[status],
                           witness=None if sd is None else {"complement": sd.complement}))
    concls = []
    for side, sd in sides.items():
        concls.extend(_c6_clauses(ctx, sd, side, caps, side))
    if not concls:
        concls.append(Clause("decompose", "invariant ideal decomposition",
                             CAPPED, witness="no proper splitting available"))
    notes = ["the length comparison's right side is read as the length of the "
             "ring quotient (the literal statement names a set that is not a "
             "module over the ring)"]
    if any(c.status == CAPPED for c in concls):
        notes.append(SAMPLED_NOTE)
    return hyps, concls, notes


def _chk_cor_c8(ctx: GActionContext, caps: Caps):
    hyps = [_invertible_order_clause(ctx)]
    sd = averaging_idempotent(ctx) if hyps[0].status == HOLDS else None
    if sd is None:
        status, witness = CAPPED, "averaging idempotent unavailable"
    else:
        witness = {side: is_proper_splitting(ctx, sd, side, caps).status
                   for side in (LEFT, RIGHT)}
        status = (HOLDS if all(v == "yes" for v in witness.values())
                  else CAPPED if "capped" in witness.values() else FAILS)
    concls = [Clause("averaging-proper", "the averaging splitting is proper on both sides",
                     status, witness=witness)]
    if sd is not None:
        for side in (LEFT, RIGHT):
            concls.extend(_c6_clauses(ctx, sd, side, caps, f"avg-{side}"))
    return hyps, concls, []


_CHECKERS = {
    "BI_1_4": _chk_bi_1_4,
    "MONT_1_7": _chk_mont_1_7,
    "N1": _chk_n1,
    "C1_5": _chk_c1_5,
    "N2": _chk_n2,
    "COR_A8": _chk_cor_a8,
    "TH_1_9": _chk_th_1_9,
    "TH_4APR": _chk_th_4apr,
    "RAD_1_4": _chk_rad_1_4,
    "B5APR": _chk_b5apr,
    "LEVITZKI": _chk_levitzki,
    "TH_8APR": _chk_th_8apr,
    "COR_B8": _chk_cor_b8,
    "A5APR": _chk_a5apr,
    "LEM_A6": _chk_lem_a6,
    "LEM_B6": _chk_lem_b6,
    "LEM_C6": _chk_lem_c6,
    "COR_C8": _chk_cor_c8,
}


def check(theorem: str, ctx: GActionContext, caps: Caps = DEFAULT_CAPS,
          masks=(), seed: int | None = None) -> TheoremReport:
    """Evaluate one statement on one instance and classify the outcome."""
    if theorem not in _CHECKERS:
        raise UnknownTheorem(theorem)
    hyps, concls, notes = _CHECKERS[theorem](ctx, caps)
    _apply_masks(theorem, hyps, masks)
    hstat = _hyp_status(hyps)
    cstat = _worst(c.status for c in concls)
    if hstat == FAILS:
        verdict = VACUOUS
    elif hstat == CAPPED:
        verdict = SKIPPED
    elif cstat in (HOLDS, DOMINATED):
        verdict = VERIFIED
    elif cstat == FAILS:
        verdict = COUNTEREXAMPLE
    else:
        verdict = SKIPPED
    caps_echo = dict(caps.as_dict())
    if masks:
        caps_echo["masks"] = sorted(masks)
    return TheoremReport(
        theorem=theorem,
        ring=ctx.ring_name,
        group=ctx.group_name,
        hypotheses=hyps,
        conclusion=concls,
        verdict=verdict,
        caps=caps_echo,
        seed=seed,
        notes=notes,
    )


def rebuild_context(ctx: GActionContext) -> GActionContext:
    """Reconstruct an instance from raw data, revalidating everything."""
    ring = validate_ring(ctx.ring.cyclic_orders, ctx.ring.mul_table,
                         unit_hint=ctx.ring.unit, name=ctx.ring.name)
    auts = [RingAutomorphism(ring, a.images) for a in ctx.group.elements]
    group = AutomorphismGroup(ring, auts)
    return GActionContext(ring, group, ring_name=ctx.ring_name,
                          group_name=ctx.group_name)


def counterexample_search(theorem_ids, contexts, caps: Caps = DEFAULT_CAPS,
                          masks=(), budget: int | None = None,
                          seed: int | None = None) -> list[TheoremReport]:
    """Run checks across instances and return re-verified counterexamples.

    Every candidate is re-checked from a rebuilt context; a report is only
    returned when the second pass reproduces it bit for bit.
    """
    out = []
    spent = 0
    for ctx in contexts:
        for theorem in theorem_ids:
            if budget is not None and spent >= budget:
                return out
            report = check(theorem, ctx, caps, masks, seed=seed)
            spent += 1
            if report.verdict != COUNTEREXAMPLE:
                continue
            fresh = rebuild_context(ctx)
            second = check(theorem, fresh, caps, masks, seed=seed)
            if second.as_json() == report.as_json():
                out.append(report)
    return out


def background_invariants(ctx: GActionContext) -> list[tuple[str, bool, object]]:
    """Unconditional facts checked on every instance, independent of verdicts."""
    ring = ctx.ring
    image = ctx.fixed_image()
    results = []
    for kind, radical in (("radical", jacobson_radical),
                          ("prime radical", prime_radical)):
        rad_r = radical(ring).sub
        ok = all(radical(image.ring).contains(y) for y in ctx.restrict(rad_r).basis)
        results.append((f"{kind} restriction is contained in the fixed {kind}",
                        ok, None if ok else ctx.meet(rad_r)))
    # the trace is additive, so both trace checks hold iff they hold on generators
    ok = all(ctx.fixed.contains(ctx.trace(x)) for x in ring.generators())
    results.append(("traces land in the fixed ring", ok, None))
    ok = all(ctx.trace(g.apply(x)) == ctx.trace(x)
             for x in ring.generators() for g in ctx.group.elements)
    results.append(("the trace is constant on orbits", ok, None))
    tor = torsion_ideal(ring, ctx.n)
    ok = all(tor.contains(g.apply(b))
             for g in ctx.group.elements for b in tor.basis)
    results.append(("the group-order torsion ideal is invariant", ok, None))
    return results
