"""One checker per statement about rings of invariants under finite actions.

Every checker evaluates its hypotheses item by item, evaluates the conclusion
whenever it is computable, and classifies the instance as verified, vacuous,
counterexample, or skipped(cap).  Conclusions that would need astronomically
large ring powers are proved by domination: a computed nilpotency index below
the bound implies the bound, and the clause is flagged "holds (dominated)".
Hypothesis masking (by condition id) supports necessity demonstrations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .caps import Caps, DEFAULT_CAPS
from .groups import AutomorphismGroup, RingAutomorphism, h_constant, induced_action
from .invariants import (
    GActionContext,
    averaging_idempotent,
    degenerate_trace_ideal,
    is_proper_splitting,
    subgroup_power_nilpotency,
    torsion_ideal,
    unit_group,
)
from .radicals import (
    enumerate_ideals,
    exact_lattice,
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
    sided,
    validate_ring,
)

THEOREM_IDS: tuple[str, ...] = (
    "BI_1_4", "MONT_1_7", "N1", "C1_5", "N2", "COR_A8", "TH_1_9", "TH_4APR",
    "RAD_1_4", "B5APR", "LEVITZKI", "TH_8APR", "COR_B8", "A5APR",
    "LEM_A6", "LEM_B6", "LEM_C6", "COR_C8",
)

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
    """The JSON form of a report value.  A type without one raises
    `TypeError`, so no repr text can reach the report."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Subgroup):
        return {"basis": [list(b) for b in obj.basis], "size": obj.size}
    if isinstance(obj, Ideal):
        return {"side": obj.side, "basis": [list(b) for b in obj.basis],
                "size": obj.size}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


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


def parse_masks(text: str) -> frozenset:
    """The specs of a comma-separated mask list; ValueError as in `check`."""
    masks = frozenset(m.strip() for m in text.split(",") if m.strip())
    _parsed_masks(masks)
    return masks


@functools.lru_cache(maxsize=16)
def _parsed_masks(masks: frozenset) -> tuple[dict, tuple]:
    """(the masked conditions of each theorem, the sorted specs to echo),
    parsed once per mask set.  A spec is THEOREM:condition with a condition
    stem (before any "(p=…)") in `HYPOTHESIS_CONDITIONS`; any other would
    mask nothing, so the first in sorted order raises ValueError."""
    conds: dict = {}
    for spec in sorted(masks):
        th, _, cond = spec.partition(":")
        if th not in HYPOTHESIS_CONDITIONS or not cond:
            raise ValueError(f"{spec!r}: expected THEOREM:condition with a known "
                             f"theorem id")
        stem = cond.partition("(")[0]
        if stem not in HYPOTHESIS_CONDITIONS[th]:
            raise ValueError(f"{spec!r}: {th} has no hypothesis condition {stem!r}")
        conds.setdefault(th, []).append(cond)
    return {th: tuple(c) for th, c in conds.items()}, tuple(sorted(masks))


def _apply_masks(hyps: list[Clause], conds) -> None:
    for cond in conds:
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


def _no_group_torsion_clause(ctx: GActionContext, cond: str,
                              label: str = "the ring has no torsion at the group order"
                              ) -> Clause:
    return _zero_ideal_clause(cond, label, torsion_ideal(ctx.ring, ctx.n))


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
                                 torsion_index: int) -> list[Clause]:
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
    return clauses


def _semiprime_bad_prime_hyps(ctx: GActionContext, caps: Caps) -> list[Clause]:
    """Semiprimeness, nonempty bad primes and the two numbered conditions."""
    hyps = [_semiprime_clause(ctx), _bad_primes_clause("B", ctx.bad_primes(caps))]
    return hyps + _bad_prime_condition_clauses(ctx, caps, "", ctx.n)


# the texts of the splitting alternative's proper-splitting, alt1 and alt2.B
# clauses, on the ring and on its radical quotient
_RING_SPLIT_LABELS = ("the group splits the ring properly on some side",
                      "the ring has no torsion at the group order",
                      "the set of bad primes is nonempty")
_QUOTIENT_SPLIT_LABELS = (
    "the induced group splits the radical quotient properly on some side",
    "the radical quotient has no torsion at the induced group order",
    "the induced action on the quotient has bad primes")


def _splitting_alternative_hyps(ctx: GActionContext, caps: Caps,
                                labels=_RING_SPLIT_LABELS) -> list[Clause]:
    """A proper splitting, then no torsion at the order of the acting group
    (alt1) or the bad-prime conditions (alt2)."""
    split_label, torsion_label, bad_label = labels
    hyps = [
        _proper_splitting_clause(ctx, caps, "proper-splitting", split_label),
        _no_group_torsion_clause(ctx, "alt1", torsion_label),
        _bad_primes_clause("alt2.B", ctx.bad_primes(caps), bad_label),
    ]
    return hyps + _bad_prime_condition_clauses(ctx, caps, "alt2.", ctx.n)


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


def _trace_power_result(d: int | None, stabilized: bool, caps: Caps):
    """(status, witness) of a trace-power nilpotency search: it holds with
    the degree d found, or fails with the cap it reached and whether the
    powers stabilized at a nonzero subgroup."""
    if d is None:
        return FAILS, {"d_cap": caps.d_search, "stabilized_nonzero": stabilized}
    return HOLDS, {"d": d}


def _length_comparison(ctx: GActionContext, side: str, fixed_sub: Subgroup,
                       ring_sub: Subgroup, caps: Caps, found, witness: dict):
    """Fold the comparison of len(R^G/fixed_sub) with len(R/ring_sub) on
    `side` into `found`, the (status, witness) so far: capped when either
    length is cut off by a cap, failing with `witness` and both lengths when
    the fixed-ring one is larger."""
    l_s = quotient_length(ctx.fixed_image().ring, side, fixed_sub, caps)
    l_r = quotient_length(ctx.ring, side, ring_sub, caps)
    if l_s is None or l_r is None:
        return _capped(found[0], True), found[1]
    if l_s > l_r:
        return FAILS, {**witness, "fixed_length": l_s, "ring_length": l_r}
    return found


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

    Returns (bar_ctx, image_of_fixed): the context of the quotient ring under
    the induced group, and the image of the fixed ring, the subgroup
    generated by the projected fixed basis.  The radical comes from
    `radical_profile`, which raises unless the prime and Jacobson radicals
    agree, so one cached context serves both.  When J(R) = 0 and R's cyclic
    orders are already Smith invariant factors, the quotient ring is R
    itself (`quotient_by_ideal`), and so is this context; other orders
    (Z/2 × Z/5 → Z/10) give a checked full-order copy of R, which carries
    R's radicals and exact ideal lattices (`ring_core.copy_source`).
    """
    def compute():
        ring = ctx.ring
        rad = radical_profile(ring).jacobson_radical
        for g in ctx.group.elements:
            for b in rad.basis:
                if not rad.contains(g.apply(b)):
                    raise RuntimeError("radical is not invariant; engine bug")
        quot = quotient_by_ideal(ring, rad, name=f"{ctx.ring_name}_bar")
        if quot.ring is ring:
            return ctx, ctx.fixed.sub
        bar_group = AutomorphismGroup(quot.ring, induced_action(ctx.group, quot).values())
        bar_ctx = GActionContext(quot.ring, bar_group,
                                 ring_name=f"{ctx.ring_name}_bar",
                                 group_name=f"{ctx.group_name}_bar")
        fixed_image = Subgroup.from_generators(
            quot.ring.additive, [quot.to_image(x) for x in ctx.fixed.sub.basis])
        return bar_ctx, fixed_image
    return ctx._cached("quotient_ctx", compute)


# -- the checkers ----------------------------------------------------------------------

def _chk_bi_1_4(ctx: GActionContext, caps: Caps):
    ring = ctx.ring
    hyps = [_no_group_torsion_clause(ctx, "1")]
    d, stabilized = subgroup_power_nilpotency(ring, ctx.trace_image(), caps.d_search)
    hyps.append(Clause("2", "some power of the trace image vanishes",
                       *_trace_power_result(d, stabilized, caps)))
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
        else:
            status, witness = _trace_power_result(data.d, data.d_stabilized, caps)
        if status == FAILS:
            notes.append(
                f"no trace nilpotency degree up to {caps.d_search} for p={p}; "
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
    per_prime = {}
    dominated = False
    ok = True
    for p in profile.primes:
        data = profile.data[p]
        h_q = h_constant(data.quotient_order)
        m_p = h_q ** data.d
        m = big_power(h_q, data.d)
        h_n = h_constant(data.complement.order)
        bounds[p] = {"l": big_power(h_n, m_p), "m": m}
        if idx is not None and power_at_least(h_n, m_p, idx):
            dominated = True
        sring = data.fixed_image.ring
        tor = torsion_ideal(sring, p)
        sidx = nilpotency_index(sring)
        per_prime[p] = {"p_torsion_free": tor.is_zero(),
                        "nilpotency_index": sidx,
                        "m": m}
        if not tor.is_zero() or sidx is None or sidx > m_p:
            ok = False
    if idx is None:
        power = FAILS, {"bounds": bounds, "reason": "ring not nilpotent"}
    else:
        power = (DOMINATED if dominated else FAILS), {"nilpotency_index": idx,
                                                      "bounds": bounds}
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
    hyps = _semiprime_bad_prime_hyps(ctx, caps)
    notes = []
    if (hyps[0].status == HOLDS and ctx.bad_primes(caps).primes
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
    hyps = _semiprime_bad_prime_hyps(ctx, caps)
    notes = ["the nonzero-set condition on the bad primes is read as "
             "nonemptiness",
             "quotient-ring statements are evaluated in the finite degenerate "
             "form: every regular element of a finite unital ring is a unit"]
    # regular elements are the units, none without identity: only the units
    # of a unital R^G over a non-unital R escape (`regular_elements_quotient`)
    ring, fixed = ctx.ring, ctx.fixed_image().ring
    if ring.is_unital or not fixed.is_unital:
        status, witness = HOLDS, {"ring_quotient": regular_elements_quotient(ring),
                                  "fixed_quotient": regular_elements_quotient(fixed)}
    else:
        status, witness = FAILS, {"escaping_regular": [list(u) for u in unit_group(fixed)]}
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
    bar_ctx, fixed_image = _quotient_context(ctx)
    bar_profile = bar_ctx.bad_primes(caps)
    hyps = [Clause("alt1", "the induced action on the semiprime quotient has "
                           "no bad primes",
                   HOLDS if not bar_profile.primes else FAILS,
                   witness={"bad_primes": list(bar_profile.primes)})]
    if bar_profile.primes:
        hyps.extend(_bad_prime_condition_clauses(bar_ctx, caps, "alt2.", ctx.n))
    concls = [_radical_restriction_clause(ctx, "prime-radical-restriction",
                                          use_jacobson=False)]
    bar_fixed_ring = bar_ctx.fixed_image().ring
    sp1 = prime_radical(bar_fixed_ring).is_zero()
    image_view = SubringView(bar_ctx.ring, fixed_image)
    image_ring = image_view.image(name="im_fixed").ring
    sp2 = prime_radical(image_ring).is_zero()
    scaled_ok = all(
        fixed_image.contains(bar_ctx.ring.smul(ctx.n, x))
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
    bar_ctx, fixed_image = _quotient_context(ctx)
    compat = fixed_image == bar_ctx.fixed.sub
    hyps = [Clause(
        "fix-compat",
        "the image of the fixed ring equals the fixed ring of the induced action",
        HOLDS if compat else FAILS,
        witness=None if compat else {"image": fixed_image,
                                     "quotient_fixed": bar_ctx.fixed.sub})]
    hyps.extend(_splitting_alternative_hyps(bar_ctx, caps, _QUOTIENT_SPLIT_LABELS))
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
    hyps = _semiprime_bad_prime_hyps(ctx, caps)
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
    length = HOLDS, None
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
            length = _length_comparison(ctx, side, j.sub, j_e.sub, caps, length,
                                        {"side": side, "ideal": j})
        if er_status == FAILS:
            break
    concls = [
        Clause("restriction-identity",
               "extension then restriction is the identity on fixed-ring "
               "one-sided ideals",
               _capped(er_status, capped), witness=er_witness),
        Clause("length-bound",
               "fixed-ring quotient lengths never exceed ring quotient lengths",
               _capped(length[0], capped), witness=length[1]),
    ]
    return hyps, concls, ([SAMPLED_NOTE] if capped else [])


def _c6_clauses(ctx: GActionContext, sd, side: str, caps: Caps, tag: str):
    """The invariant-ideal decomposition clauses for one proper splitting.

    The scan behind them reads the invariant ideal lattice of R and the
    ideal lattice of R^G on `side`, so its statuses and witnesses are cached
    on the context by the complement, the side and the caps; LEM_C6 and
    COR_C8 share it, and under G = 1 the averaging splitting is the proper
    one.  The scan goes through `ring_core.sided`, which relabels the
    witnesses' ideals with `side`; where R shares a side, so does R^G, a
    commutative ring no larger than R.  The clause texts are built on each
    call.
    """
    capped, (dec, inj, length) = sided(
        ctx._cache, ("c6", sd.key, caps), ctx.ring, side,
        lambda s: _c6_scan(ctx, sd, s, caps), exact_lattice(ctx.ring, caps))

    def clause(cond: str, text: str, found) -> Clause:
        status, witness = found
        return Clause(f"{cond}[{tag}]", text, _capped(status, capped), witness=witness)
    return [
        clause("decompose", f"every invariant {side} ideal is the direct sum of its "
                            f"fixed part and its complement part", dec),
        clause("lattice-injection", f"(extension + ideal) meets the fixed ring "
                                    f"exactly in the fixed-ring ideal, for {side} ideals",
               inj),
        clause("length", f"fixed-ring length of the meet quotient is at most the ring "
                         f"length of the {side} quotient", length),
        Clause(f"chain-conditions[{tag}]",
               "Artinian/Noetherian descent holds (finite modules have both)",
               HOLDS),
    ]


def _c6_scan(ctx: GActionContext, sd, side: str, caps: Caps):
    """(capped, the (status, witness) of the decomposition, lattice-injection
    and length clauses) over the invariant `side` ideals of R."""
    image = ctx.fixed_image()
    ideals, exhaustive = ctx.invariant_ideals(side, caps)
    fixed_ideals, f_exhaustive = enumerate_ideals(image.ring, side, caps)
    capped = not (exhaustive and f_exhaustive)
    dec_status, dec_witness = HOLDS, None
    inj_status, inj_witness = HOLDS, None
    length = HOLDS, None
    for ideal in ideals:
        meet_s = ctx.meet(ideal.sub)
        meet_b = ideal.sub.intersect(sd.complement)
        joined = meet_s.join(meet_b)
        if joined != ideal.sub or joined.size != meet_s.size * meet_b.size:
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
        length = _length_comparison(ctx, side, restricted, ideal.sub, caps, length,
                                    {"ideal": ideal})
    return capped, ((dec_status, dec_witness), (inj_status, inj_witness), length)


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
        status = _worst(_SPLIT_STATUS[v] for v in witness.values())
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

# the condition stems (the part before any "(p=…)") of the hypothesis
# clauses each checker emits: what a THEOREM:condition mask can name
HYPOTHESIS_CONDITIONS = {
    "BI_1_4": ("1", "2"),
    "MONT_1_7": ("1", "2"),
    "N1": ("1", "2", "3", "B"),
    "C1_5": ("semiprime", "torsion-free"),
    "N2": ("1", "2", "B", "semiprime"),
    "COR_A8": ("1", "2", "B", "semiprime"),
    "TH_1_9": ("torsion-free",),
    "TH_4APR": ("alt1", "alt2.1", "alt2.2"),
    "RAD_1_4": ("invertible",),
    "B5APR": ("alt1", "alt2.1", "alt2.2", "alt2.B", "fix-compat", "proper-splitting"),
    "LEVITZKI": ("invertible", "semisimple"),
    "TH_8APR": ("alt1", "alt2.1", "alt2.2", "alt2.B", "proper-splitting", "semisimple"),
    "COR_B8": ("1", "2", "B", "semiprime"),
    "A5APR": ("alt1", "alt2.1", "alt2.2", "alt2.B", "proper-splitting", "rad-zero"),
    "LEM_A6": ("splitting",),
    "LEM_B6": ("splitting",),
    "LEM_C6": ("alt1", "alt2"),
    "COR_C8": ("invertible",),
}


def check(theorem: str, ctx: GActionContext, caps: Caps = DEFAULT_CAPS,
          masks=(), seed: int | None = None) -> TheoremReport:
    """Evaluate one statement on one instance and classify the outcome."""
    if theorem not in _CHECKERS:
        raise UnknownTheorem(theorem)
    hyps, concls, notes = _CHECKERS[theorem](ctx, caps)
    conds, echo = _parsed_masks(frozenset(masks))
    _apply_masks(hyps, conds.get(theorem, ()))
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
    caps_echo = caps.as_dict()
    if masks:
        caps_echo["masks"] = list(echo)
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


def reverified(report: TheoremReport, ctx: GActionContext, caps: Caps,
               masks, seed: int | None) -> bool:
    """Whether the check that gave `report` on `ctx` gives it again, bit for
    bit, on a context rebuilt from raw data: the one re-check every
    counterexample passes before it is reported."""
    second = check(report.theorem, rebuild_context(ctx), caps, masks, seed=seed)
    return second.as_json() == report.as_json()


def counterexample_search(theorem_ids, contexts, caps: Caps = DEFAULT_CAPS,
                          masks=(), budget: int | None = None,
                          seed: int | None = None) -> list[TheoremReport]:
    """Run checks across instances and return re-verified counterexamples.

    Every candidate goes through `reverified`; a report is only returned
    when that second pass reproduces it.
    """
    out = []
    spent = 0
    for ctx in contexts:
        for theorem in theorem_ids:
            if budget is not None and spent >= budget:
                return out
            report = check(theorem, ctx, caps, masks, seed=seed)
            spent += 1
            if (report.verdict == COUNTEREXAMPLE
                    and reverified(report, ctx, caps, masks, seed)):
                out.append(report)
    return out

