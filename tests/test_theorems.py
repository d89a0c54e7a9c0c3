import re

import pytest

from ringinv.caps import Caps
from ringinv.radicals import prime_radical
from ringinv.theorems import (
    COUNTEREXAMPLE,
    SKIPPED,
    THEOREM_IDS,
    VACUOUS,
    VERIFIED,
    big_power,
    check,
    counterexample_search,
    parse_masks,
    power_at_least,
    rebuild_context,
    to_jsonable,
)

from oracles import background_invariants


def test_theorem_id_count():
    assert len(THEOREM_IDS) == 18
    assert len(set(THEOREM_IDS)) == 18


def test_power_at_least():
    assert power_at_least(2, 10, 1024)
    assert not power_at_least(2, 9, 1025)
    assert power_at_least(32, 6, 2)
    # huge exponents never get materialized
    assert power_at_least(2, 10 ** 30, 10 ** 9)
    assert not power_at_least(1, 10 ** 30, 2)
    assert not power_at_least(3, 0, 2)


def test_to_jsonable_rejects_a_type_it_does_not_know():
    """No repr text reaches the report: an unknown type raises."""
    assert to_jsonable({"d": 2, "xs": [(1, 0)], "ok": None}) == {
        "d": 2, "xs": [[1, 0]], "ok": None}
    with pytest.raises(TypeError):
        to_jsonable(object())
    with pytest.raises(TypeError):
        to_jsonable({"witness": frozenset({(1,)})})


def test_big_power_reporting():
    small = big_power(6, 2)
    assert small["value"] == 36
    huge = big_power(2, 10 ** 9)
    assert "value" not in huge
    assert huge["base"] == 2 and huge["exp"] == 10 ** 9


def test_soundness_on_named_catalog(named_catalog, named_contexts):
    for inst in named_catalog:
        ctx = named_contexts[inst.name]
        for theorem in THEOREM_IDS:
            report = check(theorem, ctx)
            assert report.verdict != COUNTEREXAMPLE, (
                f"{theorem} on {inst.name}: {report.as_json()}")
            if report.verdict == VACUOUS:
                assert any(h.status == "fails" and not h.masked
                           for h in report.hypotheses)


def test_background_invariants_on_named_catalog(named_catalog, named_contexts):
    for inst in named_catalog:
        for name, ok, witness in background_invariants(named_contexts[inst.name]):
            assert ok, f"{name} failed on {inst.name}: {witness}"


def test_n1_verified_on_zm_f4(named_contexts):
    report = check("N1", named_contexts["zm_f4"])
    assert report.verdict == VERIFIED
    assert all(h.status == "holds" for h in report.hypotheses)


def test_mont_1_7_on_zm_f4(named_contexts):
    report = check("MONT_1_7", named_contexts["zm_f4"])
    assert report.verdict == VERIFIED
    # conclusion holds with the exact nilpotency index
    assert report.conclusion[0].witness == {"nilpotency_index": 2}


def test_a5apr_vacuous_with_necessity_evidence(named_contexts):
    """Both torsion branches fail on the inner action over characteristic 2,
    and the recorded conclusion shows a genuinely nonzero fixed-ring radical,
    exhibiting why the hypotheses are needed."""
    report = check("A5APR", named_contexts["m2f2"])
    assert report.verdict == VACUOUS
    alt1 = [h for h in report.hypotheses if h.cond == "alt1"]
    alt2b = [h for h in report.hypotheses if h.cond == "alt2.2"]
    assert alt1[0].status == "fails"
    assert alt2b[0].status == "fails"
    concl = report.conclusion[0]
    assert concl.status == "fails"
    assert concl.witness.size == 2  # rad of the fixed ring is the e12 span


def test_n2_systematic_vacuity_explained(named_contexts):
    report = check("N2", named_contexts["m2f2"])
    assert report.verdict == VACUOUS
    assert any("systematic vacuity" in note for note in report.notes)


def test_masked_n2_finds_designed_violation(named_contexts):
    report = check("N2", named_contexts["m2f2"], masks={"N2:2"})
    assert report.verdict == COUNTEREXAMPLE
    masked = [h for h in report.hypotheses if h.masked]
    assert masked and all(h.cond == "2" for h in masked)


def test_counterexample_search_soundness(named_catalog, named_contexts):
    contexts = [named_contexts[i.name] for i in named_catalog]
    assert counterexample_search(THEOREM_IDS, contexts) == []


@pytest.mark.parametrize("mask", [
    "C1_5:semiprme", "foo", "NOT_A_THEOREM:1", "N1:", "N1:4(p=2)"])
def test_a_mask_that_would_mask_nothing_is_refused(named_contexts, mask):
    """A spec naming no theorem, no condition or a condition its theorem
    does not have raises on the library path too, naming the spec, instead
    of masking nothing and echoing it."""
    ctx = named_contexts["f3xf3"]
    with pytest.raises(ValueError, match=re.escape(repr(mask))):
        check("C1_5", ctx, masks=("C1_5:semiprime", mask))
    with pytest.raises(ValueError, match=re.escape(repr(mask))):
        counterexample_search(["C1_5"], [ctx], masks={mask})
    with pytest.raises(ValueError, match=re.escape(repr(mask))):
        parse_masks(f"N2:2, {mask}")
    assert parse_masks(" N2:2,, N1:B(p=2) ") == {"N2:2", "N1:B(p=2)"}


def test_counterexample_search_masked_and_budget(named_catalog, named_contexts):
    contexts = [named_contexts[i.name] for i in named_catalog]
    hits = counterexample_search(["N2"], contexts, masks={"N2:2"})
    assert [(r.ring, r.theorem) for r in hits] == [("m2f2", "N2")]
    assert counterexample_search(["N2"], contexts, masks={"N2:2"}, budget=0) == []


def test_masked_invertibility_shows_necessity(named_catalog, named_contexts):
    """Dropping the invertibility hypothesis from the radical-equality
    statement exposes the inner involution on the matrix ring over F2:
    invertibility cannot be weakened away."""
    contexts = [named_contexts[i.name] for i in named_catalog]
    hits = counterexample_search(["RAD_1_4"], contexts,
                                 masks={"RAD_1_4:invertible"})
    assert ("m2f2", "RAD_1_4") in [(r.ring, r.theorem) for r in hits]


def test_zero_ring_instance_end_to_end():
    from ringinv.catalog import load_text, save_text
    from ringinv.radicals import uniform_dimension

    inst = load_text("ring nil\nadd\ngroup trivial =\n", default_name="nil")
    assert inst.ring.order == 1 and inst.ring.is_unital
    assert prime_radical(inst.ring).size == 1
    assert uniform_dimension(inst.ring, "left").value == 0
    assert save_text(load_text(save_text(inst), default_name="nil")) \
        == save_text(inst)
    ctx = inst.context()
    for theorem in THEOREM_IDS:
        assert check(theorem, ctx).verdict != COUNTEREXAMPLE


def test_counterexample_reverification_reproduces(named_contexts):
    ctx = named_contexts["m2f2"]
    first = check("N2", ctx, masks={"N2:2"})
    second = check("N2", rebuild_context(ctx), masks={"N2:2"})
    assert first.as_json() == second.as_json()


def test_n1_trace_stabilization_detected(named_contexts):
    """On the swap action over F2 x F2 the relative trace image is the
    diagonal, which is idempotent; the stabilization proof that no power
    vanishes is recorded as a certain hypothesis failure."""
    report = check("N1", named_contexts["f2xf2"])
    assert report.verdict == VACUOUS
    h3 = [h for h in report.hypotheses if h.cond == "3(p=2)"]
    assert h3 and h3[0].status == "fails"
    assert h3[0].witness["stabilized_nonzero"] is True


def test_th_4apr_on_nilpotent_instance(named_contexts):
    # the prime-radical quotient of 2Z/8Z is the zero ring and the statement
    # reduces to an equality of whole rings
    report = check("TH_4APR", named_contexts["two_z8"])
    assert report.verdict == VERIFIED


def test_rad_1_4_holds_whenever_invertible(named_catalog, named_contexts):
    for inst in named_catalog:
        report = check("RAD_1_4", named_contexts[inst.name])
        if all(h.status == "holds" for h in report.hypotheses):
            assert report.verdict == VERIFIED, report.as_json()


def test_monotonicity_of_caps(named_catalog, named_contexts):
    """Raising caps may resolve skipped verdicts but never flips verified
    and counterexample into each other."""
    tight = Caps(ideal_count=2, splitting_enum=1, d_search=2)
    for inst in named_catalog:
        ctx = named_contexts[inst.name]
        for theorem in THEOREM_IDS:
            low = check(theorem, ctx, tight)
            high = check(theorem, ctx)
            if low.verdict == VERIFIED:
                assert high.verdict != COUNTEREXAMPLE
            if low.verdict == COUNTEREXAMPLE:
                assert high.verdict != VERIFIED


def test_n2_never_counterexample_on_semiprime_bad_prime_instances(named_catalog,
                                                                  named_contexts):
    """On finite semiprime instances with a bad prime, the second condition
    must fail (the identity carries p-torsion into the fixed ring), so N2 is
    systematically vacuous there and the reports say why."""
    seen = 0
    for inst in named_catalog:
        ctx = named_contexts[inst.name]
        if not prime_radical(inst.ring).is_zero() or not ctx.bad_primes().primes:
            continue
        seen += 1
        report = check("N2", ctx)
        assert report.verdict == VACUOUS
        cond2 = [h for h in report.hypotheses if h.cond == "2"]
        assert cond2 and cond2[0].status == "fails"
        assert any("systematic vacuity" in note for note in report.notes)
    assert seen >= 2  # m2f2 and f2xf2 at least


def test_report_json_shape(named_contexts):
    report = check("C1_5", named_contexts["f3xf3"])
    data = report.as_json()
    assert set(data) >= {"theorem", "ring", "group", "hypotheses",
                         "conclusion", "verdict", "caps", "seed"}
    for hyp in data["hypotheses"]:
        assert set(hyp) <= {"text", "status", "witness"}
        assert hyp["status"] in {"holds", "fails", "capped"}
    assert data["conclusion"]["status"] in {
        "holds", "fails", "capped", "holds (dominated)"}


def test_skipped_on_tight_caps(named_contexts):
    tight = Caps(ideal_count=1)
    report = check("LEM_C6", named_contexts["f3xf3"], tight)
    assert report.verdict in (SKIPPED, VACUOUS, VERIFIED)
    # the enumeration caps are echoed in the report
    assert report.caps["ideal_count"] == 1


def test_radical_quotient_context_reuses_a_semisimple_context(named_contexts):
    """When J(R) = 0, R/J is R and its context is the instance's own; a
    nonzero radical still gets a quotient context of its own."""
    from ringinv.theorems import _quotient_context

    for name in ("f3xf3", "m2f3"):
        ctx = named_contexts[name]
        bar_ctx, fixed_image = _quotient_context(ctx)
        assert bar_ctx is ctx and fixed_image is ctx.fixed.sub
    ctx = named_contexts["two_z8"]
    bar_ctx, _ = _quotient_context(ctx)
    assert bar_ctx is not ctx and bar_ctx.ring.order < ctx.ring.order


@pytest.mark.parametrize("name", ["f3xf3", "m2f3"])
def test_c6_length_failure_is_not_hidden_by_a_later_cap(named_catalog, monkeypatch,
                                                        name):
    """A length that fails on one ideal stays failing when a later ideal's
    length is cut off by a cap: quotient lengths report 2 > 1 on the first
    ideal and None after that.  The C6 scan is cached per context, so the
    check runs on a fresh one."""
    from ringinv import theorems
    from ringinv.invariants import GActionContext

    answers = iter([2, 1])
    monkeypatch.setattr(theorems, "quotient_length",
                        lambda *args: next(answers, None))
    inst = next(i for i in named_catalog if i.name == name)
    ctx = GActionContext(inst.ring, inst.group, inst.name, inst.group_name)
    report = check("LEM_C6", ctx, Caps())
    assert report.verdict == COUNTEREXAMPLE
    failed = [c for c in report.conclusion if c.status == "fails"]
    assert failed and all(c.cond.startswith("length[") for c in failed)
    assert failed[0].witness["fixed_length"] == 2
    assert failed[0].witness["ring_length"] == 1


def test_cor_c8_failure_is_not_hidden_by_a_cap_on_the_other_side(named_contexts,
                                                                  monkeypatch):
    """An averaging splitting that is not proper on the left stays failing
    when the right-side search is cut off by a cap: the clause takes the
    worst of the two sides, as LEM_C6's splitting clauses do."""
    from types import SimpleNamespace

    from ringinv import theorems

    statuses = {"left": "no", "right": "capped"}
    monkeypatch.setattr(theorems, "is_proper_splitting",
                        lambda ctx, sd, side, caps: SimpleNamespace(status=statuses[side]))
    report = check("COR_C8", named_contexts["m2f3"], Caps())
    assert report.verdict == COUNTEREXAMPLE
    clause = report.conclusion[0]
    assert clause.cond == "averaging-proper"
    assert (clause.status, clause.witness) == ("fails", statuses)


# SHA-256 of the BI_1_4 and N1 reports on the named catalog, taken when N1
# read its trace-power cap from a per-prime copy of `caps.d_search`
LOW_D_SEARCH_DIGESTS = {
    1: "52e525b2019cd50551a4ce405c97794f14f478badc352873c3aad0fdec08b734",
    2: "baf1a4187af030b56432f892d49205b679e8d0aba3d0d02d29015c94b71f6b8e",
}


@pytest.mark.parametrize("d_search", sorted(LOW_D_SEARCH_DIGESTS))
def test_trace_power_witnesses_at_low_caps_keep_their_bytes(named_catalog, d_search):
    """At these caps the trace-power searches of BI_1_4 and of N1 (f2xf2 and
    m2f2) stop at the cap, so both witness forms and N1's note are reported."""
    import hashlib
    import json

    caps = Caps(d_search=d_search)
    reports = []
    for inst in named_catalog:
        ctx = inst.context()
        reports.extend(check(theorem, ctx, caps, (), seed=0).as_json()
                       for theorem in ("BI_1_4", "N1"))
    noted_n1 = sorted(r["ring"] for r in reports if r["theorem"] == "N1" and "notes" in r)
    assert noted_n1 == ["f2xf2", "m2f2"]
    payload = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == LOW_D_SEARCH_DIGESTS[d_search]
