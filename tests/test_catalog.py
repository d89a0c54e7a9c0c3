import json

import pytest

from ringinv.catalog import (
    Instance,
    ParseError,
    ValidationError,
    cayley_cyclic,
    derive_tags,
    load,
    load_text,
    named_instances,
    random_instances,
    save,
    save_text,
)


def test_named_instances_all_validate(named_catalog):
    names = {i.name for i in named_catalog}
    assert {"z12", "f3xf3", "f2xf2", "two_z8", "m2f2", "zm_f4", "f2c2",
            "m2f3", "composite_s3", "zm_f9"} <= names
    for inst in named_catalog:
        assert inst.ring.order >= 1
        assert inst.group.order >= 1


def test_zm_f4_tags(named_catalog):
    inst = {i.name: i for i in named_catalog}["zm_f4"]
    assert {"nilpotent", "bad-prime-2", "n1-hypotheses-hold"} <= inst.tags


def test_composite_instance_matches_construction(named_catalog):
    """The product instance has fixed ring exactly the carried-along factor
    while the group order kills the whole ring."""
    inst = {i.name: i for i in named_catalog}["composite_s3"]
    ctx = inst.context()
    ring = inst.ring
    # fixed ring = S x 0 with S the first factor
    assert ctx.fixed.elements() == frozenset({(0, 0, 0), (1, 0, 0)})
    n = inst.group.order
    assert n == 6
    for x in ring.elements():
        assert ring.smul(n, x) == ring.zero
    # the splitting complement 0 x R realizes the direct decomposition
    found, exhaustive = ctx.splittings()
    assert exhaustive and found


def test_tags_rederived_from_scratch(named_catalog):
    """On a fresh `Instance` of the same ring and group, so the tags come
    from a new context and not from the one the catalog's tags filled."""
    for inst in named_catalog:
        fresh = Instance(inst.name, inst.ring, inst.group, inst.group_name,
                         inst.generators, inst.provenance)
        assert derive_tags(fresh) == inst.tags
        assert fresh.context() is not inst.context()


def test_random_instances_deterministic():
    a, stats_a = random_instances(25, seed=99)
    b, stats_b = random_instances(25, seed=99)
    assert [save_text(x) for x in a] == [save_text(y) for y in b]
    assert (stats_a.attempted, stats_a.valid) == (stats_b.attempted, stats_b.valid)


def test_random_instances_respect_bounds():
    insts, stats = random_instances(40, seed=3, max_order=16)
    assert all(i.ring.order <= 16 for i in insts)
    assert stats.valid == 40
    assert 0 < stats.ratio <= 1


def test_random_rigid_instances_tagged():
    insts, _ = random_instances(40, seed=5)
    rigid = [i for i in insts if i.group.order == 1]
    assert all("rigid" in i.tags for i in rigid)


def test_roundtrip_bytes(named_catalog):
    for inst in named_catalog:
        text = save_text(inst)
        again = save_text(load_text(text, default_name=inst.name))
        assert text == again, inst.name


def test_save_load_directory(tmp_path, named_catalog):
    manifest = save(named_catalog, tmp_path / "cat")
    loaded = load(manifest)
    assert [i.name for i in loaded] == [i.name for i in named_catalog]
    data = json.loads(manifest.read_text())
    assert all({"name", "file", "group", "provenance", "tags"} <= set(e)
               for e in data)
    # loaded instances carry re-derived tags
    by_name = {i.name: i for i in named_catalog}
    for inst in loaded:
        assert inst.tags == by_name[inst.name].tags


def test_parse_error_reports_line():
    bad = "ring x\nadd 2\nmul 1 -> 0\ngroup g =\n"
    with pytest.raises(ParseError) as err:
        load_text(bad)
    assert err.value.line == 3


def test_parse_error_unknown_directive():
    with pytest.raises(ParseError):
        load_text("ring x\nadd 2\nmul 1 1 -> 0\nfrobnicate\ngroup g =\n")


def test_parse_error_missing_mul():
    with pytest.raises(ParseError):
        load_text("ring x\nadd 2 2\nmul 1 1 -> 0 0\ngroup g =\n")


def test_validation_error_group_too_large():
    """A shear and a 4-cycle on (Z/2)^4 generate past the closure cap."""
    k = 4
    lines = ["ring big", "add 2 2 2 2"]
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            lines.append(f"mul {i} {j} -> 0 0 0 0")
    lines += ["aut shear",
              "gen 1 -> 1 1 0 0", "gen 2 -> 0 1 0 0",
              "gen 3 -> 0 0 1 0", "gen 4 -> 0 0 0 1",
              "aut cycle",
              "gen 1 -> 0 1 0 0", "gen 2 -> 0 0 1 0",
              "gen 3 -> 0 0 0 1", "gen 4 -> 1 0 0 0",
              "group big = shear cycle"]
    with pytest.raises(ValidationError):
        load_text("\n".join(lines) + "\n")


def test_validation_error_nonassociative():
    # e1*e1 = e2, e1*e2 = e1 on Z/2+Z/2 breaks associativity
    bad = ("ring x\nadd 2 2\n"
           "mul 1 1 -> 0 1\nmul 1 2 -> 1 0\nmul 2 1 -> 0 0\nmul 2 2 -> 0 0\n"
           "group g =\n")
    with pytest.raises(ValidationError):
        load_text(bad)


def test_cayley_cyclic_shape():
    t = cayley_cyclic(3)
    assert t[1][2] == 0 and t[2][2] == 1
