import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringinv

from ringinv import theorems
from ringinv.caps import Caps
from ringinv.catalog import named_instances, random_instances, save
from ringinv.cli import main
from ringinv.radicals import CrossCheckError

from oracles import regular_and_unit_scan


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("catalog")
    save(named_instances(), path)
    return path


def test_validate_ok(catalog_dir, capsys):
    assert main(["validate", str(catalog_dir / "two_z8.ring")]) == 0
    out = capsys.readouterr().out
    assert "two_z8" in out


ORDER_1 = ("ring x\nadd 1 2\n"
           "mul 1 1 -> 0 0\nmul 1 2 -> 0 0\nmul 2 1 -> 0 0\nmul 2 2 -> 0 0\n")
ORDER_0 = "ring x\nadd 0\nmul 1 1 -> 0\n"


@pytest.mark.parametrize("text", ["ring x\nadd 2\nmul 1 -> 0\n", ORDER_1, ORDER_0],
                         ids=["mul-arity", "order-1", "order-0"])
def test_validate_parse_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.ring"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_validate_validation_error(tmp_path):
    bad = tmp_path / "nonassoc.ring"
    bad.write_text(
        "ring x\nadd 2 2\n"
        "mul 1 1 -> 0 1\nmul 1 2 -> 1 0\nmul 2 1 -> 0 0\nmul 2 2 -> 0 0\n"
        "group g =\n")
    assert main(["validate", str(bad)]) == 3


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/path.ring"]) == 2


@pytest.mark.parametrize("manifest", ["[{not json", '[{"name": "z12"}]'])
def test_validate_malformed_manifest(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    assert main(["validate", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_validate_manifest_entry_parse_error_names_file(tmp_path, capsys):
    (tmp_path / "good.ring").write_text("ring g\nadd 2\nmul 1 1 -> 1\n")
    (tmp_path / "a.ring").write_text("ring x\nadd 2\nmul 1 -> 0\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        [{"name": "g", "file": "good.ring"}, {"name": "x", "file": "a.ring"}]))
    assert main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: a.ring: line 3: mul needs two indices\n"


@pytest.mark.parametrize("name", ["RANDOM", "SEED", "JOBS"])
def test_bad_env_integer_fails_only_check(catalog_dir, monkeypatch, name):
    """A non-integer RINGINV_* default is an argument error of `check` (exit 2)
    and does not reach the other subcommands."""
    monkeypatch.setenv("RINGINV_" + name, "x")
    assert main(["validate", str(catalog_dir / "two_z8.ring")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["check", "--instances", "z12", "--theorems", "N1"])
    assert exc.value.code == 2


def test_check_named_catalog(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--out", str(out), "--seed", "1"])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 10 * 18
    for rep in reports:
        assert {"theorem", "ring", "group", "hypotheses", "conclusion",
                "verdict", "caps", "seed"} <= set(rep)
        assert rep["verdict"] in {"verified", "vacuous", "counterexample",
                                  "skipped(cap)"}
        assert rep["verdict"] != "counterexample"
        assert rep["seed"] == 1
    err = capsys.readouterr().err
    assert "legend" in err


def test_check_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "--random", "10", "--seed", "42", "--theorems",
            "N1,RAD_1_4,LEM_B6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the random instances alone, with no named one: the same reports
    c = tmp_path / "c.json"
    assert main(args + ["--instances", ",", "--out", str(c)]) == 0
    named = {inst.name for inst in named_instances()}
    assert json.loads(c.read_text()) == [
        r for r in json.loads(a.read_text()) if r["ring"] not in named]


def test_check_masked_exit_code(tmp_path):
    out = tmp_path / "masked.json"
    code = main(["check", "--theorems", "N2", "--mask", "N2:2",
                 "--out", str(out)])
    assert code == 4
    reports = json.loads(out.read_text())
    hits = [r for r in reports if r["verdict"] == "counterexample"]
    assert hits and all(r["ring"] == "m2f2" for r in hits)
    # the mask is echoed with the caps
    assert all(r["caps"]["masks"] == ["N2:2"] for r in reports)


def test_check_counterexample_that_a_rebuild_does_not_reproduce(tmp_path, monkeypatch):
    """Every counterexample is re-checked on a context rebuilt from raw data;
    a rebuild whose report differs raises instead of exiting 4."""
    rebuild = theorems.rebuild_context

    def tampered(ctx):
        fresh = rebuild(ctx)
        fresh.group_name += "'"
        return fresh
    monkeypatch.setattr(theorems, "rebuild_context", tampered)
    with pytest.raises(CrossCheckError, match="N2 on m2f2"):
        main(["check", "--instances", "m2f2", "--theorems", "N2", "--mask", "N2:2",
              "--out", str(tmp_path / "masked.json")])


def test_check_selected_instances(tmp_path):
    out = tmp_path / "sel.json"
    code = main(["check", "--instances", "f3xf3,zm_f4", "--theorems", "N1",
                 "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert sorted(r["ring"] for r in reports) == ["f3xf3", "zm_f4"]


def test_check_rejects_unknown_theorem():
    assert main(["check", "--theorems", "NOT_A_THEOREM"]) == 2


@pytest.mark.parametrize("args", [
    ["--mask", "foo"],
    ["--mask", "NOT_A_THEOREM:1"],
    ["--mask", "N1:"],
    ["--mask", "N1:B,foo"],
    ["--random", "-1"],
    ["--instances", "f3xf3", "--theorems", "C1_5", "--mask", "C1_5:semiprme"],
    ["--mask", "N1:4(p=2)"],
])
def test_check_rejects_bad_mask_and_negative_random(capsys, args):
    """A mask that names no theorem, no condition or a condition its theorem
    does not have (a misspelled one would mask nothing), and a negative
    random count, exit 2 with one stderr line and no report, as
    `--theorems` does."""
    assert main(["check", "--theorems", "N1"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_hypothesis_condition_table_matches_the_checkers(named_contexts):
    """The condition stems a mask may name are those the checkers emit on
    the named catalog and `random_instances(100, 20260808)`, and those are
    the benchmark's `masks.json`, one spec per stem."""
    contexts = list(named_contexts.values()) + [
        inst.context() for inst in random_instances(100, 20260808)[0]]
    emitted = set()
    for ctx in contexts:
        for theorem in theorems.THEOREM_IDS:
            hyps, _, _ = theorems._CHECKERS[theorem](ctx, Caps())
            emitted.update((theorem, h.cond.split("(")[0]) for h in hyps)
    table = {(theorem, stem) for theorem, stems in theorems.HYPOTHESIS_CONDITIONS.items()
             for stem in stems}
    assert emitted == table
    masks = Path(__file__).parent.parent / "ringbench" / "masks.json"
    assert sorted(f"{th}:{stem}" for th, stem in table) == json.loads(masks.read_text())


@pytest.mark.parametrize("args, code", [
    (["--caps", "foo=1"], 2),
    (["--caps", "ideal_count=x"], 2),
    (["--instances", "{tmp}/nosuchfile"], 2),
    (["--instances", "{tmp}/bad.ring"], 2),
    (["--instances", "{tmp}/nonassoc.ring"], 3),
    (["--instances", "{tmp}/notjson"], 2),
    (["--instances", "{tmp}/nofile"], 2),
    (["--instances", "{tmp}/order1.ring"], 2),
    (["--instances", "{tmp}/order0.ring"], 2),
    (["--caps", "splitting_enum=-1"], 2),
    (["--theorems", ","], 2),
    (["--instances", ","], 2),
    (["--instances", "{tmp}/empty"], 2),
])
def test_check_bad_input_exit_codes(tmp_path, capsys, args, code):
    """Bad caps or instance files exit 2 (3 for a ring that fails validation)
    with one stderr line and no report; so does a check of no theorem or no
    instance."""
    (tmp_path / "bad.ring").write_text("ring x\nadd 2\nmul 1 -> 0\n")
    (tmp_path / "nonassoc.ring").write_text(
        "ring x\nadd 2 2\n"
        "mul 1 1 -> 0 1\nmul 1 2 -> 1 0\nmul 2 1 -> 0 0\nmul 2 2 -> 0 0\n"
        "group g =\n")
    (tmp_path / "order1.ring").write_text(ORDER_1)
    (tmp_path / "order0.ring").write_text(ORDER_0)
    for name, manifest in (("notjson", "[{not json"), ("nofile", '[{"name": "z12"}]'),
                           ("empty", "[]")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(manifest)
    args = [a.format(tmp=tmp_path) for a in args]
    assert main(["check", "--theorems", "N1"] + args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


MASKS = Path(__file__).resolve().parents[1] / "ringbench" / "masks.json"


def test_masked_named_catalog_report_bytes(tmp_path):
    """Every hypothesis masked at once: the condition ids, labels and
    counterexample witnesses of all eighteen checkers are pinned."""
    out = tmp_path / "masked.json"
    masks = ",".join(json.loads(MASKS.read_text()))
    assert main(["check", "--mask", masks, "--out", str(out)]) == 4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d88d704dd379c87746fa6f47495b22ad349bd9d35eddd9bae3a5be9a04e82fef")


def test_check_from_file(catalog_dir, tmp_path):
    out = tmp_path / "file.json"
    code = main(["check", "--instances", str(catalog_dir / "zm_f4.ring"),
                 "--theorems", "N1", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert reports[0]["verdict"] == "verified"


def test_profile_named(capsys):
    assert main(["profile", "two_z8"]) == 0
    out = capsys.readouterr().out
    assert "bad primes: [2]" in out
    assert "fixed ring: size 2" in out
    assert "trace image: size 1" in out


def test_profile_f3xf3(capsys):
    assert main(["profile", "f3xf3"]) == 0
    out = capsys.readouterr().out
    assert "proper splitting [left]: yes" in out
    assert "udim [left]: 2" in out


def test_profile_z12(capsys):
    assert main(["profile", "z12"]) == 0
    out = capsys.readouterr().out
    assert "prime radical: size 2" in out
    assert "agrees: True" in out


@pytest.mark.parametrize("name, count, status", [
    ("z12", 4, "equals-ring"), ("zm_f4", 0, "degenerate-undefined")])
def test_profile_counts_the_regular_elements(capsys, name, count, status):
    """The regular-elements line counts what an element scan finds: the
    units of a unital ring, none on a ring without identity."""
    ring = next(inst.ring for inst in named_instances() if inst.name == name)
    regular, _ = regular_and_unit_scan(ring)
    assert len(regular) == count
    assert main(["profile", name]) == 0
    assert (f"  regular elements: {count}, quotient ring: {status}\n"
            in capsys.readouterr().out)


def test_profile_and_catalog_keep_the_exit_codes(tmp_path, capsys):
    """A ring file that fails validation exits 3 from `profile` as from
    `validate` and `check`, and a negative random count exits 2 from
    `catalog` as from `check`; each with one stderr line and no output."""
    bad = tmp_path / "badunit.ring"
    bad.write_text("ring x\nadd 2\nmul 1 1 -> 0\nunit 1\n")
    for argv, code in ((["validate", str(bad)], 3), (["profile", str(bad)], 3),
                       (["check", "--instances", str(bad)], 3),
                       (["catalog", "--random", "-1"], 2)):
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, argv


def test_profile_empty_manifest(tmp_path, capsys):
    """A manifest that lists no instance gives `profile` nothing to print:
    exit 2 with one stderr line, not a traceback."""
    (tmp_path / "manifest.json").write_text("[]")
    assert main(["profile", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_catalog_save(tmp_path, capsys):
    code = main(["catalog", "--out", str(tmp_path / "snap")])
    assert code == 0
    assert (tmp_path / "snap" / "manifest.json").exists()


def test_env_variable_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGINV_SEED", "31337")
    out = tmp_path / "env.json"
    assert main(["check", "--instances", "z12", "--theorems", "TH_1_9",
                 "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert reports[0]["seed"] == 31337


def test_jobs_parallel_matches_serial(tmp_path):
    """Instances carry their action context into the workers; every
    theorem on the named catalog and five random instances gives the same
    bytes there."""
    a, b = tmp_path / "serial.json", tmp_path / "par.json"
    args = ["check", "--random", "5"]
    assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


class RecordingPool:
    """Stands in for `ProcessPoolExecutor`: records `max_workers` and maps
    in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The `max_workers` of every pool `check` asks for, through
    `RecordingPool`."""
    from ringinv import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    return RecordingPool.sizes


@pytest.mark.parametrize("instances, pools", [
    ("z12", []),
    ("z12,f3xf3", [2]),
])
def test_jobs_bounded_by_instance_count(tmp_path, pool_sizes, instances, pools):
    """`--jobs 64` asks for no more workers than there are instances, and
    one instance runs in this process; the bytes match `--jobs 1`."""
    a, b = tmp_path / "serial.json", tmp_path / "par.json"
    args = ["check", "--theorems", "N1,LEM_C6", "--instances", instances]
    assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(b), "--jobs", "64"]) == 0
    assert pool_sizes == pools
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
def test_check_rejects_jobs_below_one(capsys, monkeypatch, pool_sizes, jobs, from_env):
    """`--jobs` (or `RINGINV_JOBS`) below 1 exits 2 with one stderr line and
    no report, as a negative `--random` does."""
    args = ["check", "--theorems", "N1", "--instances", "z12"]
    if from_env:
        monkeypatch.setenv("RINGINV_JOBS", jobs)
    else:
        args += ["--jobs", jobs]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert pool_sizes == []


def _run_python(args, optimize: bool):
    src = str(Path(ringinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + (["-O"] if optimize else []) + args,
                          env=env, capture_output=True, text=True, timeout=600)


def test_optimized_mode_report_parity(tmp_path):
    """`python -O` strips asserts; every soundness check is a raise, so the
    report bytes must not change."""
    digests = []
    for optimize in (True, False):
        out = tmp_path / f"report-{optimize}.json"
        run = _run_python(["-m", "ringinv", "check", "--instances",
                           "two_z8,m2f2,f3xf3", "--out", str(out)], optimize)
        assert run.returncode in (0, 4), run.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_optimized_mode_rejects_forged_udim_witness():
    script = (
        "import sys\n"
        "from ringinv.radicals import CrossCheckError, UdimCertificate, "
        "_verify_udim_witness, principal_ideal\n"
        "from ringinv.ring_core import LEFT, cyclic_ring\n"
        "ring = cyclic_ring(4)\n"
        "ideal = principal_ideal(ring, (2,), LEFT)\n"
        "cert = UdimCertificate(2, [ideal, ideal], 'exhaustive', LEFT)\n"
        "try:\n"
        "    _verify_udim_witness(ring, cert)\n"
        "except CrossCheckError:\n"
        "    print('raised', sys.flags.optimize)\n")
    run = _run_python(["-c", script], optimize=True)
    assert run.stdout.split() == ["raised", "1"], run.stderr
