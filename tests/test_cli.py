import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringinv

from ringinv.catalog import named_instances, save
from ringinv.cli import main


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("catalog")
    save(named_instances(), path)
    return path


def test_validate_ok(catalog_dir, capsys):
    assert main(["validate", str(catalog_dir / "two_z8.ring")]) == 0
    out = capsys.readouterr().out
    assert "two_z8" in out


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text("ring x\nadd 2\nmul 1 -> 0\n")
    assert main(["validate", str(bad)]) == 2


def test_validate_validation_error(tmp_path):
    bad = tmp_path / "nonassoc.ring"
    bad.write_text(
        "ring x\nadd 2 2\n"
        "mul 1 1 -> 0 1\nmul 1 2 -> 1 0\nmul 2 1 -> 0 0\nmul 2 2 -> 0 0\n"
        "group g =\n")
    assert main(["validate", str(bad)]) == 3


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/path.ring"]) == 2


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


def test_check_selected_instances(tmp_path):
    out = tmp_path / "sel.json"
    code = main(["check", "--instances", "f3xf3,zm_f4", "--theorems", "N1",
                 "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert sorted(r["ring"] for r in reports) == ["f3xf3", "zm_f4"]


def test_check_rejects_unknown_theorem():
    assert main(["check", "--theorems", "NOT_A_THEOREM"]) == 2


@pytest.mark.parametrize("args, code", [
    (["--caps", "foo=1"], 2),
    (["--caps", "ideal_count=x"], 2),
    (["--instances", "{tmp}/nosuchfile"], 2),
    (["--instances", "{tmp}/bad.ring"], 2),
    (["--instances", "{tmp}/nonassoc.ring"], 3),
])
def test_check_bad_input_exit_codes(tmp_path, capsys, args, code):
    """Bad caps or instance files exit 2 (3 for a ring that fails validation)
    with one stderr line and no report."""
    (tmp_path / "bad.ring").write_text("ring x\nadd 2\nmul 1 -> 0\n")
    (tmp_path / "nonassoc.ring").write_text(
        "ring x\nadd 2 2\n"
        "mul 1 1 -> 0 1\nmul 1 2 -> 1 0\nmul 2 1 -> 0 0\nmul 2 2 -> 0 0\n"
        "group g =\n")
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
    a, b = tmp_path / "serial.json", tmp_path / "par.json"
    args = ["check", "--theorems", "TH_1_9,RAD_1_4"]
    assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


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
