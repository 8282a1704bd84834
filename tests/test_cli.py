import hashlib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import polyinj
from polyinj.cli import main
from polyinj.parser import MAX_NESTING, parse_poly
from polyinj.pipeline import build_injection
from polyinj.poly import BinaryForm


def run(args, **kw):
    return CliRunner().invoke(main, args, **kw)


def test_surface_taxicab(tmp_path):
    out = tmp_path / "pts.json"
    res = run(["surface", "--form", "x^3+y^3", "--height", "12", "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert ["1", "12", "9", "10"] in doc["exceptional"]
    assert doc["trivial_count"] == 184
    manifest = json.loads((tmp_path / "pts.json.manifest.json").read_text())
    assert manifest["subcommand"] == "surface"
    assert str(out) in manifest["outputs"]


def test_collide_zagier_empty(tmp_path):
    res = run(["collide", "--poly", "x^7+3*y^7", "--mode", "int", "--height", "20",
               "--out", str(tmp_path / "rep.json")])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["collisions"] == []
    assert doc["disclaimer"]


def test_build_trace_replayable(tmp_path):
    a, b = tmp_path / "t1.json", tmp_path / "t2.json"
    for path in (a, b):
        res = run(["build", "--form", "x^5+3*y^5", "--height", "30", "--seed", "1",
                   "--out", str(path)])
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["p"] == 5
    assert max(sum(t["exp"]) for t in doc["f_poly"]["terms"]) == 125


def test_manifest_determinism(tmp_path):
    digests = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        res = run(["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "6",
                   "--out", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        digests.append(list(manifest["outputs"].values()))
    assert digests[0] == digests[1]


def test_local_real_and_padic(tmp_path):
    res = run(["local", "--poly", "x^7+3*y^7", "--real", "--at", "1,1", "--tol", "1e-12"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["residual"] <= 1e-12
    res2 = run(["local", "--poly", "x^3+y^3", "--padic", "5", "--prec", "8",
                "--at", "1,1", "--delta", "5"])
    assert res2.exit_code == 0, res2.output
    doc2 = json.loads(res2.stdout)
    assert doc2["x"] == 6
    assert doc2["residual_valuation"] == "inf" or doc2["residual_valuation"] >= 8


def test_ffield_cli():
    res = run(["ffield", "--p", "3", "--deg", "2", "--trials", "200", "--seed", "9"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["collisions"] == 0 and doc["trials"] == 200


def test_poly_from_file(tmp_path):
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("x^3 + y^3")
    res = run(["collide", "--poly", f"@{poly_file}", "--mode", "int", "--height", "2"])
    assert res.exit_code == 0, res.output
    json_file = tmp_path / "f.json"
    json_file.write_text(json.dumps({"vars": ["x", "y"],
                                     "terms": [{"exp": [3, 0], "coef": "1/1"},
                                               {"exp": [0, 3], "coef": "1/1"}]}))
    res2 = run(["collide", "--poly", f"@{json_file}", "--mode", "int", "--height", "2"])
    assert res2.exit_code == 0, res2.output
    assert json.loads(res.stdout)["collisions"] == json.loads(res2.stdout)["collisions"]


def test_domain_error_exit_1_structured():
    res = run(["surface", "--form", "x^2 + y", "--height", "5"])  # not homogeneous
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"]["type"] == "ValueError"
    res2 = run(["collide", "--poly", "x^^2", "--mode", "int", "--height", "2"])
    assert res2.exit_code == 1
    assert json.loads(res2.stderr)["error"]["type"] == "ParseError"
    deep = "(" * 400 + "x" + ")" * 400
    res3 = run(["collide", "--poly", deep, "--mode", "int", "--height", "2"])
    assert res3.exit_code == 1
    err = json.loads(res3.stderr)["error"]
    assert err["type"] == "ParseError" and f"(at offset {MAX_NESTING})" in err["message"]


def test_invalid_counts_exit_1_structured():
    res = run(["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "5",
               "--shards", "0"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValueError" and "shard count" in err["message"]
    # Everything runs in one process: no command has --threads, and the
    # surface scan, which writes no checkpoint, has no --shards.
    for args in (["surface", "--form", "x^3+y^3", "--height", "5"],
                 ["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "5"],
                 ["build", "--form", "x^3+y^3", "--height", "5", "--seed", "1"],
                 ["local", "--poly", "x^3+y^3", "--real", "--at", "1,1"],
                 ["ffield", "--p", "3", "--deg", "2", "--trials", "5", "--seed", "0"]):
        assert run([*args, "--threads", "2"]).exit_code == 2, args
    assert run(["surface", "--form", "x^3+y^3", "--height", "5", "--shards", "2"]).exit_code == 2
    res = run(["build", "--form", "x^3+y^3", "--height", "4", "--seed", "1",
               "--max-twists", "-3"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValueError" and "twist budget" in err["message"]
    # Refused at once: mod 1 no nonzero denominator can ever be drawn.
    res2 = run(["ffield", "--p", "1", "--deg", "2", "--trials", "5", "--seed", "0"])
    assert res2.exit_code == 1
    assert json.loads(res2.stderr)["error"]["message"] == "1 is not prime"


def test_ffield_large_prime_refused_structured():
    # Frobenius-moved inputs of 3 * p + 1 coefficients are refused up front,
    # not allocated (p = 2^31 - 1) or ground through (p = 65537).
    for prime in ("2147483647", "65537"):
        res = run(["ffield", "--p", prime, "--deg", "3", "--trials", "5", "--seed", "0"])
        assert res.exit_code == 1
        err = json.loads(res.stderr)["error"]
        assert err["type"] == "ValueError"
        assert f"would have {3 * int(prime) + 1} coefficients" in err["message"]


def test_malformed_json_poly_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ definitely not json")
    res = run(["collide", "--poly", f"@{bad}", "--mode", "int", "--height", "2"])
    assert res.exit_code == 1
    assert "malformed polynomial JSON" in json.loads(res.stderr)["error"]["message"]


def test_usage_error_exit_2():
    assert run(["collide", "--poly", "x+y", "--mode", "hex", "--height", "2"]).exit_code == 2
    assert run(["collide"]).exit_code == 2
    assert run(["local", "--poly", "x+y", "--at", "0,0"]).exit_code == 2  # neither mode


def test_checkpoint_resume_cli(tmp_path):
    ck = tmp_path / "scan.ck"
    out1 = tmp_path / "a.json"
    res = run(["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "9",
               "--shards", "4", "--checkpoint", str(ck), "--out", str(out1)])
    assert res.exit_code == 0
    assert ck.exists()
    out2 = tmp_path / "b.json"
    res2 = run(["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "9",
                "--shards", "4", "--checkpoint", str(ck), "--resume", "--out", str(out2)])
    assert res2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_resume_without_checkpoint_exit_1_structured(tmp_path):
    res = run(["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "5", "--resume",
               "--out", str(tmp_path / "rep.json")])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValueError" and "checkpoint" in err["message"]
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("poly, mode, height, digest", [
    ("x^7+3*y^7", "rat", "14",
     "56949d6ba2af1c4c020c6c1c2cec7010b70f8909a581d0249ece1e7396ad81ed"),
    ("x^3+y^3", "int", "20",
     "ea415173d88f408a5aed94c01bc160f39fea18354ae867c16ed20c0c68350556"),
])
def test_collide_out_bytes_pinned(tmp_path, poly, mode, height, digest):
    # Digests of reports written through json.dumps(indent=2, sort_keys=True).
    out = tmp_path / "rep.json"
    res = run(["collide", "--poly", poly, "--mode", mode, "--height", height,
               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["ffield", "--p", "3", "--deg", "2", "--trials", "500", "--seed", "1"],
     "c21d40a3c42e7969209c7065aaff20cb5b26d1de32d4bcc18260650c5627088d"),
    (["local", "--poly", "x^7+3*y^7", "--real", "--at", "1,1", "--tol", "1e-12"],
     "ddd1168a850c86571dc8e5b15f7a20a910ad5a23e252191b219c4cd9b26ea0ef"),
    (["local", "--poly", "x^3+y^3", "--padic", "5", "--prec", "8", "--at", "1,1",
      "--delta", "5"],
     "1e452de55541d35524d18d991a7a0efe9a8e80eb7b0c87f44d2dc7dcf3ae973f"),
])
def test_ffield_and_local_out_bytes_pinned(tmp_path, args, digest):
    out = tmp_path / "out.json"
    res = run([*args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def built_f_file(tmp_path_factory):
    """f of build_injection(x^3+y^3, H=10, seed 1), whose trace test_pipeline pins, as JSON."""
    trace = build_injection(BinaryForm.from_multipoly(parse_poly("x^3+y^3")),
                            height_bound=10, rng_seed=1)
    path = tmp_path_factory.mktemp("built") / "f.json"
    path.write_text(json.dumps(trace.f_poly.to_json_dict()))
    return path


@pytest.mark.parametrize("args, digest", [
    (["--real", "--at", "1,1"],
     "b0be461f9e48d6697e760414dc495720cb887c8ebbb969f79c05921ec62064a1"),
    (["--padic", "11", "--prec", "8", "--at", "1,1"],
     "3b84beab48116c5f6bbadd7e6ee07162dcfd4516fa85c9809dc6fc284e2937cf"),
])
def test_local_on_built_f_out_bytes_pinned(tmp_path, built_f_file, args, digest):
    # The local demos on the paper's own object, read through @file.
    out = tmp_path / "out.json"
    res = run(["local", "--poly", f"@{built_f_file}", *args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_local_real_non_finite_tol_exit_1_structured():
    # 1e400 overflows to inf, which has no exact rational value.
    res = run(["local", "--poly", "x^7+3*y^7", "--real", "--at", "1,1", "--tol", "1e400"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValueError" and "finite" in err["message"]


def test_corrupt_checkpoint_exit_1_structured(tmp_path):
    ck = tmp_path / "scan.ck"
    args = ["collide", "--poly", "x^3+y^3", "--mode", "int", "--height", "10",
            "--shards", "4", "--checkpoint", str(ck)]
    assert run(args).exit_code == 0
    doc = json.loads(ck.read_text())
    del doc["completed"]
    ck.write_text(json.dumps(doc))
    res = run([*args, "--resume"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValueError" and str(ck) in err["message"]


def test_collide_memory_does_not_grow_with_pairs(tmp_path):
    # Constant 5 over integers in [-16, 16]: one class of 1,089 inputs, so
    # 592,416 pairs and a 71 MB report, streamed to the file row by row.
    # On Linux a process's ru_maxrss starts from the resident set of the
    # process that spawned it, so a small wrapper interpreter stands between
    # this test process and the command; it prints the command's peak in kB.
    wrapper = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'polyinj.cli', *sys.argv[1:]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyinj.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "c5.json"
    args = ["collide", "--poly", "5", "--mode", "int", "--height", "16",
            "--out", str(out), "--manifest", str(tmp_path / "m.json")]
    proc = subprocess.run([sys.executable, "-c", wrapper, *args], env=env, capture_output=True,
                          text=True, check=True)
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert out.stat().st_size > 70_000_000
    assert peak_mb < 100, peak_mb
