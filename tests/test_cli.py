import json

from click.testing import CliRunner

from polyinj.cli import main


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


def test_invalid_counts_exit_1_structured():
    res = run(["surface", "--form", "x^3+y^3", "--height", "12", "--shards", "-1"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "ValueError" and "shard count" in err["message"]
    # Refused at once: mod 1 no nonzero denominator can ever be drawn.
    res2 = run(["ffield", "--p", "1", "--deg", "2", "--trials", "5", "--seed", "0"])
    assert res2.exit_code == 1
    assert json.loads(res2.stderr)["error"]["message"] == "1 is not prime"


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
