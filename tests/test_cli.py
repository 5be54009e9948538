"""Command-line interface tests: golden outputs, exit codes, determinism."""

import json

from dynw.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dynatomic_poly_golden(capsys):
    code, out, _ = run(capsys, "dynatomic", "poly", "--n", "2")
    assert code == 0
    assert out == "x^2 + x + c + 1\n"


def test_dynatomic_degrees_json(capsys):
    code, out, _ = run(capsys, "dynatomic", "degrees", "--n", "12", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "schema_version": 1,
        "n": 12,
        "D1": 4020,
        "D0": 335,
        "B": 1959,
        "genus_lb": "1291/2",
    }


def test_dynatomic_check_bounds(capsys):
    code, out, _ = run(capsys, "dynatomic", "check-bounds", "--max", "6")
    assert code == 0
    assert out.count("\n") == 6
    assert "n=3 4 <= D1=6 <= 8" in out


def test_dynatomic_asymptotic(capsys):
    code, out, _ = run(capsys, "dynatomic", "asymptotic", "--n", "25")
    assert code == 0 and "chain_holds=1" in out
    code, out, _ = run(capsys, "dynatomic", "asymptotic", "--n", "24")
    assert code == 0 and "chain_holds=0" in out


def test_portrait_validate(capsys):
    code, out, _ = run(capsys, "portrait", "validate", "--portrait", "4:1,2,1,2")
    assert code == 0 and "generic: yes" in out
    code, out, _ = run(capsys, "portrait", "validate", "--portrait", "2:1,1")
    assert code == 0 and "generic: no" in out and "FixedPointPair" in out


def test_portrait_enumerate(capsys):
    code, out, _ = run(capsys, "portrait", "enumerate", "--n", "10", "--cycles", "1,1")
    assert code == 0
    assert out.strip().split("\n")[-1] == "count: 3"
    code, out, _ = run(capsys, "portrait", "enumerate", "--n", "12", "--cycles", "2,1,1", "--json")
    assert json.loads(out)["count"] == 5


def test_portrait_autgroup(capsys):
    code, out, _ = run(capsys, "portrait", "autgroup", "--portrait", "4:1,2,1,2")
    assert code == 0 and out.startswith("order: 2\n")


def test_portrait_embeds(capsys):
    code, out, _ = run(
        capsys, "portrait", "embeds", "--sub", "4:1,2,1,2", "--super", "6:1,2,1,2,3,3"
    )
    assert code == 0
    assert out.startswith("count: ")
    assert int(out.split("\n")[0].split(": ")[1]) > 0


def test_portrait_catalog(capsys):
    code, out, _ = run(capsys, "portrait", "catalog", "--json")
    assert code == 0
    doc = json.loads(out)
    labels = [e["label"] for e in doc["entries"]]
    assert "12(3,3)" in labels and "empty" in labels
    assert len(labels) == 41


def test_portrait_extensions(capsys):
    code, out, _ = run(capsys, "portrait", "extensions", "--portrait", "0:", "--b", "2")
    assert code == 0
    assert "4(1,1)" in out and "4(2)" in out and "count: 2" in out


def test_model_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "model", "multilevel", "--cycles", "3,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["variables"] == ["c", "x", "y"]
    assert doc["schema_version"] == 1
    path = tmp_path / "model.json"
    path.write_text(out)

    code, out, _ = run(capsys, "ff", "count", "--model", str(path), "--p", "7")
    assert code == 0 and "affine=0" in out

    code, out, _ = run(capsys, "model", "full", "--portrait", "4:1,2,1,2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["equations"]) == 4 and len(doc["inequations"]) == 6

    code, out, _ = run(capsys, "model", "reduced", "--portrait", "12:2,3,1,1,2,3,8,9,7,7,8,9")
    assert code == 0
    doc = json.loads(out)
    assert doc["inequations"] == ["y - x", "-x^2 + y - c", "-x^4 - 2*c*x^2 - c^2 + y - c"]

    code, out, _ = run(capsys, "model", "trace-check", "--p", "7")
    assert code == 0 and "violations=0" in out


def test_ff_commands(capsys):
    code, out, _ = run(capsys, "ff", "gonality-lb", "--count", "93", "--q", "3")
    assert code == 0 and out == "24\n"
    code, out, _ = run(
        capsys, "ff", "cs", "--g", "9", "--d1", "3", "--g1", "0", "--d2", "2", "--g2", "2"
    )
    assert code == 0 and "fails" in out
    code, out, _ = run(capsys, "ff", "max-period", "--p", "3", "--k", "2")
    assert code == 0 and "max_period=3" in out


def test_cap_is_checked_before_the_field_is_built(capsys, monkeypatch, tmp_path):
    from dynw.ff import FFContext
    from dynw.models import model_to_json, plane_model

    def no_search(self):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(FFContext, "_find_modulus", no_search)
    model = tmp_path / "plane1.json"
    model.write_text(model_to_json(plane_model(1)))
    expected = f"error: q^2 = {2 ** 400} exceeds enumeration cap 10000000\n"
    for argv in (
        ("ff", "max-period", "--p", "2", "--k", "200"),
        ("ff", "count", "--model", str(model), "--p", "2", "--k", "200"),
    ):
        assert run(capsys, *argv) == (1, "", expected)


def test_classify_and_sweep(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--c", "-3/4")
    assert code == 0 and "label=4(1,1)" in out
    code, out, _ = run(capsys, "classify", "--c", "-1", "--json")
    doc = json.loads(out)
    assert doc["label"] == "3(2)" and doc["generic"] is False

    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--height", "3", "--out", str(csv_path))
    assert code == 0 and "anomalies: 0" in out
    header = csv_path.read_text().split("\n")[0]
    assert header == "c_num,c_den,portrait_serialized,canonical_label,generic,point_count,flags"


def test_reproduce_bundles(capsys):
    for name in ("degrees", "bounds", "trace", "figures"):
        code, out, _ = run(capsys, "reproduce", name)
        assert code == 0, name
        assert "FAIL" not in out


def test_reproduce_unknown(capsys):
    code, _, err = run(capsys, "reproduce", "nonsense")
    assert code == 1 and "unknown report" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "dynatomic", "poly")[0] == 2  # missing --n
    assert run(capsys, "nonsense")[0] == 2


def test_bad_configuration_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run(capsys, "--enumeration-cap", "0", "classify", "--c", "1")
    assert (code, out) == (2, "") and err == "error: all configuration caps must be positive\n"
    monkeypatch.setenv("DYNW_ENUMERATION_CAP", "abc")
    code, out, err = run(capsys, "classify", "--c", "1")
    assert (code, out) == (2, "")
    assert err == "error: DYNW_ENUMERATION_CAP must be an integer, got 'abc'\n"
    monkeypatch.delenv("DYNW_ENUMERATION_CAP")
    code, out, err = run(capsys, "--jobs", "2", "classify", "--c", "1")
    assert (code, out) == (2, "") and err.startswith("usage: dynw")
    monkeypatch.setenv("DYNW_OUTPUT_FORMAT", "csv")
    code, out, err = run(capsys, "classify", "--c", "1")
    assert (code, out) == (2, "") and err.startswith("error: output_format must be one of")
    assert err.count("\n") == 1


def test_default_config_refuses_level_12_before_building(capsys, monkeypatch):
    from dynw import _packed

    def no_build(n):
        raise AssertionError("started building f^n")

    monkeypatch.setattr(_packed, "fc_iterate", no_build)
    code, out, err = run(capsys, "dynatomic", "poly", "--n", "12")
    assert (code, out) == (1, "") and err == "error: n = 12 exceeds max_dynatomic_n = 11\n"


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "dynatomic", "poly", "--n", "0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "portrait", "validate", "--portrait", "junk")
    assert code == 1


def test_byte_identical_reruns(capsys):
    first = run(capsys, "portrait", "enumerate", "--n", "12", "--cycles", "3,3", "--json")
    second = run(capsys, "portrait", "enumerate", "--n", "12", "--cycles", "3,3", "--json")
    assert first == second
    first = run(capsys, "dynatomic", "poly", "--n", "5")
    second = run(capsys, "dynatomic", "poly", "--n", "5")
    assert first == second


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DYNW_MAX_DYNATOMIC_N", "2")
    code, _, err = run(capsys, "dynatomic", "poly", "--n", "3")
    assert code == 1 and "max_dynatomic_n" in err
    monkeypatch.delenv("DYNW_MAX_DYNATOMIC_N")
    assert run(capsys, "dynatomic", "poly", "--n", "3")[0] == 0
