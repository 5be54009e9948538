"""Command-line interface tests: golden outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import re
import sys

import pytest

from dynw.cli import build_parser, dispatch


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


def test_portrait_enumerate_refuses_a_negative_vertex_count(capsys):
    for mode in ((), ("--json",)):
        assert run(capsys, "portrait", "enumerate", "--n", "-2", "--cycles", "1,1", *mode) == (
            1, "", "error: vertex count must be >= 0, got -2\n"
        )


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
    assert (code, out) == (0, "p=7 points=5 violations=0\n")
    code, out, _ = run(capsys, "model", "trace-check", "--p", "101")
    assert (code, out) == (0, "p=101 points=99 violations=0\n")
    code, out, _ = run(capsys, "model", "trace-check", "--p", "101", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 101, "points": 99, "schema_version": 1, "violations": []}


def test_ff_commands(capsys):
    code, out, _ = run(capsys, "ff", "gonality-lb", "--count", "93", "--q", "3")
    assert code == 0 and out == "24\n"
    code, out, _ = run(
        capsys, "ff", "cs", "--g", "9", "--d1", "3", "--g1", "0", "--d2", "2", "--g2", "2"
    )
    assert code == 0 and "fails" in out
    code, out, _ = run(capsys, "ff", "max-period", "--p", "3", "--k", "2")
    assert (code, out) == (0, "q=9 max_period=3 witness_c=[2, 1]\n")
    code, out, _ = run(capsys, "ff", "max-period", "--p", "3", "--k", "3")
    assert (code, out) == (0, "q=27 max_period=12 witness_c=[0, 0, 0]\n")
    code, out, _ = run(capsys, "ff", "max-period", "--p", "7", "--k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["q"], doc["max_period"], doc["witness_c"]) == (343, 57, [2, 0, 0])


def test_max_period_builds_the_field_under_the_configured_cap(monkeypatch):
    from dynw.ff import FFContext

    class ModulusSearch(Exception):
        pass

    def no_search(self):
        raise ModulusSearch  # past the context's checks; no 2^20 table is built

    monkeypatch.setattr(FFContext, "_find_modulus", no_search)
    argv = ["--enumeration-cap", str(10**15), "ff", "max-period", "--p", "2", "--k"]
    with pytest.raises(ModulusSearch):  # q^2 = 2^40 is over the default cap
        dispatch(argv + ["20"])
    assert dispatch(argv + ["21"]) == 1  # over the field table limit, whatever the cap


def test_cap_is_checked_before_the_field_is_built(capsys, monkeypatch, tmp_path):
    from dynw.ff import FFContext
    from dynw.models import full_model, model_to_json, plane_model
    from dynw.portraits import Portrait

    def no_search(self):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(FFContext, "_find_modulus", no_search)
    model = tmp_path / "plane1.json"
    model.write_text(model_to_json(plane_model(1)))
    full = tmp_path / "full.json"
    full.write_text(model_to_json(full_model(Portrait.from_text("4:1,1,3,3"))))
    expected = f"error: q^2 = {2 ** 400} exceeds enumeration cap 10000000\n"
    for argv in (
        ("ff", "max-period", "--p", "2", "--k", "200"),
        ("ff", "count", "--model", str(model), "--p", "2", "--k", "200"),
        ("ff", "count", "--model", str(full), "--p", "2", "--k", "200"),
    ):
        assert run(capsys, *argv) == (1, "", expected)


def _full_model_file(capsys, tmp_path, portrait):
    code, text, _ = run(capsys, "model", "full", "--portrait", portrait)
    assert code == 0
    path = tmp_path / "full.json"
    path.write_text(text)
    return str(path)


def test_ff_count_takes_the_fiber_path_on_full_models(capsys, monkeypatch, tmp_path):
    from dynw import fflab

    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(fflab, "iter_solutions", no_solver)
    path = _full_model_file(capsys, tmp_path, "12:2,3,1,1,2,3,8,9,7,7,8,9")
    name = "full:12:2,3,1,1,2,3,8,9,7,7,8,9"
    assert run(capsys, "ff", "count", "--model", path, "--p", "5", "--k", "2") == (
        0, f"model={name} q=25 affine=36\n", ""
    )
    code, out, _ = run(capsys, "ff", "count", "--model", path, "--p", "13", "--json")
    assert code == 0 and json.loads(out) == {
        "affine_count": 0, "cross_count": None, "model": name, "nonsingular_count": None,
        "q": 13, "schema_version": 1, "violations": [],
    }
    # q^5 > 10^7 for this model, but the fiber count only needs q^2 <= 10^7;
    # iter_solutions under a raised cap also finds 96 points
    path = _full_model_file(capsys, tmp_path, "12:2,1,1,3,3,2,6,6,9,9,11,11")
    assert run(capsys, "ff", "count", "--model", path, "--p", "101") == (
        0, "model=full:12:2,1,1,3,3,2,6,6,9,9,11,11 q=101 affine=96\n", ""
    )


def test_full_count_cap_bounds_q_squared(capsys, monkeypatch, tmp_path):
    from dynw.ff import FFContext

    def no_search(self):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(FFContext, "_find_modulus", no_search)
    path = _full_model_file(capsys, tmp_path, "4:1,1,3,3")
    assert run(capsys, "ff", "count", "--model", path, "--p", "3163") == (
        1, "", "error: q^2 = 10004569 exceeds enumeration cap 10000000\n"
    )
    assert run(capsys, "--enumeration-cap", "10000", "ff", "count", "--model", path, "--p", "101") == (
        1, "", "error: q^2 = 10201 exceeds enumeration cap 10000\n"
    )


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


def test_bad_configuration_is_a_usage_error(capsys):
    code, out, err = run(capsys, "--enumeration-cap", "0", "classify", "--c", "1")
    assert (code, out) == (2, "") and err == "error: all configuration caps must be positive\n"
    code, out, err = run(capsys, "--jobs", "2", "classify", "--c", "1")
    assert (code, out) == (2, "") and err.startswith("usage: dynw")


def test_default_config_refuses_level_12_before_building(capsys, monkeypatch):
    from dynw import _packed

    def no_build(n):
        raise AssertionError("started building f^n")

    monkeypatch.setattr(_packed, "fc_iterate", no_build)
    code, out, err = run(capsys, "dynatomic", "poly", "--n", "12")
    assert (code, out) == (1, "") and err == "error: n = 12 exceeds max_dynatomic_n = 11\n"


def test_max_dynatomic_n_above_11_is_refused_up_front(capsys, monkeypatch):
    # the level cap is a constant: DYNW_MAX_DYNATOMIC_N is not read, and
    # level 12 is refused before f^n is built
    from dynw import _packed

    def no_build(n):
        raise AssertionError("started building f^n")

    monkeypatch.setattr(_packed, "fc_iterate", no_build)
    monkeypatch.setenv("DYNW_MAX_DYNATOMIC_N", "12")
    refusal = (1, "", "error: n = 12 exceeds max_dynatomic_n = 11\n")
    assert run(capsys, "dynatomic", "poly", "--n", "12") == refusal


def test_a_multilevel_level_over_the_cap_is_refused_before_d0_is_formed(capsys, monkeypatch):
    # D0(n) forms 2^n, so the count bound on marked cycles must not run first
    from dynw import models

    calls = []
    degree_d0 = models.degree_d0
    monkeypatch.setattr(models, "degree_d0", lambda n: calls.append(n) or degree_d0(n))
    refusal = (1, "", "error: n = 100000000 exceeds max_dynatomic_n = 11\n")
    assert run(capsys, "model", "multilevel", "--cycles", "100000000") == refusal
    assert run(capsys, "model", "multilevel", "--cycles", "2,100000000,2")[0] == 1
    assert calls == []
    code, out, _ = run(capsys, "model", "multilevel", "--cycles", "3,3")
    assert code == 0 and calls == [3]


def test_the_removed_level_cap_flag_is_a_usage_error(capsys):
    code, out, err = run(capsys, "--max-dynatomic-n", "5", "dynatomic", "poly", "--n", "3")
    assert (code, out) == (2, "") and err.startswith("usage: dynw")
    assert "\ndynw: error: " in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "dynatomic", "poly", "--n", "0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "portrait", "validate", "--portrait", "junk")
    assert code == 1


def test_a_portrait_argument_naming_no_file_is_portrait_text(capsys, tmp_path):
    # '' names the current directory and tmp_path a directory: neither is read
    for arg in ("", str(tmp_path)):
        assert run(capsys, "portrait", "validate", "--portrait", arg) == (
            1, "", f"error: portrait text needs 'N:t1,...,tN', got {arg!r}\n"
        )
    path = tmp_path / "portrait.txt"
    path.write_text("4:1,2,1,2\n")
    code, out, _ = run(capsys, "portrait", "validate", "--portrait", str(path))
    assert code == 0 and out.startswith("portrait 4:1,2,1,2 ")


def test_byte_identical_reruns(capsys):
    first = run(capsys, "portrait", "enumerate", "--n", "12", "--cycles", "3,3", "--json")
    second = run(capsys, "portrait", "enumerate", "--n", "12", "--cycles", "3,3", "--json")
    assert first == second
    first = run(capsys, "dynatomic", "poly", "--n", "5")
    second = run(capsys, "dynatomic", "poly", "--n", "5")
    assert first == second


# (argv, a cap that refuses it, the refusal, a cap under which it runs);
# PLANE1 stands for a file holding plane_model(1)
_CAPPED_COMMANDS = [
    (("classify", "--c", "-1000000"), 1000, "2005 candidates exceed enumeration cap 1000", 10**4),
    (("sweep", "--height", "20"), 100, "sweep to height 20 exceeds enumeration cap 100", 1000),
    (("ff", "count", "--model", "PLANE1", "--p", "7"), 10, "q^2 = 49 exceeds enumeration cap 10", 100),
    (("ff", "max-period", "--p", "5"), 10, "q^2 = 25 exceeds enumeration cap 10", 100),
    (("model", "trace-check", "--p", "11"), 50, "q^2 = 121 exceeds enumeration cap 50", 1000),
    (("reproduce", "trace"), 50, "q^2 = 121 exceeds enumeration cap 50", 1000),
    (("reproduce", "sweep"), 100, "sweep to height 20 exceeds enumeration cap 100", 1000),
]


@pytest.mark.parametrize(
    "argv, small, refusal, large",
    _CAPPED_COMMANDS,
    ids=[" ".join(case[0][:2]) for case in _CAPPED_COMMANDS],
)
def test_every_capped_command_reads_the_flag(
    capsys, monkeypatch, tmp_path, argv, small, refusal, large
):
    from dynw.models import model_to_json, plane_model

    model = tmp_path / "plane1.json"
    model.write_text(model_to_json(plane_model(1)))
    argv = tuple(str(model) if a == "PLANE1" else a for a in argv)
    refused = (1, "", f"error: {refusal}\n")
    code, out, _ = run(capsys, *argv)  # the default cap
    assert code == 0
    assert run(capsys, "--enumeration-cap", str(small), *argv) == refused
    assert run(capsys, "--enumeration-cap", str(large), *argv)[:2] == (0, out)
    # the retired variable is not read: a refusing cap in it changes nothing
    monkeypatch.setenv("DYNW_ENUMERATION_CAP", str(small))
    assert run(capsys, *argv)[:2] == (0, out)


def test_oversized_numbers_are_named_not_printed(capsys):
    for argv in (
        ("ff", "max-period", "--p", "2", "--k", "10000"),
        ("ff", "max-period", "--p", "2", "--k", "10000", "--json"),
        ("dynatomic", "asymptotic", "--n", "15000"),
        ("dynatomic", "asymptotic", "--n", "15000", "--json"),
    ):
        code, out, err = run(capsys, *argv)
        assert code != 0 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "4300" not in err, argv
    assert "enumeration cap 10000000" in run(capsys, "ff", "max-period", "--p", "2", "--k", "10000")[2]


def test_size_errors_follow_the_live_digit_limit(capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        max_period = run(capsys, "ff", "max-period", "--p", "2", "--k", "5000")
        asymptotic = run(capsys, "dynatomic", "asymptotic", "--n", "2000")
        sys.set_int_max_str_digits(0)  # no limit: the message still names a power of two
        unlimited = run(capsys, "ff", "max-period", "--p", "2", "--k", "10000")
    finally:
        sys.set_int_max_str_digits(old)
    assert max_period == (1, "", "error: q^2 >= 2^10000 exceeds enumeration cap 10000000\n")
    assert unlimited == (1, "", "error: q^2 >= 2^20000 exceeds enumeration cap 10000000\n")
    assert asymptotic == (
        1, "", "error: --n 2000 gives integers too long to print; use --n <= 1920\n"
    )


def test_check_bounds_refuses_unprintable_max_up_front(capsys, monkeypatch):
    from dynw import dynatomic

    def no_rows(n):
        raise AssertionError("computed a row")

    monkeypatch.setattr(dynatomic, "check_degree_bounds", no_rows)
    old = sys.get_int_max_str_digits()
    results = []
    try:
        for limit in (old, 640):
            sys.set_int_max_str_digits(limit)
            n = 3 * limit + 1
            message = f"error: --max {n} gives integers too long to print; use --max <= {n - 1}\n"
            for mode in ((), ("--json",)):
                got = run(capsys, "dynatomic", "check-bounds", "--max", str(n), *mode)
                results.append((got, (1, "", message)))
    finally:
        sys.set_int_max_str_digits(old)
    for got, expected in results:
        assert got == expected



def test_report_levels_are_bounded_whatever_the_digit_limit(capsys, monkeypatch):
    from dynw import dynatomic

    def no_rows(n):
        raise AssertionError("computed a row")

    monkeypatch.setattr(dynatomic, "check_degree_bounds", no_rows)
    old = sys.get_int_max_str_digits()
    results = []
    try:
        for limit in (0, 20000):  # none, and one that admits more than the bound
            sys.set_int_max_str_digits(limit)
            for argv in (("check-bounds", "--max", "12901"), ("asymptotic", "--n", "1099511627777")):
                flag, n = argv[1:]
                message = f"error: {flag} {n} exceeds the report level bound; use {flag} <= 12900\n"
                for mode in ((), ("--json",)):
                    results.append((run(capsys, "dynatomic", *argv, *mode), (1, "", message)))
    finally:
        sys.set_int_max_str_digits(old)
    for got, expected in results:
        assert got == expected


def test_report_levels_are_bounded_in_a_process_with_no_digit_limit():
    import os
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS="0")
    for argv in (("asymptotic", "--n", "1099511627777"), ("check-bounds", "--max", "100000")):
        flag, n = argv[1:]
        cmd = [sys.executable, "-m", "dynw", "dynatomic", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: {flag} {n} exceeds the report level bound; use {flag} <= 12900\n"
        )


@pytest.mark.parametrize("command", ["count", "max-period"])
@pytest.mark.parametrize("k", ["-1", "0", "1000000"])
def test_extension_degree_is_checked_before_q_is_formed(capsys, monkeypatch, tmp_path, command, k):
    from dynw.ff import FFContext

    def no_search(self):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(FFContext, "_find_modulus", no_search)
    argv = ["ff", command, "--p", "5", "--k", k]
    if command == "count":
        argv[2:2] = ["--model", _full_model_file(capsys, tmp_path, "4:2,1,2,1")]
    if k == "1000000":  # (5^k)^2 >= 2^(2 * 2 * k), from bit lengths
        message = "error: q^2 >= 2^4000000 exceeds enumeration cap 10000000\n"
    else:
        message = f"error: extension degree must be >= 1, got {k}\n"
    assert run(capsys, *argv) == (1, "", message)


def _model_doc(capsys, tmp_path):
    """A full model renamed so that it is counted by the solver."""
    with open(_full_model_file(capsys, tmp_path, "4:2,1,2,1")) as f:
        doc = json.load(f)
    doc["name"] = "edited"
    return doc


def _edit(field, value):
    def edit(doc):
        doc[field] = value(doc) if callable(value) else value
        return doc
    return edit


MALFORMED_MODELS = {
    "top-level-list": (lambda doc: [1, 2], "model JSON must be an object"),
    "equation-not-a-string": (
        _edit("equations", [5]), "model JSON field 'equations' must be a list of strings"
    ),
    "undeclared-equation-variable": (
        _edit("equations", lambda d: d["equations"] + ["z^2 - x1"]),
        "model JSON field 'equations' names undeclared variable 'z'",
    ),
    "undeclared-free-variable": (
        _edit("free_variables", ["c", "y"]),
        "model JSON field 'free_variables' names undeclared variable 'y'",
    ),
    "two-entry-step": (
        _edit("steps", lambda d: [["image", "x2"]] + d["steps"][1:]),
        "model JSON field 'steps' must list [image|negate, target, source]",
    ),
    "step-before-its-source": (
        _edit("steps", lambda d: d["steps"][::-1]),
        "model JSON field 'steps': ['negate', 'x4', 'x2'] reads unbound 'x2'",
    ),
    "image-step-without-c": (
        _edit("free_variables", ["x1"]),
        "model JSON field 'steps': ['image', 'x2', 'x1'] reads unbound 'c'",
    ),
    "variable-never-bound": (
        _edit("steps", lambda d: d["steps"][:2]),
        "model JSON field 'variables': 'x4' is never bound",
    ),
    "step-writes-a-free-variable": (
        _edit("free_variables", lambda d: d["free_variables"] + ["x2"]),
        "model JSON field 'steps': ['image', 'x2', 'x1'] writes bound 'x2'",
    ),
    "repeated-variable": (
        _edit("variables", lambda d: d["variables"] + ["x1"]),
        "model JSON field 'variables' repeats variable 'x1'",
    ),
    "repeated-free-variable": (
        _edit("free_variables", lambda d: d["free_variables"] + d["free_variables"][-1:]),
        "model JSON field 'free_variables' repeats variable 'x1'",
    ),
    "empty-free-variables-with-steps": (
        _edit("free_variables", []),
        "model JSON field 'steps': ['image', 'x2', 'x1'] writes bound 'x2'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_file_is_one_error_line(capsys, tmp_path, case):
    edit, message = MALFORMED_MODELS[case]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(_model_doc(capsys, tmp_path))))
    assert run(capsys, "ff", "count", "--model", str(path), "--p", "5") == (
        1, "", f"error: {message}\n"
    )


def test_a_repeated_variable_is_one_error_line_not_a_multiplied_count(capsys, tmp_path):
    doc = {
        "schema_version": 1, "name": "twice", "provenance": "plane", "variables": ["c", "x"],
        "free_variables": ["c", "x"], "equations": ["x^2 + c - x"], "inequations": [],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "ff", "count", "--model", str(path), "--p", "5") == (
        0, "model=twice q=5 affine=5 nonsingular=5\n", ""
    )
    for key in ("variables", "free_variables"):
        path.write_text(json.dumps({**doc, key: ["c", "x", "x"]}))
        assert run(capsys, "ff", "count", "--model", str(path), "--p", "5") == (
            1, "", f"error: model JSON field '{key}' repeats variable 'x'\n"
        )


def test_a_p_that_is_not_prime_is_refused_first(capsys, monkeypatch, tmp_path):
    from dynw import fflab
    from dynw.models import full_model, model_to_json, plane_model
    from dynw.portraits import Portrait

    files = []
    for tag, model in (("plane", plane_model(1)), ("full", full_model(Portrait.from_text("4:1,1,3,3")))):
        files.append(tmp_path / f"{tag}.json")
        files[-1].write_text(model_to_json(model))

    def not_rebuilt(*args, **kwargs):
        raise AssertionError("rebuilt the reference")

    for name in ("plane_model", "multi_level_model", "reduced_model", "full_model"):
        monkeypatch.setattr(fflab, name, not_rebuilt)
    for path in files:
        for p in ("0", "1", "4", "-3"):
            for mode in ((), ("--json",)):
                assert run(capsys, "ff", "count", "--model", str(path), "--p", p, *mode) == (
                    1, "", f"error: {p} is not prime\n"
                ), (path.name, p, mode)


def test_the_cap_is_checked_before_primality(capsys, monkeypatch, tmp_path):
    # 2^11213 - 1 is a Mersenne prime of 3376 digits; testing it for
    # primality takes far longer than refusing q^2 >= 2^22424, which a
    # composite p of the same length gets too
    from dynw import ff, rational
    from dynw.models import model_to_json, plane_model

    def no_primality_test(n):
        raise AssertionError("tested p for primality")

    for module in (ff, rational):
        monkeypatch.setattr(module, "is_prime", no_primality_test)
    path = tmp_path / "plane1.json"
    path.write_text(model_to_json(plane_model(1)))
    for p in (2**11213 - 1, 2**11213 - 2):
        assert run(capsys, "ff", "count", "--model", str(path), "--p", str(p)) == (
            1, "", "error: q^2 >= 2^22424 exceeds enumeration cap 10000000\n"
        )


def test_a_field_over_the_table_limit_is_one_error_line(capsys, monkeypatch, tmp_path):
    # one enumeration variable, so q = 2^45 passes a cap of 10^14; its
    # tables would take 32 * 2^45 bytes, and are refused before the search
    # for a modulus
    from dynw import ff

    def never(*args):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(ff, "_is_irreducible", never)
    doc = {
        "schema_version": 1, "name": "edited", "variables": ["c", "x"],
        "free_variables": ["c"], "steps": [["image", "x", "c"]], "equations": [],
        "inequations": [], "provenance": "plane",
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    argv = ("--enumeration-cap", "100000000000000", "ff", "count", "--model", str(path))
    for k in ("45", "21"):
        assert run(capsys, *argv, "--p", "2", "--k", k) == (
            1, "", f"error: q = 2^{k} exceeds the field table limit 2^20\n"
        )


def test_python_dash_m_runs_the_command_line():
    import os
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "dynw", "dynatomic", "degrees", "--n", "3"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "n=3 D1=6 D0=2 B=1 genus_lb=-1/2\n", ""
    )


def test_a_denominator_that_vanishes_mod_p_is_one_error_line(capsys, tmp_path):
    doc = {
        "schema_version": 1, "name": "half", "provenance": "plane", "variables": ["c", "x"],
        "free_variables": ["c", "x"], "equations": ["x^2 + 1/2*c - x"], "inequations": [],
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    for mode in ((), ("--json",)):
        assert run(capsys, "ff", "count", "--model", str(path), "--p", "2", *mode) == (
            1, "", "error: the denominator of coefficient 1/2 vanishes mod 2\n"
        )


def test_check_bounds_refuses_an_empty_range(capsys):
    for n in ("0", "-3"):
        for mode in ((), ("--json",)):
            assert run(capsys, "dynatomic", "check-bounds", "--max", n, *mode) == (
                1, "", f"error: --max must be >= 1, got {n}\n"
            )


def test_classify_and_sweep_refuse_oversized_work_before_building_it(capsys, monkeypatch):
    from dynw import classify

    def not_built(*args):
        raise AssertionError("built the successor array or the sweep domain")

    monkeypatch.setattr(classify, "_successors", not_built)
    monkeypatch.setattr(classify, "_sweep_domain", not_built)
    # c = -10^6: u_max = (1 + isqrt_ceil(4000001)) // 2 + 1 = 1002
    argv = ("--enumeration-cap", "1000", "classify", "--c", "-1000000")
    expected = (1, "", "error: 2005 candidates exceed enumeration cap 1000\n")
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv, "--json") == expected
    assert run(capsys, "classify", "--c", "-1000000000000000000") == (
        1, "", "error: 2000000005 candidates exceed enumeration cap 10000000\n"
    )
    # floor(sqrt(20)) * (2 * 20 + 1) = 164 numerator and denominator pairs
    assert run(capsys, "--enumeration-cap", "100", "sweep", "--height", "20") == (
        1, "", "error: sweep to height 20 exceeds enumeration cap 100\n"
    )


def test_refused_sweep_leaves_the_records_file_alone(capsys, tmp_path):
    out = tmp_path / "rec.csv"
    out.write_text("c_num,c_den\n1,1\n")
    before = out.read_bytes()
    for argv, message in (
        (("--enumeration-cap", "100", "sweep", "--height", "20"),
         "sweep to height 20 exceeds enumeration cap 100"),
        (("sweep", "--height", "0"), "height bound must be >= 1"),
    ):
        assert run(capsys, *argv, "--out", str(out)) == (1, "", f"error: {message}\n")
        assert out.read_bytes() == before
    # a sweep that runs writes the same bytes as before the file was opened late
    code, _, err = run(capsys, "sweep", "--height", "3", "--out", str(out))
    assert (code, err) == (0, f"records written to {out}\n")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "07ebc630dec8b693b07c63e680dddb032d832a86d2c09e8048230a4ff8198685"


def test_model_reduced_refuses_a_preperiod_wider_than_the_level_cap(capsys, monkeypatch):
    from dynw import _packed

    def not_built(*args):
        raise AssertionError("composed f into a dynatomic polynomial")

    monkeypatch.setattr(_packed, "cx_compose_f", not_built)
    # a 2-cycle with a chain of 12 preimage pairs: orbit type (12, 2), x-degree 2^11 * D1(2)
    chain = "26:2,1,2,3,4,5,6,7,8,9,10,11,12,13,13,12,11,10,9,8,7,6,5,4,3,1"
    assert run(capsys, "model", "reduced", "--portrait", chain) == (
        1, "", "error: orbit type (12, 2) has x-degree 4096, more than the 2046 of "
        "Phi_11 (max_dynatomic_n)\n"
    )


def _leaf_commands(parser, path=()):
    """(command path, accepts --json) for every runnable subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, "--json" in parser._option_string_actions
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, path + (name,))


JSON_COMMANDS = {
    ("dynatomic", "poly"): ["--n", "3"],
    ("dynatomic", "degrees"): ["--n", "5"],
    ("dynatomic", "check-bounds"): ["--max", "4"],
    ("dynatomic", "asymptotic"): ["--n", "25"],
    ("portrait", "validate"): ["--portrait", "2:1,1"],
    ("portrait", "enumerate"): ["--n", "8", "--cycles", "2"],
    ("portrait", "autgroup"): ["--portrait", "4:1,2,1,2"],
    ("portrait", "embeds"): ["--sub", "4:1,2,1,2", "--super", "6:1,2,1,2,3,3"],
    ("portrait", "catalog"): [],
    ("portrait", "extensions"): ["--portrait", "0:", "--b", "2"],
    ("model", "trace-check"): ["--p", "7"],
    ("ff", "count"): ["--model", "MODEL", "--p", "5"],
    ("ff", "cs"): ["--g", "9", "--d1", "3", "--g1", "0", "--d2", "2", "--g2", "2"],
    ("ff", "max-period"): ["--p", "3", "--k", "2"],
    ("classify",): ["--c", "-3/4"],
}

TEXT_ONLY_COMMANDS = {
    ("model", "full"): ["--portrait", "4:1,2,1,2"],
    ("model", "reduced"): ["--portrait", "4:1,1,3,3"],
    ("model", "multilevel"): ["--cycles", "3"],
    ("ff", "gonality-lb"): ["--count", "93", "--q", "3"],
    ("sweep",): ["--height", "3"],
    ("reproduce",): ["degrees"],
}


def test_every_command_is_covered_by_the_output_format_tests():
    leaves = dict(_leaf_commands(build_parser()))
    assert {path for path, has_json in leaves.items() if has_json} == set(JSON_COMMANDS)
    assert {path for path, has_json in leaves.items() if not has_json} == set(TEXT_ONLY_COMMANDS)
    assert (len(JSON_COMMANDS), len(TEXT_ONLY_COMMANDS)) == (15, 6)


# the retired variables, set to values that once changed or refused output
_RETIRED_VARIABLES = {"DYNW_ENUMERATION_CAP": "abc", "DYNW_OUTPUT_FORMAT": "csv"}


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS), ids=" ".join)
def test_json_flag_and_environment_print_the_same_document(capsys, monkeypatch, tmp_path, command):
    """--json prints the document, and text is the default; neither output
    depends on the environment (DYNW_OUTPUT_FORMAT is not read)."""
    model = _full_model_file(capsys, tmp_path, "4:2,1,2,1")
    argv = [*command] + [model if a == "MODEL" else a for a in JSON_COMMANDS[command]]
    text = run(capsys, *argv)
    flag = run(capsys, *argv, "--json")
    assert json.loads(flag[1])["schema_version"] == 1 and text != flag
    for values in (_RETIRED_VARIABLES, {"DYNW_OUTPUT_FORMAT": "json"}):
        for name, value in values.items():
            monkeypatch.setenv(name, value)
        assert (run(capsys, *argv), run(capsys, *argv, "--json")) == (text, flag)


@pytest.mark.parametrize("command", sorted(TEXT_ONLY_COMMANDS), ids=" ".join)
def test_environment_leaves_text_only_commands_alone(capsys, monkeypatch, command):
    argv = [*command] + TEXT_ONLY_COMMANDS[command]

    def masked():
        code, out, err = run(capsys, *argv)
        return code, out, re.sub(r"elapsed \d+\.\d+s", "elapsed", err)

    text = masked()
    for name, value in _RETIRED_VARIABLES.items():
        monkeypatch.setenv(name, value)
    assert masked() == text
