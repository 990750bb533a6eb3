import argparse
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatwitness import acceptance, cli
from flatwitness.errors import InvalidInput


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out, parse_constant=_reject_constant) if out.out.strip() else None
    return code, report, out.err


def test_olympiad_geometric(capsys):
    code, report, _ = run_cli(capsys, ["olympiad", "--geometric", "0.5", "--terms", "128"])
    assert code == 0
    assert report["subcommand"] == "olympiad"
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "bound_holds_all_windows" in names


def test_olympiad_without_windows_reports_null(capsys):
    # one term leaves no window between dyadic indices, so no worst gap exists
    code, report, _ = run_cli(capsys, ["olympiad", "--terms", "1"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["windows"]["value"] == 0
    assert checks["bound_holds_all_windows"]["value"] is None


def sequence_file(path, values):
    """A sequence file: [re, im] pairs in JSON, or index,re,im rows in CSV."""
    if path.suffix == ".csv":
        rows = "".join(f"{i},{float(v.real)!r},{float(v.imag)!r}\n"
                       for i, v in enumerate(values, start=1))
        path.write_text("index,re,im\n" + rows)
    else:
        path.write_text(json.dumps([[v.real, v.imag] for v in values]))


def test_olympiad_from_csv(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    sequence_file(path, (np.arange(1, 200.0) ** -1.0).astype(complex))
    code, report, _ = run_cli(capsys, ["olympiad", "--input", str(path)])
    assert code == 0 and report["pass"]


def test_witness_random(capsys):
    code, report, _ = run_cli(capsys, ["witness", "--random", "4,64", "--certificate"])
    assert code == 0
    assert report["pass"] is True
    assert report["certificate"]["k"] == 4
    assert len(report["certificate"]["mu"]) == 64


def test_witness_from_file(tmp_path, capsys):
    obj = {"weights": [1.0], "r": [[[1.0, 0.0], [1.0, 0.0]]],
           "m": [[[1.0, 0.0], [-1.0, 0.0]]]}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(obj))
    code, report, _ = run_cli(capsys, ["witness", "--input", str(path)])
    assert code == 0 and report["pass"]


def test_bezout_random_with_strictness(capsys):
    code, report, _ = run_cli(capsys, ["bezout", "--atoms", "500", "--strictness"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "d_membership" in names and "generator_zero_mass" in names
    # verdicts are JSON booleans, not their string forms
    assert all(c["pass"] is True for c in report["checks"] if c["tol"] is not None)


def test_ulim_oscillating_is_informational(tmp_path, capsys):
    path = tmp_path / "osc.json"
    sequence_file(path, ((-1.0) ** np.arange(1, 101)).astype(complex))
    code, report, _ = run_cli(capsys, ["ulim", "--input", str(path)])
    assert code == 0  # verdicts are not failures
    verdicts = {c["name"]: c["value"] for c in report["checks"]}
    assert verdicts["ideal_membership"] == "undecidable"
    assert verdicts["eventual_limit"] == "no verdict"


def test_ulim_decaying(tmp_path, capsys):
    path = tmp_path / "dec.json"
    sequence_file(path, (2.0 ** -np.arange(1, 65.0)).astype(complex))
    code, report, _ = run_cli(capsys, ["ulim", "--input", str(path)])
    assert code == 0
    verdicts = {c["name"]: c["value"] for c in report["checks"]}
    assert verdicts["ideal_membership"] == "yes"


def test_ulim_verdict_reads_the_tail_that_decides_the_limit(tmp_path, capsys):
    # 48 ones, then 16 zeros: the last quarter settles at 0, the last half does
    # not settle, and there the membership verdict must not settle either
    path = tmp_path / "step.json"
    sequence_file(path, np.r_[np.ones(48), np.zeros(16)].astype(complex))
    for fraction, limit, membership in (("0.25", 0.0, "yes"),
                                        ("0.5", "no verdict", "undecidable")):
        code, report, _ = run_cli(capsys, ["ulim", "--input", str(path),
                                           "--tail-fraction", fraction])
        assert code == 0
        verdicts = {c["name"]: c["value"] for c in report["checks"]}
        assert verdicts["eventual_limit"] == limit
        assert verdicts["ideal_membership"] == membership


def test_layered_preset_l2(capsys):
    code, report, _ = run_cli(
        capsys, ["layered", "--preset", "l2", "--shells", "64", "--geometric", "0.5"]
    )
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["factorization_residual"]["pass"] is True
    assert checks["star_bound_lhs_vs_rhs"]["pass"] is True
    assert checks["branch"]["value"] == "general"
    assert checks["g_ideal_membership"]["value"] == "yes"


def test_layered_preset_circle(capsys):
    code, report, _ = run_cli(
        capsys, ["layered", "--preset", "circle", "--shells", "32",
                 "--atoms-per-shell", "16"]
    )
    assert code == 0 and report["pass"]


def test_layered_custom_layout(tmp_path, capsys):
    layout = {"shells": [{"n": n, "atoms": [{"id": n, "weight": 1.0}]} for n in (1, 2, 3)]}
    values = {"values": [[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]}
    lp, vp = tmp_path / "layout.json", tmp_path / "vals.json"
    lp.write_text(json.dumps(layout))
    vp.write_text(json.dumps(values))
    code, report, _ = run_cli(capsys, ["layered", "--layout", str(lp),
                                       "--values", str(vp), "--tail", "0.01"])
    assert code == 0 and report["pass"]


def test_hardy_outer_fixture(capsys):
    code, report, _ = run_cli(capsys, ["hardy", "outer", "--grid", "4096",
                                       "--fixture", "log-sin", "--emit-taylor"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["boundary_modulus_deviation"]["pass"] is True
    assert checks["clamp_count"]["value"] == 0
    head = report["taylor_head"]
    assert abs(head[0][0] - 1.0) < 1e-2 and abs(head[1][0] + 1.0) < 1e-2


def test_hardy_input_from_grid_file(tmp_path, capsys):
    # the binary grid format: a little-endian uint64 count, then re, im float64 pairs
    path = tmp_path / "f.bin"
    path.write_bytes(struct.pack("<Q", 4096) + struct.pack("<8192d", *[1.0, 0.0] * 4096))
    # the file sets N, so --grid is not given
    code, report, _ = run_cli(capsys, ["hardy", "project", "--input", str(path), "--inner", "z"])
    assert code == 0
    assert report["parameters"]["grid"] == 4096
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["distance"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_hardy_project_blaschke(capsys):
    code, report, _ = run_cli(capsys, ["hardy", "project", "--grid", "4096",
                                       "--inner", "blaschke:0.5"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["distance"]["value"] == pytest.approx(np.sqrt(0.75), abs=1e-8)
    assert checks["strict_subspace"]["value"] is True


@pytest.mark.parametrize("value, error", [(1.0, "InvalidInput"), (0.5, "NotInner")])
def test_hardy_project_checks_b_before_its_grid(tmp_path, capsys, value, error):
    # an 8-sample constant b on a 64-point input: an inner b meets the grid
    # refusal, while one that is not inner is refused as such first
    path = tmp_path / "b.json"
    path.write_text(json.dumps([[value, 0.0]] * 8))
    code, report, err = run_cli(capsys, ["hardy", "project", "--grid", "64",
                                         "--inner", str(path)])
    assert code == 2 and report is None
    refusal = json.loads(err)
    assert refusal["error"] == error
    assert ("share a grid" in refusal["message"]) == (error == "InvalidInput")


def test_hardy_factor_small_grid_gates(capsys):
    # at a coarse truncation the pipeline identities hold but the decay
    # targets are out of reach; the report must say so and fail the run
    code, report, _ = run_cli(capsys, ["hardy", "factor", "--grid", "4096",
                                       "--shells", "64"])
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["g_matches_reciprocal_weight"]["pass"] is True
    assert checks["h_norm_sq_vs_majorant"]["pass"] is True
    assert checks["log_integral_vs_bound"]["pass"] is True
    assert code == (0 if report["pass"] else 1)


def test_hardy_project_coordinate_fixed_point(capsys):
    # z already lies in z*H2, so the projection is the identity there
    code, report, _ = run_cli(capsys, ["hardy", "project", "--grid", "4096",
                                       "--input", "z", "--inner", "z"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["distance"]["value"] <= 1e-12
    assert checks["strict_subspace"]["value"] is False


def test_olympiad_single_window(capsys):
    code, report, _ = run_cli(capsys, ["olympiad", "--geometric", "0.5",
                                       "--terms", "200", "--m", "1", "--n", "200"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["weighted_sum"]["value"] == pytest.approx(
        2.0**-1.5 / (1.0 - 2.0**-0.5), rel=1e-12
    )
    assert checks["weighted_sum"]["pass"] is True


def test_olympiad_refuses_zero_suffix_without_tail(tmp_path, capsys):
    # the last term is zero, so r_{N-1} = 0 and the window ending at N has no
    # weight; a tail mass makes every suffix sum positive again
    path = tmp_path / "seq.json"
    path.write_text("[[1, 0], [0.5, 0], [0, 0]]")
    code = cli.main(["olympiad", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "Traceback" not in out.err
    assert json.loads(out.err) == {"error": "DegenerateTail",
                                   "message": "window touches a zero suffix sum"}
    code, report, _ = run_cli(capsys, ["olympiad", "--input", str(path), "--tail", "0.1"])
    assert code == 0 and report["pass"] is True


def test_ulim_principal_index(tmp_path, capsys):
    path = tmp_path / "seq.json"
    sequence_file(path, np.array([5.0, 7.0, 9.0], dtype=complex))
    code, report, _ = run_cli(capsys, ["ulim", "--input", str(path), "--index", "2",
                                       "--tol", "10.0"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["limit_at_2"]["value"] == 7.0


def test_transfer_small(capsys):
    code, report, _ = run_cli(capsys, ["transfer", "--grid", "4096", "--shells", "64",
                                       "--num-points", "50"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["transferred_identity_residual"]["pass"] is True
    assert checks["fixture_one_minus_z"]["pass"] is True


def test_report_determinism(capsys):
    argv = ["witness", "--random", "3,32", "--seed", "7"]
    _, rep1, _ = run_cli(capsys, argv)
    _, rep2, _ = run_cli(capsys, argv)
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_out_file_and_compact_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["olympiad", "--geometric", "0.25", "--terms", "32",
                     "--json", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("\n") == 1  # compact form plus trailing newline
    assert json.loads(text)["pass"] is True
    assert capsys.readouterr().out == ""


def test_usage_error_exit_code(capsys):
    # argparse's usage errors leave through the same one-line JSON error as input errors
    code = cli.main(["frobnicate"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    lines = out.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidInput"


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weights": [1.0], "r": [[[1, 0]]]}))
    code = cli.main(["witness", "--input", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["factor", "outer", "project"])
@pytest.mark.parametrize("defect", ["missing", "truncated"])
def test_hardy_bad_grid_file_is_input_error(tmp_path, capsys, action, defect):
    path = tmp_path / "f.json"
    if defect == "truncated":
        path.write_text('[[1.0, 0.0], [1.0, 0.')
    code = cli.main(["hardy", action, "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    lines = out.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidInput"


BAD_INPUT_FILES = {
    "malformed.json": "[[1.0, 0.0], [1.0",
    "no_im.csv": "index,re\n1,1.0\n2,0.5\n",
    "list.json": "[[1.0, 0.0], [2.0, 0.0]]",
    "no_values.json": '{"vals": [[1.0, 0.0]]}',
    "layout.json": json.dumps({"shells": [{"n": 1, "atoms": [{"id": 1, "weight": 1.0}]}]}),
    "seq.json": "[[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]",
    "huge.json": "[[1e200, 0.0], [1.0, 0.0]]",
    "huge_sum.json": "[[1.2e154, 0.0], [1.2e154, 0.0]]",
    "huge_grid.json": json.dumps([[1e200, 0.0]] * 8),
    "huge_pair.json": '{"f": [[1e308, 0.0], [1e308, 1e308]], "g": [[1e308, 0.0], [1e308, 0.0]]}',
    "huge_rel.json": '{"weights": [1.0], "r": [[[1e200, 0.0], [1.0, 0.0]]],'
                     ' "m": [[[1.0, 0.0], [-1e200, 0.0]]]}',
    "heavy_rel.json": '{"weights": [1e300], "r": [[[1.0, 0.0], [1.0, 0.0]]],'
                      ' "m": [[[1e10, 0.0], [-1e10, 0.0]]]}',
    "null_rel.json": '{"weights": [0.0], "r": [[[1.0, 0.0], [1.0, 0.0]]],'
                     ' "m": [[[1e200, 0.0], [-1e200, 0.0]]]}',
}

# refused with ScaleOverflow: exp of the log-modulus, summed over the grid, would overflow
SCALE_OVERFLOWS = [
    ["hardy", "outer", "--grid", "32768", "--fixture", "const:1e304"],
    ["hardy", "outer", "--grid", "65536", "--fixture", "const:5e303"],
    ["hardy", "outer", "--input", "huge_grid.json"],
]

BAD_INPUTS = [
    *([*flag, name] for flag in (["ulim", "--input"], ["olympiad", "--input"],
                                 ["transfer", "--points"])
      for name in ("missing.json", "malformed.json", "no_im.csv")),
    ["witness", "--input", "missing.json"],
    ["witness", "--input", "malformed.json"],
    ["bezout", "--input", "missing.json"],
    ["bezout", "--input", "malformed.json"],
    ["bezout", "--input", "list.json"],
    ["bezout", "--input", "huge_pair.json"],
    ["witness", "--input", "huge_rel.json"],
    ["witness", "--input", "heavy_rel.json"],
    ["witness", "--input", "null_rel.json"],
    ["layered", "--layout", "layout.json", "--values", "missing.json"],
    ["layered", "--layout", "layout.json", "--values", "no_values.json"],
    ["hardy", "outer", "--fixture", "const:abc"],
    ["hardy", "project", "--inner", "blaschke:x"],
    ["olympiad", "--out", "no_such_dir/report.json"],
    ["hardy", "factor", "--grid", "-4"],
    ["hardy", "outer", "--grid", "-8", "--fixture", "const:2"],
    ["witness", "--random", "2,-1"],
    ["bezout", "--atoms", "-3"],
    ["transfer", "--num-points", "-1"],
    ["transfer", "--num-points", "0"],
    ["olympiad", "--terms", "0"],
    ["bezout", "--atoms", "0"],
    *(["witness", "--random", pair] for pair in ("0,5", "3,0")),
    *(["layered", "--preset", preset, "--shells", "0"] for preset in ("l2", "lebesgue-r")),
    *(["layered", "--preset", "lebesgue-r", "--atoms-per-shell", count] for count in ("1", "3")),
    *([*cmd, "--shells", "0"] for cmd in (["hardy", "factor"], ["transfer"])),
    *([*cmd, "--grid", size] for cmd in (["hardy", "factor"], ["hardy", "project"], ["transfer"])
      for size in ("12", "2")),
    *([cmd, "--seed", "-1"] for cmd in ("witness", "bezout", "transfer", "suite")),
    ["hardy", "outer", "--fixture", "const:2", "--clamp", "-1"],
    ["hardy", "outer", "--fixture", "const:2", "--clamp", "0"],
    ["hardy", "outer", "--fixture", "const:2", "--clamp", "nan"],
    ["hardy", "outer", "--fixture", "const:0"],
    ["hardy", "outer", "--fixture", "const:-1"],
    ["olympiad", "--tol", "nan"],
    ["olympiad", "--m", "3"],
    ["olympiad", "--m", "0"],
    ["olympiad", "--n", "-1"],
    ["olympiad", "--m", "5", "--n", "3"],
    ["olympiad", "--m", "3", "--n", "300"],
    *(["ulim", "--input", "seq.json", "--index", index] for index in ("0", "99")),
    ["olympiad", "--input", "huge.json"],
    ["olympiad", "--input", "huge_sum.json"],
    ["transfer", "--points", "huge.json"],
    ["olympiad", "--input", "seq.json", "--tail", "nan"],
    ["olympiad", "--input", "seq.json", "--tail", "-1"],
    ["ulim", "--input", "seq.json", "--tol", "nan"],
    ["layered", "--preset", "l2", "--tol", "nan"],
    *(["ulim", "--input", "seq.json", "--tol", tol] for tol in ("0", "-1")),
    *(["layered", "--preset", "l2", "--mode", mode, "--tol", "-1"]
      for mode in ("compact", "general")),
    *(["ulim", "--input", "seq.json", "--tail-fraction", fraction]
      for fraction in ("0", "1", "1.5", "nan")),
    *([cmd, "--geometric", ratio] for cmd in ("olympiad", "layered")
      for ratio in ("0", "1", "-0.5", "nan")),
    ["hardy", "factor", "--input", "huge_grid.json"],
    ["hardy", "project", "--input", "huge_grid.json"],
    *SCALE_OVERFLOWS,
]


# a warning would be a second stderr line outside pytest, which captures it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: " ".join(argv).replace("/", ":"))
def test_bad_input_is_one_json_error_line(tmp_path, monkeypatch, capsys, argv):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "" and "Traceback" not in out.err
    lines = out.err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    if argv in SCALE_OVERFLOWS:
        # the largest usable factor, in log form since the factor itself may underflow to 0
        assert error["error"] == "ScaleOverflow" and "<= exp(-" in error["message"]
        return
    assert error["error"] == "InvalidInput"
    # an option rejected for its value is named in the message
    checked = {"--grid", "--atoms", "--num-points", "--random", "--seed", "--clamp", "--tol",
               "--tail", "--tail-fraction", "--geometric", "--index", "--m", "--n",
               "--shells", "--terms", "--atoms-per-shell"}
    assert all(tok in error["message"] for tok in argv if tok in checked)


IGNORED_OPTIONS = [
    *([cmd, "--seed", "3"] for cmd in ("olympiad", "layered")),
    ["ulim", "--input", "seq.json", "--seed", "3"],
    *(["hardy", action, "--seed", "3"] for action in ("factor", "outer", "project")),
    *(["hardy", action, "--clamp", "1e-6"] for action in ("factor", "project")),
    ["hardy", "factor", "--inner", "z"],
    ["hardy", "outer", "--shells", "64"],
    ["hardy", "project", "--fixture", "log-sin"],
    ["olympiad", "--tail", "0.5"],
    ["olympiad", "--tail", "nan"],
    ["layered", "--preset", "l2", "--tail", "0.5"],
    ["olympiad", "--input", "seq.json", "--geometric", "0.9"],
    ["olympiad", "--input", "seq.json", "--terms", "50"],
    ["layered", "--preset", "l2", "--layout", "layout.json"],
    ["layered", "--preset", "circle", "--values", "values.json"],
    ["layered", "--preset", "circle", "--geometric", "0.9"],
    ["layered", "--preset", "lebesgue-r", "--geometric", "0.9"],
    ["layered", "--preset", "l2", "--atoms-per-shell", "8"],
    *(["layered", "--layout", "layout.json", "--values", "values.json", option, "8"]
      for option in ("--shells", "--atoms-per-shell", "--geometric")),
    # 8 is no ratio, so the parser refuses it above; a ratio it accepts is still not read
    ["layered", "--layout", "layout.json", "--values", "values.json", "--geometric", "0.5"],
    ["witness", "--input", "rel.json", "--random", "2,8"],
    ["witness", "--input", "rel.json", "--seed", "3"],
    ["bezout", "--input", "pair.json", "--atoms", "10"],
    ["bezout", "--input", "pair.json", "--seed", "3"],
    ["transfer", "--points", "seq.json", "--num-points", "10"],
    ["transfer", "--points", "seq.json", "--seed", "3"],
    ["hardy", "outer", "--fixture", "log-sin", "--input", "grid.json"],
    *(["hardy", action, "--input", "grid.json", "--grid", "64"]
      for action in ("factor", "project", "outer")),
]

# valid inputs, so that a refusal is the ignored option's doing and not the file's
INPUT_FILES = {
    "seq.json": BAD_INPUT_FILES["seq.json"],
    "layout.json": BAD_INPUT_FILES["layout.json"],
    "values.json": '{"values": [[1.0, 0.0]]}',
    "rel.json": '{"weights": [1.0], "r": [[[1.0, 0.0]]], "m": [[[0.0, 0.0]]]}',
    "pair.json": '{"f": [[1.0, 0.0]], "g": [[0.0, 1.0]]}',
    "grid.json": "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]",
}


@pytest.mark.parametrize("argv", IGNORED_OPTIONS, ids=" ".join)
def test_ignored_option_is_refused(tmp_path, monkeypatch, capsys, argv):
    # an option the chosen pipeline would not read is a usage or input error
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "" and "Traceback" not in out.err
    assert argv[-2] in out.err


def test_emit_refuses_a_non_finite_report(capsys):
    # strict JSON carries no infinity, so the report is refused before any of it is written
    report = cli._report("ulim", {}, [acceptance.Check("sup_norm", float("inf"))])
    with pytest.raises(InvalidInput, match="the report holds a non-finite value"):
        cli._emit(report, argparse.Namespace(json=True, out=None), 0.0)
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("error")
def test_non_finite_report_is_input_error(tmp_path, capsys):
    # samples near the float limit make |f| + |g| overflow, so the run is
    # refused before a report could carry an infinity, which strict JSON cannot
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"f": [[1e308, 0.0], [1e308, 1e308]],
                                "g": [[1e308, 0.0], [1e308, 0.0]]}))
    code = cli.main(["bezout", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert json.loads(out.err.strip().splitlines()[-1])["error"] == "InvalidInput"


# gate of `hardy factor` -> the details key under which criterion 6 reports its value
CRITERION_6_VALUE_KEY = {
    "g_matches_reciprocal_weight": "gw_deviation",
    "h_norm_sq_vs_majorant": "h_norm_sq",
    "h_leakage": "h_leakage",
    "radial_ratio": "radial_ratio",
    "log_integral_vs_bound": "log_integral",
}


def test_hardy_factor_defaults_match_criterion_6(capsys):
    _, report, _ = run_cli(capsys, ["hardy", "factor"])
    c6 = acceptance.criterion_6()
    checks = {c["name"]: c for c in report["checks"]}
    shared = {name for name, c in checks.items() if c["pass"] is not None} & set(c6.checks)
    assert shared == set(CRITERION_6_VALUE_KEY)
    for name in shared:
        assert checks[name]["pass"] == c6.checks[name]
        assert checks[name]["value"] == c6.details[CRITERION_6_VALUE_KEY[name]]
    for valve in ("weight_floored", "clamp_count", "empty_shells"):
        assert checks[valve]["value"] == c6.details[valve]


@pytest.mark.parametrize("argv, criterion", [
    (["bezout"], acceptance.criterion_3),
    (["transfer"], acceptance.criterion_8),
    (["hardy", "project"], acceptance.criterion_7),
], ids=["bezout", "transfer", "hardy-project"])
def test_subcommand_gates_reappear_in_its_criterion(capsys, argv, criterion):
    _, report, _ = run_cli(capsys, argv)
    gates = {c["name"] for c in report["checks"] if c["pass"] is not None}
    assert gates and gates <= set(criterion().checks)


# ---------------------------------------------------------------------------
# generated command lines: whatever the options, the exit-code contract holds

ARGV_FILES = {
    **{name: text.encode() for name, text in INPUT_FILES.items()},
    "seq.csv": b"index,re,im\n1,1.0,0.0\n2,0.5,0.5\n",
    "zeros.json": b"[[0.0, 0.0], [0.0, 0.0]]",
    "huge.json": BAD_INPUT_FILES["huge.json"].encode(),
    "huge_grid.json": BAD_INPUT_FILES["huge_grid.json"].encode(),
    "malformed.json": BAD_INPUT_FILES["malformed.json"].encode(),
    "grid.bin": struct.pack("<Q", 4) + struct.pack("<8d", *[1.0, 0.0] * 4),
}
FILE = st.sampled_from([*ARGV_FILES, "missing.json"])
GARBAGE = st.sampled_from(["", "x", "1,2,3", "0x10", "1e999", "-", "[]"])
COUNT = st.integers(-2, 64).map(str) | GARBAGE
GRID = st.sampled_from(["4", "8", "64", "256", "0", "3", "100", "-8"])
REAL = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]) \
    | st.floats(-4.0, 4.0).map(repr) | GARBAGE
GRID_SPEC = st.sampled_from(["constant1", "z", "blaschke:0.5", "blaschke:1", "blaschke:x",
                             "grid.json", "grid.bin", "huge_grid.json", "missing.json"]) | GARBAGE
FLAG = st.just(None)
SUBCOMMANDS = {  # argv head -> (options always given, options maybe given)
    ("olympiad",): ({}, {"input": FILE, "geometric": REAL, "terms": COUNT, "tail": REAL,
                         "m": COUNT, "n": COUNT, "tol": REAL}),
    ("witness",): ({}, {"input": FILE, "seed": COUNT, "certificate": FLAG,
                        "random": st.tuples(COUNT, COUNT).map(",".join) | GARBAGE}),
    ("bezout",): ({}, {"input": FILE, "atoms": COUNT, "seed": COUNT, "strictness": FLAG}),
    ("ulim",): ({"input": FILE}, {"tol": REAL, "tail-fraction": REAL, "index": COUNT}),
    ("layered",): ({}, {"preset": st.sampled_from(["l2", "lebesgue-r", "circle"]) | GARBAGE,
                        "shells": COUNT, "atoms-per-shell": COUNT, "geometric": REAL,
                        "layout": FILE, "values": FILE, "tail": REAL, "tol": REAL,
                        "mode": st.sampled_from(["auto", "compact", "general"]) | GARBAGE}),
    ("hardy", "factor"): ({"grid": GRID}, {"shells": COUNT, "input": GRID_SPEC}),
    ("hardy", "outer"): ({"grid": GRID}, {"input": FILE, "clamp": REAL, "emit-taylor": FLAG,
                                          "fixture": st.sampled_from(["log-sin", "const:2",
                                                                      "const:0"]) | GARBAGE}),
    ("hardy", "project"): ({"grid": GRID}, {"input": GRID_SPEC, "inner": GRID_SPEC}),
    ("transfer",): ({"grid": GRID}, {"shells": COUNT, "points": FILE, "num-points": COUNT,
                                     "seed": COUNT}),
}


def _argv(head, options):
    return [*head, *(f"--{name}" if value is None else f"--{name}={value}"
                     for name, value in options.items())]


@pytest.mark.parametrize("head", sorted(SUBCOMMANDS), ids=" ".join)
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), compact=st.booleans())
def test_generated_argv_keeps_the_exit_code_contract(tmp_path, monkeypatch, capsys, head, data,
                                                     compact):
    always, maybe = SUBCOMMANDS[head]
    argv = _argv(head, data.draw(st.fixed_dictionaries(always, optional=maybe), label="options"))
    for name, blob in ARGV_FILES.items():
        (tmp_path / name).write_bytes(blob)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--json"] * compact)
    out = capsys.readouterr()
    assert code in (0, 1, 2)
    assert not caught and "Traceback" not in out.err and "Warning" not in out.err
    if code == 2:  # usage and input errors alike: no report, one JSON line naming the error
        assert out.out == ""
        lines = out.err.strip().splitlines()
        assert len(lines) == 1
        assert {"error", "message"} <= json.loads(lines[0]).keys()
    elif out.out:
        json.loads(out.out, parse_constant=_reject_constant)
