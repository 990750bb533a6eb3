import json

import numpy as np
import pytest

from flatwitness import acceptance, cli, ioformats


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


def test_olympiad_from_csv(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    ioformats.write_sequence(path, (np.arange(1, 200.0) ** -1.0).astype(complex))
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
    ioformats.write_sequence(path, ((-1.0) ** np.arange(1, 101)).astype(complex))
    code, report, _ = run_cli(capsys, ["ulim", "--input", str(path)])
    assert code == 0  # verdicts are not failures
    verdicts = {c["name"]: c["value"] for c in report["checks"]}
    assert verdicts["ideal_membership"] == "undecidable"
    assert verdicts["eventual_limit"] == "no verdict"


def test_ulim_decaying(tmp_path, capsys):
    path = tmp_path / "dec.json"
    ioformats.write_sequence(path, (2.0 ** -np.arange(1, 65.0)).astype(complex))
    code, report, _ = run_cli(capsys, ["ulim", "--input", str(path)])
    assert code == 0
    verdicts = {c["name"]: c["value"] for c in report["checks"]}
    assert verdicts["ideal_membership"] == "yes"


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
    from flatwitness.hardy_engine import constant_function

    path = tmp_path / "f.bin"
    ioformats.write_grid_function(path, constant_function(4096))
    code, report, _ = run_cli(capsys, ["hardy", "project", "--grid", "4096",
                                       "--input", str(path), "--inner", "z"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["distance"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_hardy_project_blaschke(capsys):
    code, report, _ = run_cli(capsys, ["hardy", "project", "--grid", "4096",
                                       "--inner", "blaschke:0.5"])
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["distance"]["value"] == pytest.approx(np.sqrt(0.75), abs=1e-8)
    assert checks["strict_subspace"]["value"] is True


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


def test_ulim_principal_index(tmp_path, capsys):
    path = tmp_path / "seq.json"
    ioformats.write_sequence(path, np.array([5.0, 7.0, 9.0], dtype=complex))
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


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
}

BAD_INPUTS = [
    *([*flag, name] for flag in (["ulim", "--input"], ["olympiad", "--input"],
                                 ["transfer", "--points"])
      for name in ("missing.json", "malformed.json", "no_im.csv")),
    ["witness", "--input", "missing.json"],
    ["witness", "--input", "malformed.json"],
    ["bezout", "--input", "missing.json"],
    ["bezout", "--input", "malformed.json"],
    ["bezout", "--input", "list.json"],
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
    *([cmd, "--seed", "-1"] for cmd in ("witness", "bezout", "transfer", "suite")),
    ["hardy", "outer", "--fixture", "const:2", "--clamp", "-1"],
    ["hardy", "outer", "--fixture", "const:2", "--clamp", "0"],
    ["hardy", "outer", "--fixture", "const:2", "--clamp", "nan"],
    ["hardy", "outer", "--fixture", "const:0"],
    ["hardy", "outer", "--fixture", "const:-1"],
    ["olympiad", "--tol", "nan"],
    ["ulim", "--input", "seq.json", "--tol", "nan"],
    ["layered", "--preset", "l2", "--tol", "nan"],
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
    assert error["error"] == "InvalidInput"
    # an option rejected for its value is named in the message
    checked = {"--grid", "--atoms", "--num-points", "--random", "--seed", "--clamp", "--tol"}
    assert all(tok in error["message"] for tok in argv if tok in checked)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_report_is_input_error(tmp_path, capsys):
    # samples near the float limit overflow to infinite residuals, which
    # strict JSON cannot carry, so the run is refused instead of emitted
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
