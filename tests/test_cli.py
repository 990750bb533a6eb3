import argparse
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatwitness import acceptance, cli, hardy_engine, ioformats
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


def test_layered_values_weights_equal_to_the_layouts_change_nothing(tmp_path, capsys):
    layout = {"shells": [{"n": n, "atoms": [{"id": 2 * n + i, "weight": w}
                                            for i, w in enumerate((0.5, 0.25))]}
                         for n in (1, 2)]}
    values = [[1.0, 0.0], [0.5, 0.5], [0.25, 0.0], [0.0, 0.125]]
    (tmp_path / "lay.json").write_text(json.dumps(layout))
    reports = []
    for name, obj in (("bare.json", {"values": values}),
                      ("weighted.json", {"values": values, "weights": [0.5, 0.25] * 2})):
        (tmp_path / name).write_text(json.dumps(obj))
        code, report, _ = run_cli(capsys, ["layered", "--layout", str(tmp_path / "lay.json"),
                                           "--values", str(tmp_path / name)])
        assert code == 0
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("error")
def test_ulim_overflowing_tail_spread_is_no_verdict(tmp_path, capsys):
    # the tail's mean is finite, its distance to the entries overflows
    path = tmp_path / "wide.json"
    path.write_text(json.dumps([[1.7e308, 0.0], [-1.7e308, 0.0], [1.7e308, 0.0]] * 4))
    code, report, err = run_cli(capsys, ["ulim", "--input", str(path)])
    assert code == 0 and err == ""
    verdicts = {c["name"]: c["value"] for c in report["checks"]}
    assert verdicts["eventual_limit"] == "no verdict"
    assert verdicts["ideal_membership"] == "undecidable"


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value, error", [(1.0, "InvalidInput"), (0.5, "NotInner"),
                                          (1e200, "NotInner")])
def test_hardy_project_checks_b_before_its_grid(tmp_path, capsys, value, error):
    # an 8-sample constant b on a 64-point input: an inner b meets the grid
    # refusal, while one that is not inner is refused as such first, a b whose
    # squares overflow float64 among them, without a warning
    path = tmp_path / "b.json"
    path.write_text(json.dumps([[value, 0.0]] * 8))
    code, report, err = run_cli(capsys, ["hardy", "project", "--grid", "64",
                                         "--inner", str(path)])
    assert code == 2 and report is None
    refusal = json.loads(err)
    assert refusal["error"] == error
    assert ("share a grid" in refusal["message"]) == (error == "InvalidInput")


@pytest.mark.filterwarnings("error")
def test_hardy_factor_rescales_a_grid_file_whose_squares_overflow(tmp_path, monkeypatch, capsys):
    # hardy_factor sizes the grid by one scaled sum of squares, so the file is factored
    # at its norm 1e200 and the run exits by its gates, with no warning
    (tmp_path / "huge_grid.json").write_text(BAD_INPUT_FILES["huge_grid.json"])
    monkeypatch.chdir(tmp_path)
    code, report, err = run_cli(capsys, ["hardy", "factor", "--input", "huge_grid.json"])
    assert err == "" and code == (0 if report["pass"] else 1)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["input_rescale"]["value"] == pytest.approx(1e200, rel=1e-15)


def _logmod_file(path):
    """The CI fixture logmod.json: 0.5 cos(t) + 0.25 sin(2t) at 4096 midpoint angles."""
    t = 2.0 * np.pi * (np.arange(4096) + 0.5) / 4096
    path.write_text(json.dumps([[v, 0.0] for v in 0.5 * np.cos(t) + 0.25 * np.sin(2.0 * t)]))
    return str(path)


@pytest.mark.parametrize("run, calls", [
    (lambda tmp: cli.main(["hardy", "outer", "--fixture", "const:2.5"]), 1),
    (lambda tmp: hardy_engine.hardy_factor(hardy_engine.constant_function(4096), 64), 1),
    (lambda tmp: cli.main(["hardy", "outer", "--input", _logmod_file(tmp / "logmod.json")]), 0),
    (lambda tmp: acceptance.outer_checks(acceptance.outer_fixture("log-sin", 2**14), 1e-12), 0),
], ids=["const:2.5", "hardy_factor", "logmod.json", "log-sin"])
def test_each_outer_input_takes_its_documented_path(tmp_path, monkeypatch, capsys, run, calls):
    """A mirrored log-modulus (the constant fixture, -log w of hardy_factor) takes the
    half-length synthesis, ``_mirrored_transform``, once; logmod.json, not mirrored,
    takes the full-length one.  So does criterion 5's log-sin fixture, which is
    mirrored only to one rounding of the angles of ``grid_thetas``: building the
    second half of the angles as the first half's negation ("One exact mirror for
    the grid" in ROADMAP.md) would send it down the half-length path, and its case
    here would flip to 1."""
    seen = []
    real = hardy_engine._mirrored_transform
    monkeypatch.setattr(hardy_engine, "_mirrored_transform",
                        lambda *args: seen.append(args[0].size) or real(*args))
    run(tmp_path)
    capsys.readouterr()
    assert len(seen) == calls


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


@pytest.mark.parametrize("tol", [["--tol", "-1"], ["--tol", "0"], []],
                         ids=["tol-1", "tol0", "default"])
def test_olympiad_single_window_tol_judges_it(capsys, tol):
    # the reported tol is the threshold rhs + tol that the verdict compares against
    code, report, _ = run_cli(capsys, ["olympiad", "--terms", "2", "--m", "1", "--n", "2", *tol])
    check = {c["name"]: c for c in report["checks"]}["weighted_sum"]
    assert (check["value"] <= check["tol"]) is check["pass"] is report["pass"]
    assert code == (0 if check["pass"] else 1) and check["pass"] is (tol != ["--tol", "-1"])


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


@pytest.mark.parametrize("rows", ["1,1,0\n3,0.5,0\n", "1,1,0\n1,0.5,0\n3,0.25,0\n",
                                  "0,1,0\n1,0.5,0\n2,0.25,0\n"],
                         ids=["gap", "duplicate", "zero-based"])
def test_ulim_refuses_csv_indices_other_than_one_to_n(tmp_path, capsys, rows):
    # read as 1..N, the row of index 3 would be reported as the limit at 2
    path = tmp_path / "seq.csv"
    path.write_text("index,re,im\n" + rows)
    code = cli.main(["ulim", "--input", str(path), "--index", "2"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "Traceback" not in out.err
    error = json.loads(out.err)
    assert error["error"] == "InvalidInput" and str(path) in error["message"]


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


def test_unwritable_out_file_is_one_json_error_line(tmp_path, monkeypatch, capsys):
    # the parser admits the path; the write itself fails (a full disk, say), which is
    # simulated, since file permissions do not stop a test run as root
    def refuse(self, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", refuse)
    code = cli.main(["olympiad", "--terms", "8", "--out", str(tmp_path / "report.json")])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    [line] = out.err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "InvalidInput"
    assert error["message"].startswith("cannot write the report to ")


def test_failure_line_shows_a_value_that_is_not_a_number():
    check = acceptance.Check("decaying_in_ideal", "no", "yes", False)
    assert cli._failure(check) == "decaying_in_ideal no (tol yes)"


# counts numpy cannot hold: each once ended in a ValueError traceback from numpy's size
# limits, or in a MemoryError; the parser refuses them before anything is allocated
OVERSIZED = [
    ["hardy", "factor", "--grid", "4611686018427387904"],
    ["hardy", "factor", "--shells", "100000000000000000000"],
    ["bezout", "--atoms", "100000000000000000000"],
    ["bezout", "--atoms", "100000000000"],
    ["transfer", "--num-points", "100000000000000000000"],
    ["transfer", "--num-points", "1000000000"],
    ["witness", "--random", "100000000000000000000,2"],
    # each count within the ceiling, their product past it
    ["witness", "--random", "65536,16384"],
    ["layered", "--preset", "circle", "--shells", "65536", "--atoms-per-shell", "16384"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", OVERSIZED, ids=" ".join)
def test_counts_past_the_ceiling_are_refused(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "Traceback" not in out.err
    [line] = out.err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "InvalidInput" and str(cli._MAX_COUNT) in error["message"]


def test_memory_error_is_one_json_error_line(monkeypatch, capsys):
    class ArrayMemoryError(MemoryError):  # numpy raises a subclass of its own
        pass

    def exhausted(*args):
        raise ArrayMemoryError("Unable to allocate 4.47 GiB for an array")

    monkeypatch.setattr(acceptance, "bezout_checks", exhausted)
    code = cli.main(["bezout", "--atoms", "8"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "Traceback" not in out.err
    [line] = out.err.strip().splitlines()
    assert json.loads(line) == {"error": "MemoryError",
                                "message": "Unable to allocate 4.47 GiB for an array"}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_shell_count_at_the_ceiling_is_a_refused_allocation():
    # the parser accepts 2^29 shells, whose layout does not fit in the child's 3 GiB of
    # address space; the refused allocation is one JSON error line.  Without the cap a
    # host that overcommits may kill the process instead, so it never runs uncapped
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "flatwitness.cli", "hardy", "factor", "--grid",
                           "8", "--shells", str(cli._MAX_COUNT), "--json"],
                          capture_output=True, text=True, env=env,
                          preexec_fn=cap_address_space, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    [line] = done.stderr.strip().splitlines()
    assert json.loads(line)["error"] == "MemoryError"


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
    "huge_entry.json": json.dumps([[1.7e308, 1.7e308]] * 4),
    "huge_tail.json": json.dumps([[1.7e308, 0.0]] * 8),
    "huge_values.json": "[[1e200, 0.0]]",
    "heavy_values.json": '{"values": [[1.0, 0.0]], "weights": [3.0]}',
    "huge_pair.json": '{"f": [[1e308, 0.0], [1e308, 1e308]], "g": [[1e308, 0.0], [1e308, 0.0]]}',
    "huge_weight.json": '{"f": [[1, 0]], "g": [[1, 0]], "weights": [1' + "0" * 400 + ']}',
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
    ["bezout", "--input", "huge_weight.json"],
    ["witness", "--input", "huge_rel.json"],
    ["witness", "--input", "heavy_rel.json"],
    ["witness", "--input", "null_rel.json"],
    ["layered", "--layout", "layout.json", "--values", "missing.json"],
    ["layered", "--layout", "layout.json", "--values", "no_values.json"],
    ["layered", "--layout", "layout.json", "--values", "huge_values.json"],
    ["layered", "--layout", "layout.json", "--values", "heavy_values.json"],
    ["ulim", "--input", "huge_entry.json"],
    ["ulim", "--input", "huge_tail.json"],
    ["hardy", "outer", "--fixture", "const:abc"],
    ["hardy", "project", "--inner", "blaschke:x"],
    ["hardy", "project", "--inner", "blaschke:inf"],
    ["hardy", "factor", "--input", "blaschke:nan"],
    ["hardy", "project", "--input", "blaschke:-inf"],
    ["hardy", "factor", "--input", "blaschke:-1.7e308"],
    ["hardy", "project", "--inner", "blaschke:-1.7e308"],
    ["hardy", "factor", "--input", "blaschke:2"],
    ["olympiad", "--out", "no_such_dir/report.json"],
    ["suite", "--out", "no_such_dir/report.json"],
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
               "--shells", "--terms", "--atoms-per-shell", "--out"}
    assert all(tok in error["message"] for tok in argv if tok in checked)
    # and so is a built-in grid function refused for its parameter
    assert all(tok in error["message"] for tok in argv if tok.startswith("blaschke:"))


@pytest.mark.parametrize("text, message", [
    ('{"f": [[1, 0]]}', "bezout input must be an object with keys f and g: 'g'"),
    ("[[1.0, 0.0]]", "bezout input must be an object with keys f and g, not a list"),
    (BAD_INPUT_FILES["huge_weight.json"],
     "bezout input field weights: int too large to convert to float"),
    ('{"f": [[1, 0]], "g": [[1, 0]], "weights": ["ab"]}',
     "bezout input field weights: could not convert string to float"),
    ('{"f": [[1, 0, 3]], "g": [[1, 0]]}',
     "bezout input field f: complex entry must be a [re, im] pair"),
    ('{"f": [[1, 0]], "g": 5}', "bezout input field g: not a list of complex entries"),
], ids=["missing_g", "list", "huge_weight", "text_weight", "triple_f", "scalar_g"])
def test_bezout_input_refusal_names_its_field(tmp_path, capsys, text, message):
    # only a missing key is reported as one; any other refusal names the field at fault
    path = tmp_path / "pair.json"
    path.write_text(text)
    code = cli.main(["bezout", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    [line] = out.err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "InvalidInput" and error["message"].startswith(message)


# each file holds one number written as a JSON string or boolean, and reads as valid
# input once it is written as the number: a boolean as the 1 or 0 it would have read as
NON_NUMBERS = {
    '"0.5"': ("0.5", "'0.5' (numbers are not quoted)"),
    "true": ("1", "true (true and false are not numbers)"),
    "false": ("0", "false (true and false are not numbers)"),
}
LAYERED = ["layered", "--layout", "layout.json", "--values", "values.json"]
QUOTED_NUMBERS = {
    "witness": (["witness", "--input", "rel.json"],
                '{"weights": ["0.5"], "r": [[[1.0, 0.0]]], "m": [[[0.0, 0.0]]]}'),
    "bezout": (["bezout", "--input", "pair.json"],
               '{"f": [[1.0, 0.0]], "g": [[0.0, 1.0]], "weights": ["0.5"]}'),
    "layered": (LAYERED, '{"values": ["0.5"]}'),
    "sequence": (["olympiad", "--input", "seq.json"], '[[1.0, 0.0], "0.5", [0.25, 0.0]]'),
    "witness_weights_bool": (["witness", "--input", "rel.json"],
                             '{"weights": [true], "r": [[[1.0, 0.0]]], "m": [[[0.0, 0.0]]]}'),
    "witness_r_bool": (["witness", "--input", "rel.json"],
                       '{"weights": [0.5], "r": [[[true, 0.0]]], "m": [[[0.0, 0.0]]]}'),
    "witness_m_bool": (["witness", "--input", "rel.json"],
                       '{"weights": [0.5], "r": [[[1.0, 0.0]]], "m": [[[0.0, false]]]}'),
    "bezout_f_bool": (["bezout", "--input", "pair.json"], '{"f": [[1.0, false]], "g": [[0.0, 1.0]]}'),
    "bezout_g_bool": (["bezout", "--input", "pair.json"], '{"f": [[1.0, 0.0]], "g": [true]}'),
    "bezout_weights_bool": (["bezout", "--input", "pair.json"],
                            '{"f": [[1.0, 0.0]], "g": [[0.0, 1.0]], "weights": [true]}'),
    "layered_values_bool": (LAYERED, '{"values": [[true, 0.0]]}'),
    "layered_weights_bool": (LAYERED, '{"values": [[0.5, 0.0]], "weights": [true]}'),
    "layout_weight_bool": (["layered", "--values", "values.json", "--layout", "layout.json"],
                           '{"shells": [{"n": 1, "atoms": [{"id": 1, "weight": true}]}]}'),
    "sequence_bool": (["olympiad", "--input", "seq.json"], '[[1.0, 0.0], [true, 0.0], [0.25, 0.0]]'),
    "grid_bool": (["hardy", "outer", "--input", "grid.json"],
                  '[[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [true, 0.0]]'),
    "points_bool": (["transfer", "--points", "pts.json"], '[[0.5, 0.0], [1.0, true]]'),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", QUOTED_NUMBERS)
def test_quoted_number_is_one_json_error_line(tmp_path, monkeypatch, capsys, case):
    argv, text = QUOTED_NUMBERS[case]
    [bad] = [literal for literal in NON_NUMBERS if literal in text]
    number, message = NON_NUMBERS[bad]
    (tmp_path / "layout.json").write_text(BAD_INPUT_FILES["layout.json"])
    (tmp_path / "values.json").write_text("[[0.5, 0.0]]")
    path = tmp_path / argv[-1]
    monkeypatch.chdir(tmp_path)
    path.write_text(text)
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "Traceback" not in out.err
    [line] = out.err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "InvalidInput" and message in error["message"]
    path.write_text(text.replace(bad, number))
    assert cli.main(argv) in (0, 1)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_is_one_json_error_line(unbuffered):
    # a report that cannot be written is an input error, as an unwritable --out is,
    # and the text left in stdout's buffer does not fail again at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "flatwitness.cli", "olympiad", "--geometric",
                               "0.5", "--terms", "200"], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    [line] = done.stderr.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "InvalidInput"
    assert error["message"].startswith("cannot write the report to stdout")


# the timing fields, masked as the CI workflow masks them
_TIMING = re.compile(rb'"(wall_time_s|elapsed_s)": [-0-9.eE+]+')


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "20250811"],
    ["suite", "--seed", "4099"],
    ["hardy", "factor", "--grid", "262144", "--shells", "1024", "--input", "constant1"],
], ids=" ".join)
def test_reports_do_not_depend_on_the_blas_thread_count(argv):
    # no reported value is summed by a threaded BLAS call, so one BLAS thread and
    # four give the same bytes, timing aside; both runs go at once
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen([sys.executable, "-m", "flatwitness.cli", *argv, "--json"],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env))
    reports = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode in (0, 1), err.decode()  # 1: criterion 6's standing failures
        reports.append(_TIMING.sub(rb'"\1": null', out))
    assert reports[0] == reports[1]


# a source line that may reach BLAS: the matrix product operator and the dot-product family
_BLAS_CALL = re.compile(r" @ |\.dot\(|np\.dot|matmul|vecdot|np\.inner|tensordot|np\.linalg\.")


def test_blas_is_reached_from_one_place():
    # eval_series's powers @ block is the one BLAS product (README, "Threads");
    # pointwise_witness's row norms are a reduction along an axis, not a dot product.
    # A new line here needs its reason there, and the test above at 1 and 4 threads
    src = Path(cli.__file__).resolve().parent
    found = sorted((path.relative_to(src).as_posix(), line.strip())
                   for path in src.rglob("*.py")
                   for line in path.read_text().splitlines() if _BLAS_CALL.search(line))
    assert found == [
        ("hardy_engine.py", "acc = acc * z_b + powers @ block"),
        ("hardy_engine.py", "acc = powers @ blocks[-1]"),
        ("pointwise_witness.py",
         "r_norms, m_norms = np.linalg.norm(r, axis=1), np.linalg.norm(m, axis=1)"),
    ]


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
    # a grid file is refused --grid before it is read, so a missing one is too
    *(["hardy", action, "--input", name, "--grid", "64"]
      for action in ("factor", "project", "outer") for name in ("grid.json", "missing.json")),
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


def test_hardy_factor_defaults_match_criterion_6(capsys):
    # criterion 6 runs `hardy factor`'s pipeline at its defaults and reports every
    # record of it, gates and safety valves alike, with the same value and tol
    _, report, _ = run_cli(capsys, ["hardy", "factor"])
    c6 = acceptance.criterion_6()
    checks = {c["name"]: c for c in report["checks"]}
    shared = {name for name, c in checks.items() if c["pass"] is not None} & set(c6.checks)
    assert shared == {"g_matches_reciprocal_weight", "h_norm_sq_vs_majorant", "h_leakage",
                      "radial_ratio", "log_integral_vs_bound"}
    records = {c["name"]: c for c in ioformats.jsonable(cli._rows(c6.records))}
    for name in checks:
        assert records[name] == checks[name]


@pytest.mark.parametrize("argv, criterion", [
    (["bezout"], acceptance.criterion_3),
    (["transfer"], acceptance.criterion_8),
    (["hardy", "project"], acceptance.criterion_7),
], ids=["bezout", "transfer", "hardy-project"])
def test_subcommand_gates_reappear_in_its_criterion(capsys, argv, criterion):
    _, report, _ = run_cli(capsys, argv)
    gates = {c["name"] for c in report["checks"] if c["pass"] is not None}
    assert gates and gates <= set(criterion().checks)


def untoleranced_gates(rows):
    """Gated rows, the suite's nested records included, that carry no tol and are no bool."""
    for row in rows:
        if isinstance(row["value"], dict) and "records" in row["value"]:
            yield from untoleranced_gates(row["value"]["records"])
        elif row["pass"] is not None and row["tol"] is None and not isinstance(row["value"], bool):
            yield row["name"]


# each criterion's gates and verdicts, in order; criterion 6 fails two standing gates
SUITE_GATES = [
    {"bound_holds_all_windows": True},
    dict.fromkeys(["coeff_residual", "reconstruction_residual", "rho_bound", "mu_norm_bound"],
                  True),
    dict.fromkeys(["f_eq_Fd", "g_eq_Gd", "d_membership", "F_bound", "cf_unimodular"], True),
    dict.fromkeys(["factorization_residual", "star_bound_lhs_vs_rhs", "g_shell_nonincreasing",
                   "g_matches_closed_form", "h_norm_matches_closed_form",
                   "compact_weights_exact"], True),
    dict.fromkeys(["boundary_modulus_deviation", "constant_reproduced",
                   "one_minus_z_coefficients", "constant_leakage"], True),
    {"g_matches_reciprocal_weight": True, "h_norm_sq_vs_majorant": True, "h_leakage": False,
     "radial_ratio": False, "log_integral_vs_bound": True,
     "radial_strictly_decreasing_from_4": True},
    dict.fromkeys(["inner_boundary_deviation", "idempotence_residual",
                   "distance_to_shifted_space", "blaschke_distances", "self_adjoint"], True),
    dict.fromkeys(["transferred_identity_residual", "fixture_one_minus_z", "round_trip"], True),
    dict.fromkeys(["principal_limits_exact", "decaying_in_ideal", "alternating_undecidable"],
                  True),
]


@pytest.mark.parametrize("seed", ["20250811", "4099"])
def test_suite_reports_every_gate_with_its_tol(capsys, seed):
    code, report, err = run_cli(capsys, ["suite", "--seed", seed, "--json"])
    assert code == 1 and list(untoleranced_gates(report["checks"])) == []
    assert [list(c["value"]) for c in report["checks"]] == [["checks", "records", "elapsed_s"]] * 9
    assert [list(c["value"]["checks"].items()) for c in report["checks"]] == \
        [list(gates.items()) for gates in SUITE_GATES]
    for c in report["checks"]:
        records = c["value"]["records"]
        assert c["value"]["checks"] == {r["name"]: r["pass"] for r in records
                                        if r["pass"] is not None}
    # a failing criterion's line gives each failing gate with its value and tol
    failing = [ln for ln in err.splitlines() if ln.startswith("  failing checks:")]
    assert failing == ["  failing checks: h_leakage 6.29e-04 > 1e-06, radial_ratio 2.53e-01 > 0.1"]
    assert "Warning" not in err and "Traceback" not in err


def test_untoleranced_gates_finds_a_gate_without_tol():
    rows = cli._rows([acceptance.Check("bool_gate", True, None, True),
                      acceptance.Check("number_gate", 0.5, None, True),
                      acceptance.Check("informational", 0.5)])
    suite = cli._rows([acceptance.Check("criterion", {"records": rows}, None, True)])
    assert list(untoleranced_gates(suite)) == ["number_gate"]


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
