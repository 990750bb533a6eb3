import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatwitness import ioformats
from flatwitness.errors import InvalidInput
from flatwitness.layered_factor import LayeredSpace
from flatwitness.pointwise_witness import (
    WitnessCertificate,
    pointwise_relation,
    synthesize_witness,
)


def test_sequence_json_round_trip(tmp_path):
    # a JSON array of [re, im] pairs
    path = tmp_path / "seq.json"
    path.write_text("[[1.0, 2.0], [-0.5, 0.0], [0.0, 0.25]]")
    assert np.array_equal(ioformats.read_sequence(path), [1.0 + 2.0j, -0.5, 0.25j])


def test_sequence_csv_round_trip(tmp_path):
    # index,re,im rows, put in index order whatever their order in the file
    path = tmp_path / "seq.csv"
    path.write_text("index,re,im\n2,3.0,0.0\n1,0.125,0.5\n3,-1.0,-1.0\n")
    assert np.array_equal(ioformats.read_sequence(path), [0.125 + 0.5j, 3.0, -1.0 - 1.0j])


@pytest.mark.parametrize("rows", [
    "1,1.0,0.0\n3,0.5,0.0\n",             # a gap: no index 2
    "1,1.0,0.0\n2,0.5,0.0\n2,0.25,0.0\n",  # a duplicate index 2
    "0,1.0,0.0\n1,0.5,0.0\n",             # 0-based
], ids=["gap", "duplicate", "zero-based"])
def test_sequence_csv_indices_must_be_one_to_n(tmp_path, rows):
    # a gap or a duplicate would shift every later term to another index
    path = tmp_path / "seq.csv"
    path.write_text("index,re,im\n" + rows)
    with pytest.raises(InvalidInput, match=f"sequence file {path}: the indices must be 1..N"):
        ioformats.read_sequence(path)


def test_complex_array_accepts_pairs_and_scalars():
    arr = ioformats.complex_array([[1.0, -1.0], 2.0, [0, 3]])
    assert np.array_equal(arr, np.array([1 - 1j, 2, 3j]))
    with pytest.raises(InvalidInput):
        ioformats.complex_array([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("read, entries", [
    (ioformats.complex_array, ["1+2j", " 3 "]),
    (ioformats.complex_array, [[1.0, 0.0], "0.5"]),
    (ioformats.complex_array, [["1", 0.0]]),
    (ioformats.real_array, ["1.5"]),
    (ioformats.real_array, [1.0, "2"]),
    (ioformats.real_array, [[1.0], ["2"]]),
    (ioformats.complex_array, [True]),
    (ioformats.complex_array, [[1.0, 0.0], [0.5, False]]),
    (ioformats.real_array, [True, 0.5]),
    (ioformats.real_array, [[1.0], [False]]),
])
def test_array_readers_refuse_quoted_numbers(read, entries):
    # complex() and numpy would parse the text, and read true and false as 1 and 0;
    # the file formats take JSON numbers only
    with pytest.raises(InvalidInput, match="could not convert (string|boolean) to float"):
        read(entries)


def test_relation_reads_its_weights_as_a_real_array():
    obj = {"weights": ["1.0"], "r": [[[1.0, 0.0]]], "m": [[[0.0, 0.0]]]}
    with pytest.raises(InvalidInput, match="^malformed relation object: could not convert"):
        ioformats.relation_from_obj(obj)
    with pytest.raises(InvalidInput, match="^malformed relation object: 'weights'"):
        ioformats.relation_from_obj({"r": obj["r"], "m": obj["m"]})
    obj["weights"] = [1.0]
    assert np.array_equal(ioformats.relation_from_obj(obj).point_weights, [1.0])


def test_relation_round_trip():
    # weights, then r and m as one list of [re, im] pairs per point
    text = ('{"weights": [1.0, 0.5], "r": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],'
            ' "m": [[[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}')
    rel = ioformats.relation_from_obj(json.loads(text))
    assert np.array_equal(rel.point_weights, [1.0, 0.5])
    assert np.array_equal(rel.r_rows, [[1.0, 1.0], [0.0, 1.0j]])
    assert np.array_equal(rel.m_rows, [[1.0, -1.0], [0.0, 0.0]])


def test_certificate_serialization_shape():
    # the certificate as `witness --certificate` reports it
    for cert in (
        synthesize_witness(pointwise_relation([1.0], [[1.0, 1.0]], [[1.0, -1.0]])),
        # a rho that is not symmetric, so rows and columns cannot be confused
        WitnessCertificate(np.array([[[1.0, 2.0j], [3.0, 4.0 - 1.0j]]]), np.array([[0.5, -1.0j]])),
    ):
        obj = json.loads(json.dumps(ioformats.jsonable({"k": cert.k, "rho": cert.rho,
                                                        "mu": cert.mu})))
        assert obj["k"] == 2
        assert len(obj["rho"]) == 1 and len(obj["rho"][0]) == 2
        assert len(obj["mu"][0]) == 2
        # rho[p][i][j] and mu[p][j], each entry an [re, im] pair
        for p, i, j in np.ndindex(cert.rho.shape):
            assert complex(*obj["rho"][p][i][j]) == cert.rho[p, i, j]
            assert complex(*obj["mu"][p][j]) == cert.mu[p, j]


def test_layered_space_parse():
    obj = {"shells": [
        {"n": 2, "atoms": [{"id": "b", "weight": 2.0}]},
        {"n": 1, "atoms": [{"id": "a", "weight": 1.0}, {"id": "a2", "weight": 0.5}]},
    ]}
    space = ioformats.layered_space_from_obj(obj)
    assert space.n_shells == 2
    assert np.array_equal(space.flat_weights, [1.0, 0.5, 2.0])
    with pytest.raises(InvalidInput):
        ioformats.layered_space_from_obj({"shells": [{"n": 1}]})
    with pytest.raises(InvalidInput):  # shell numbers must run 1..N
        ioformats.layered_space_from_obj({"shells": [
            {"n": 1, "atoms": [{"id": 1, "weight": 1.0}]},
            {"n": 3, "atoms": [{"id": 2, "weight": 1.0}]}]})
    with pytest.raises(InvalidInput):  # every atom needs an id, though none is kept
        ioformats.layered_space_from_obj({"shells": [{"n": 1, "atoms": [{"weight": 1.0}]}]})


@pytest.mark.parametrize("field, value, message", [
    ("n", "1", "shell number n must be an integer, not '1'"),
    ("n", 2.7, "shell number n must be an integer, not 2.7"),
    ("n", 1.0, "shell number n must be an integer, not 1.0"),
    ("n", True, "shell number n must be an integer, not True"),
    ("n", None, "shell number n must be an integer, not None"),
    ("weight", "0.5", "could not convert string to float: '0.5'"),
])
def test_layered_space_refuses_text_and_non_integral_shell_numbers(field, value, message):
    # int() would truncate 2.7 and parse "1", float() would parse "0.5"
    shell = {"n": 1, "atoms": [{"id": 1, "weight": 0.5}]}
    if field == "n":
        shell["n"] = value
    else:
        shell["atoms"][0]["weight"] = value
    with pytest.raises(InvalidInput, match="^malformed layered space: " + re.escape(message)):
        ioformats.layered_space_from_obj({"shells": [shell]})


def test_grid_function_binary_round_trip(tmp_path):
    # a little-endian uint64 sample count, then re, im as little-endian float64 per sample
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    path = tmp_path / "grid.bin"
    interleaved = np.column_stack([samples.real, samples.imag]).ravel()
    path.write_bytes(struct.pack("<Q", 64) + struct.pack("<128d", *interleaved))
    assert path.stat().st_size == 8 + 16 * 64
    assert np.array_equal(ioformats.read_grid_function(path).samples, samples)


def test_grid_function_json_round_trip(tmp_path):
    # a JSON array of [re, im] pairs, read without rounding
    samples = np.exp(1j * np.linspace(0, 1, 16))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([[v.real, v.imag] for v in samples]))
    assert np.array_equal(ioformats.read_grid_function(path).samples, samples)


def test_grid_function_binary_length_check(tmp_path):
    path = tmp_path / "grid.bin"
    path.write_bytes(b"\x10\x00\x00\x00\x00\x00\x00\x00" + b"\x00" * 10)
    with pytest.raises(InvalidInput):
        ioformats.read_grid_function(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_function_binary_non_finite_is_refused_quietly(tmp_path, bad):
    # the samples are read as complex numbers, so no arithmetic on them can warn first
    path = tmp_path / "grid.bin"
    path.write_bytes(struct.pack("<Q", 4) + struct.pack("<8d", *[0.0] * 7, bad))
    with pytest.raises(InvalidInput, match="finite"):
        ioformats.read_grid_function(path)


@pytest.mark.parametrize("name, content", [
    ("missing.json", None),
    ("missing.bin", None),
    ("truncated.json", "[[1.0, 0.0], [1.0"),
    ("null_entry.json", "[[null, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]"),
    ("text_entry.json", '["one", 1, 1, 1]'),
    ("scalar.json", "5"),
])
def test_grid_function_unreadable_file_is_invalid_input(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    with pytest.raises(InvalidInput):
        ioformats.read_grid_function(path)


def test_jsonable_handles_reports():
    obj = ioformats.jsonable({"checks": [{"pass": np.bool_(True), "tol": None}],
                              "values": (np.float64(0.5), np.int64(3), 2.0 + 0.0j, 1.0 - 1.0j),
                              "arr": np.array([1.0j, 2.0]), "real": np.array([[1.0], [2.0]]),
                              7: "verdict"})
    assert obj == {"checks": [{"pass": True, "tol": None}], "values": [0.5, 3, 2.0, [1.0, -1.0]],
                   "arr": [[0.0, 1.0], [2.0, 0.0]], "real": [[1.0], [2.0]], "7": "verdict"}
    assert type(obj["checks"][0]["pass"]) is bool
    assert type(obj["values"][0]) is float and type(obj["values"][1]) is int


def test_jsonable_writes_a_0d_array_as_its_scalar():
    # indexing one sequence with ... gives a 0-d array, which is one value and not a list
    obj = ioformats.jsonable({"f": np.array(1.5), "b": np.array(True), "i": np.array(3),
                              "c": np.array(1.0 - 2.0j), "r": np.array(2.0 + 0.0j),
                              "view": np.arange(4.0)[..., 2]})
    assert obj == {"f": 1.5, "b": True, "i": 3, "c": [1.0, -2.0], "r": 2.0, "view": 2.0}
    assert [type(obj[k]) for k in ("f", "b", "i", "r")] == [float, bool, int, float]
    assert json.loads(json.dumps(obj)) == obj


def _nested_pairs(arr):
    return [_nested_pairs(a) for a in arr] if arr.ndim else [float(arr.real), float(arr.imag)]


def _leaves(obj):
    return [leaf for item in obj for leaf in _leaves(item)] if isinstance(obj, list) else [obj]


@pytest.mark.parametrize("arr", [
    np.arange(24.0).reshape(2, 3, 4) * (1.0 - 0.5j),
    np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)], [complex(-0.0, -0.0), 2.5j]]),
    (np.arange(12.0).reshape(3, 2, 2) / 3.0 + 0.1j).astype(np.complex64),
], ids=["3d", "2d-signed-zeros", "3d-complex64"])
def test_jsonable_writes_complex_arrays_as_nested_pairs(arr):
    obj = ioformats.jsonable({"arr": arr})["arr"]
    # the same text as element by element, so -0.0 keeps its sign and complex64 its value
    assert json.dumps(obj) == json.dumps(_nested_pairs(arr))
    assert {type(leaf) for leaf in _leaves(obj)} == {float}


def test_jsonable_2d_complex_example():
    assert ioformats.jsonable(np.ones((2, 2), complex)) == \
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", np.datetime64("2025-01-01")])
def test_jsonable_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        ioformats.jsonable({"checks": [value]})


# ---------------------------------------------------------------------------
# fuzzing: every reader returns or raises InvalidInput, never anything else

KEYS = st.sampled_from(["weights", "r", "m", "shells", "n", "atoms", "id", "weight",
                        "values", "f", "g"]) | st.text(max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4) | st.integers(min_value=10**300))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=30,
)
CSV_CELLS = st.sampled_from(["1", "2", "-0.5", "1e999", "nan", "inf", "x", "", "index",
                             "re", "im", '"', "1,2"])
CSV_TEXT = st.lists(st.lists(CSV_CELLS, max_size=4).map(",".join), max_size=6).map("\n".join)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _returns_or_invalid(read, arg):
    try:
        read(arg)
    except InvalidInput:
        pass


@FUZZ
@given(obj=JSON_VALUES)
def test_object_readers_fuzz(obj):
    layout = LayeredSpace([[0.5, 0.25], [0.5, 0.25]])
    for read in (ioformats.complex_array, ioformats.real_array, ioformats.relation_from_obj,
                 ioformats.layered_space_from_obj, ioformats.bezout_pair_from_obj,
                 lambda o: ioformats.layered_values_from_obj(o, layout)):
        _returns_or_invalid(read, obj)


@FUZZ
@given(suffix=st.sampled_from([".json", ".csv", ".bin"]),
       content=st.binary(max_size=64) | JSON_VALUES.map(json.dumps).map(str.encode)
       | CSV_TEXT.map(str.encode))
def test_file_readers_fuzz(tmp_path, suffix, content):
    path = tmp_path / f"input{suffix}"
    path.write_bytes(content)
    _returns_or_invalid(ioformats.read_sequence, path)
    _returns_or_invalid(ioformats.read_grid_function, path)


@FUZZ
@given(n=st.integers(min_value=0, max_value=2**64 - 1) | st.integers(0, 16),
       values=st.lists(st.floats(width=64), max_size=40),
       cut=st.integers(min_value=0, max_value=7))
def test_binary_grid_reader_fuzz(tmp_path, n, values, cut):
    blob = struct.pack("<Q", n) + struct.pack(f"<{len(values)}d", *values)
    path = tmp_path / "grid.bin"
    path.write_bytes(blob[: len(blob) - cut])
    _returns_or_invalid(ioformats.read_grid_function, path)
