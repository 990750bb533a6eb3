import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatwitness import ioformats
from flatwitness.errors import InvalidInput
from flatwitness.hardy_engine import GridFunction
from flatwitness.pointwise_witness import pointwise_relation, synthesize_witness


def test_sequence_json_round_trip(tmp_path):
    vals = np.array([1.0 + 2.0j, -0.5, 0.25j])
    path = tmp_path / "seq.json"
    ioformats.write_sequence(path, vals)
    assert np.array_equal(ioformats.read_sequence(path), vals)


def test_sequence_csv_round_trip(tmp_path):
    vals = np.array([0.125 + 0.5j, 3.0, -1.0 - 1.0j])
    path = tmp_path / "seq.csv"
    ioformats.write_sequence(path, vals)
    assert np.array_equal(ioformats.read_sequence(path), vals)


def test_complex_array_accepts_pairs_and_scalars():
    arr = ioformats.complex_array([[1.0, -1.0], 2.0, [0, 3]])
    assert np.array_equal(arr, np.array([1 - 1j, 2, 3j]))
    with pytest.raises(InvalidInput):
        ioformats.complex_array([[1.0, 2.0, 3.0]])


def test_relation_round_trip():
    rel = pointwise_relation([1.0, 0.5], [[1.0, 1.0], [0.0, 1.0j]],
                             [[1.0, -1.0], [0.0, 0.0]])
    obj = ioformats.relation_to_obj(rel)
    back = ioformats.relation_from_obj(json.loads(json.dumps(obj)))
    assert np.array_equal(back.point_weights, rel.point_weights)
    assert np.array_equal(back.r_rows, rel.r_rows)
    assert np.array_equal(back.m_rows, rel.m_rows)


def test_certificate_serialization_shape():
    rel = pointwise_relation([1.0], [[1.0, 1.0]], [[1.0, -1.0]])
    cert = synthesize_witness(rel)
    obj = ioformats.certificate_to_obj(cert)
    assert obj["k"] == 2
    assert len(obj["rho"]) == 1 and len(obj["rho"][0]) == 2
    assert len(obj["mu"][0]) == 2


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


def test_grid_function_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    g = GridFunction(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    path = tmp_path / "grid.bin"
    ioformats.write_grid_function(path, g)
    back = ioformats.read_grid_function(path)
    assert np.array_equal(back.samples, g.samples)
    assert path.stat().st_size == 8 + 16 * 64


def test_grid_function_json_round_trip(tmp_path):
    g = GridFunction(np.exp(1j * np.linspace(0, 1, 16)))
    path = tmp_path / "grid.json"
    ioformats.write_grid_function(path, g)
    back = ioformats.read_grid_function(path)
    assert np.max(np.abs(back.samples - g.samples)) == 0.0


def test_grid_function_binary_length_check(tmp_path):
    path = tmp_path / "grid.bin"
    path.write_bytes(b"\x10\x00\x00\x00\x00\x00\x00\x00" + b"\x00" * 10)
    with pytest.raises(InvalidInput):
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
    from flatwitness.seq_core import geometric_profile, verify_olympiad_bound
    from flatwitness.ultralimits import Membership

    rep = verify_olympiad_bound(geometric_profile(0.5, 10), 1, 10)
    obj = ioformats.jsonable({"report": rep, "verdict": Membership.YES,
                              "arr": np.array([1.0j, 2.0])})
    assert obj["report"]["holds"] is True
    assert obj["verdict"] == "yes"
    assert obj["arr"] == [[0.0, 1.0], [2.0, 0.0]]


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
    for read in (ioformats.complex_array, ioformats.relation_from_obj,
                 ioformats.layered_space_from_obj):
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
