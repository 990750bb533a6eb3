"""Readers for the input formats: complex sequences, relations, sampled
functions, layered spaces, and boundary grids; and the report's JSON form.

An object reader refuses a malformed object with InvalidInput and its own
message, never with the error that reading it raised.

Complex numbers travel as [re, im] pairs in JSON, nested to an array's
depth in a report.  Sequences may also be CSV with columns index,re,im.
Grid functions may be JSON or a little-endian binary: an 8-byte unsigned
sample count followed by interleaved float64 re/im pairs.
"""

from __future__ import annotations

import csv
import json
import operator
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .bezout_ops import SampledFunction, sampled_function
from .errors import InvalidInput
from .hardy_engine import GridFunction
from .layered_factor import LayeredSpace
from .pointwise_witness import PointwiseRelation, pointwise_relation

__all__ = [
    "complex_array",
    "real_array",
    "read_sequence",
    "read_json",
    "relation_from_obj",
    "layered_space_from_obj",
    "layered_values_from_obj",
    "bezout_pair_from_obj",
    "read_grid_function",
    "jsonable",
]


@contextmanager
def _refusing(message, *nested):
    """Raise InvalidInput(message.format(error)) for a malformed value read in the block: a
    KeyError, TypeError, ValueError or OverflowError, or one of ``nested`` (a field reader's)."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, *nested) as exc:
        raise InvalidInput(message.format(exc)) from exc


def _refuse_non_number(entry):
    """A ValueError for a str or bool entry, which complex() and numpy would read as a number."""
    if isinstance(entry, str):
        raise ValueError(f"could not convert string to float: {str(entry)!r} "
                         "(numbers are not quoted)")
    if isinstance(entry, bool):
        raise ValueError(f"could not convert boolean to float: {str(entry).lower()} "
                         "(true and false are not numbers)")


def complex_array(entries) -> np.ndarray:
    """Array from a list of [re, im] pairs (bare reals are accepted)."""
    out = []
    with _refusing("not a list of complex entries: {}"):
        for e in entries:
            if not isinstance(e, (list, tuple)):
                e = (e,)
            elif len(e) != 2:
                raise InvalidInput(f"complex entry must be a [re, im] pair, got {e!r}")
            for part in e:
                _refuse_non_number(part)
            out.append(complex(*e))
    return np.asarray(out, dtype=complex)


def real_array(entries) -> np.ndarray:
    """Array from a list of real numbers; a refusal gives the conversion's own message,
    for the object reader to say which field it read."""
    with _refusing("{}"):
        # read as objects, since numpy reads a bool among numbers as one
        arr = np.asarray(entries, dtype=object)
        for e in arr.flat:
            _refuse_non_number(e)
        return arr.astype(float)


def read_sequence(path) -> np.ndarray:
    """Complex sequence from a .json array of pairs or a .csv of index,re,im.

    A CSV file's indices, in any row order, must be 1..N, each once.
    """
    path = Path(path)
    if path.suffix.lower() != ".csv":
        return complex_array(read_json(path))
    try:
        with path.open(newline="") as fh:
            rows = [(int(rec["index"]), float(rec["re"]), float(rec["im"]))
                    for rec in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        raise InvalidInput(f"cannot read sequence file {path}: {exc}") from exc
    rows.sort()
    if [i for i, _, _ in rows] != list(range(1, len(rows) + 1)):
        raise InvalidInput(f"sequence file {path}: the indices must be 1..N, each once")
    return np.asarray([complex(re, im) for _, re, im in rows])


def read_json(path):
    """The JSON document in a file; an unreadable or malformed file is InvalidInput."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read JSON file {path}: {exc}") from exc


def relation_from_obj(obj) -> PointwiseRelation:
    with _refusing("malformed relation object: {}", InvalidInput):
        weights = real_array(obj["weights"])
    with _refusing("malformed relation object: {}"):
        r_rows = np.vstack([complex_array(row) for row in obj["r"]])
        m_rows = np.vstack([complex_array(row) for row in obj["m"]])
    return pointwise_relation(weights, r_rows, m_rows)


_ATOM = operator.itemgetter("id", "weight")


def _shell_number(shell) -> int:
    """A shell's ``n``, which must be a JSON integer: not quoted, not a float, not a bool."""
    n = shell["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"shell number n must be an integer, not {n!r}")
    return n


def layered_space_from_obj(obj) -> LayeredSpace:
    """The space of a layered-space object, whose shells, sorted by n, are numbered 1..N.

    Every atom must have an ``id``, though only its ``weight`` is kept.
    """
    with _refusing("malformed layered space: {}", InvalidInput):
        shells = sorted(obj["shells"], key=_shell_number)
        numbers = [sh["n"] for sh in shells]
        weights = [real_array([w for _, w in map(_ATOM, sh["atoms"])]) for sh in shells]
    if numbers != list(range(1, len(shells) + 1)):
        raise InvalidInput("shell numbers n must be consecutive from 1")
    return LayeredSpace(weights)


def layered_values_from_obj(obj, layout: LayeredSpace) -> SampledFunction:
    """The sampled function of a layered values object {values, weights}, or of a bare
    list of values; the weights default to the layout's atom weights, and ``factor``
    refuses any others."""
    if not isinstance(obj, dict):
        obj = {"values": obj}
    if "values" not in obj:
        raise InvalidInput("layered values need a 'values' key")
    values = complex_array(obj["values"])
    with _refusing("layered weights must be a list of numbers: {}", InvalidInput):
        weights = real_array(obj.get("weights", layout.flat_weights))
    return sampled_function(values, weights)


def bezout_pair_from_obj(obj):
    """The sampled pair (f, g) of a bezout input object {f, g, weights}; a refused value
    names its field."""
    if not isinstance(obj, dict):
        raise InvalidInput(f"bezout input must be an object with keys f and g, "
                           f"not a {type(obj).__name__}")

    def field(key, read):
        with _refusing("bezout input must be an object with keys f and g: {}"):
            entries = obj[key]
        with _refusing(f"bezout input field {key}: {{}}", InvalidInput):
            return read(entries)

    weights = field("weights", real_array) if obj.get("weights") is not None else None
    f, g = field("f", complex_array), field("g", complex_array)
    return sampled_function(f, weights), sampled_function(g, weights)


_GRID_HEADER = struct.Struct("<Q")


def read_grid_function(path) -> GridFunction:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return GridFunction(complex_array(read_json(path)))
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise InvalidInput(f"cannot read grid file {path}: {exc}") from exc
    if len(blob) < _GRID_HEADER.size:
        raise InvalidInput("grid file too short for its header")
    (n,) = _GRID_HEADER.unpack_from(blob)
    expected = _GRID_HEADER.size + 16 * n
    if len(blob) != expected:
        raise InvalidInput(f"grid file length {len(blob)} != expected {expected}")
    samples = np.frombuffer(blob, dtype="<c16", offset=_GRID_HEADER.size)
    return GridFunction(samples.astype(complex))


def jsonable(obj):
    """Recursively convert a report's dicts, lists, scalars and arrays to plain JSON values.

    Anything else raises TypeError rather than being written as its str() form.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # a complex array is nested [re, im] pairs at any depth; a 0-d array is the scalar it holds
        if np.iscomplexobj(obj) and obj.shape:
            obj = obj.astype(complex, copy=False)
            return np.stack((obj.real, obj.imag), axis=-1).tolist()
        return jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return c.real if c.imag == 0.0 else [c.real, c.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"a report cannot hold a {type(obj).__name__}")
