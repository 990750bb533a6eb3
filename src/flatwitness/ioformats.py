"""Readers for the input formats: complex sequences, relations, sampled
functions, layered spaces, and boundary grids; and the report's JSON form.

Complex scalars travel as [re, im] pairs in JSON.  Sequences may also be
CSV with columns index,re,im.  Grid functions may be JSON or a little-endian
binary: an 8-byte unsigned sample count followed by interleaved float64
re/im pairs.
"""

from __future__ import annotations

import csv
import json
import operator
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .hardy_engine import GridFunction
from .layered_factor import LayeredSpace
from .pointwise_witness import PointwiseRelation, WitnessCertificate, pointwise_relation

__all__ = [
    "complex_array",
    "complex_pairs",
    "read_sequence",
    "read_json",
    "relation_from_obj",
    "certificate_to_obj",
    "layered_space_from_obj",
    "read_grid_function",
    "jsonable",
]


def complex_array(entries) -> np.ndarray:
    """Array from a list of [re, im] pairs (bare reals are accepted)."""
    out = []
    try:
        for e in entries:
            if isinstance(e, (list, tuple)):
                if len(e) != 2:
                    raise InvalidInput(f"complex entry must be a [re, im] pair, got {e!r}")
                out.append(complex(e[0], e[1]))
            else:
                out.append(complex(e))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"not a list of complex entries: {exc}") from exc
    return np.asarray(out, dtype=complex)


def complex_pairs(arr) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(arr, dtype=complex)]


def read_sequence(path) -> np.ndarray:
    """Complex sequence from a .json array of pairs or a .csv of index,re,im."""
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
    return np.asarray([complex(re, im) for _, re, im in rows])


def read_json(path):
    """The JSON document in a file; an unreadable or malformed file is InvalidInput."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read JSON file {path}: {exc}") from exc


def relation_from_obj(obj) -> PointwiseRelation:
    try:
        weights = np.asarray(obj["weights"], dtype=float)
        r_rows = np.vstack([complex_array(row) for row in obj["r"]])
        m_rows = np.vstack([complex_array(row) for row in obj["m"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed relation object: {exc}") from exc
    return pointwise_relation(weights, r_rows, m_rows)


def certificate_to_obj(cert: WitnessCertificate) -> dict:
    return {
        "k": cert.k,
        "rho": [[complex_pairs(col) for col in point] for point in cert.rho],
        "mu": [complex_pairs(point) for point in cert.mu],
    }


_ATOM = operator.itemgetter("id", "weight")


def layered_space_from_obj(obj) -> LayeredSpace:
    """The space of a layered-space object, whose shells, sorted by n, are numbered 1..N.

    Every atom must have an ``id``, though only its ``weight`` is kept.
    """
    try:
        shells = sorted(obj["shells"], key=lambda sh: sh["n"])
        numbers = [int(sh["n"]) for sh in shells]
        weights = [[float(w) for _, w in map(_ATOM, sh["atoms"])] for sh in shells]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed layered space: {exc}") from exc
    if numbers != list(range(1, len(shells) + 1)):
        raise InvalidInput("shell numbers n must be consecutive from 1")
    return LayeredSpace(weights)


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
        if np.iscomplexobj(obj):
            return complex_pairs(obj)
        return [jsonable(v) for v in obj.tolist()]
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
