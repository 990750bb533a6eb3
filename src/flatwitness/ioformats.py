"""File formats: complex sequences, relations, sampled functions, layered
spaces, and boundary grids.

Complex scalars travel as [re, im] pairs in JSON.  Sequences may also be
CSV with columns index,re,im.  Grid functions may be JSON or a little-endian
binary: an 8-byte unsigned sample count followed by interleaved float64
re/im pairs.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .hardy_engine import GridFunction
from .layered_factor import LayeredSpace, Shell
from .pointwise_witness import PointwiseRelation, WitnessCertificate, pointwise_relation

__all__ = [
    "complex_array",
    "complex_pairs",
    "read_sequence",
    "read_json",
    "write_sequence",
    "relation_from_obj",
    "relation_to_obj",
    "certificate_to_obj",
    "layered_space_from_obj",
    "read_grid_function",
    "write_grid_function",
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


def write_sequence(path, values):
    path = Path(path)
    arr = np.asarray(values, dtype=complex)
    if path.suffix.lower() == ".csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, v in enumerate(arr, start=1):
                writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
    else:
        path.write_text(json.dumps(complex_pairs(arr)))


def relation_from_obj(obj) -> PointwiseRelation:
    try:
        weights = np.asarray(obj["weights"], dtype=float)
        r_rows = np.vstack([complex_array(row) for row in obj["r"]])
        m_rows = np.vstack([complex_array(row) for row in obj["m"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed relation object: {exc}") from exc
    return pointwise_relation(weights, r_rows, m_rows)


def relation_to_obj(rel: PointwiseRelation) -> dict:
    return {
        "weights": [float(w) for w in rel.point_weights],
        "r": [complex_pairs(row) for row in rel.r_rows],
        "m": [complex_pairs(row) for row in rel.m_rows],
    }


def certificate_to_obj(cert: WitnessCertificate) -> dict:
    return {
        "k": cert.k,
        "rho": [[complex_pairs(col) for col in point] for point in cert.rho],
        "mu": [complex_pairs(point) for point in cert.mu],
    }


def layered_space_from_obj(obj) -> LayeredSpace:
    try:
        shells = sorted(obj["shells"], key=lambda sh: sh["n"])
        built = [
            Shell(
                int(sh["n"]),
                tuple(a["id"] for a in sh["atoms"]),
                np.asarray([float(a["weight"]) for a in sh["atoms"]]),
            )
            for sh in shells
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed layered space: {exc}") from exc
    return LayeredSpace(built)


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
    flat = np.frombuffer(blob, dtype="<f8", offset=_GRID_HEADER.size)
    return GridFunction(flat[0::2] + 1j * flat[1::2])


def write_grid_function(path, g: GridFunction):
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(complex_pairs(g.samples)))
        return
    flat = np.empty(2 * g.n, dtype="<f8")
    flat[0::2] = g.samples.real
    flat[1::2] = g.samples.imag
    path.write_bytes(_GRID_HEADER.pack(g.n) + flat.tobytes())


def jsonable(obj):
    """Recursively convert reports and arrays to plain JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    return str(obj)
