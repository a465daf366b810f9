"""JSON document format shared by the command-line tools.

Every file is one JSON object ``{"format_version": "paraunit/1", "kind":
..., "payload": ...}``.  The kinds are ``bp`` (Blaschke–Potapov product),
``ss`` (realization), ``mfd`` (matrix fraction), ``laurent`` (Laurent
polynomial), ``params`` (parameter vector) and ``samples`` (fit targets).
Complex scalars are two-element ``[re, im]`` arrays; matrices are row-major
nested arrays with explicit ``rows`` and ``cols`` fields.  Numbers survive a
write/read round trip bit-exactly.

Reading checks the JSON type of every field: ``p``, ``m``, ``d``, ``q``,
``rows`` and ``cols`` are integers, every other number is a finite float or
integer, and a boolean is never a number.  A malformed document raises
:class:`DocumentError` naming the path of the offending field;
:func:`read_document` also prefixes the file path, and turns the errors of a
constructor that refuses a decoded value into :class:`DocumentError` too.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import DocumentError
from .fit import SampleSet
from .forms import (
    BlaschkePotapovForm,
    LaurentPolyForm,
    MFDForm,
    Pole,
    StateSpaceRealization,
)
from .params import ParaunitaryParam

FORMAT_VERSION = "paraunit/1"

_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
}


def _read(value, path: str, json_type):
    """``value`` checked against ``json_type``.

    ``json_type`` is a key of ``_JSON_TYPES`` or a decoder
    ``(value, path) -> object`` for a nested value.  A number must be finite
    and fit in a float.
    """
    if callable(json_type):
        return json_type(value, path)
    if (
        isinstance(value, bool)
        or not isinstance(value, _JSON_TYPES[json_type])
        or (json_type == "number" and not abs(value) <= sys.float_info.max)
    ):
        raise DocumentError(f"{path}: expected {json_type}, got {value!r:.60}")
    return value


def _field(obj, key: str, path: str, json_type):
    """Field ``key`` of the object ``obj`` at ``path``, read as ``json_type``."""
    _read(obj, path, "object")
    if key not in obj:
        raise DocumentError(f"{path}.{key}: missing field")
    return _read(obj[key], f"{path}.{key}", json_type)


def _list_of(json_type):
    """Decoder of an array, as a tuple of its items each read as ``json_type``."""

    def decode(value, path: str) -> tuple:
        items = _read(value, path, "array")
        return tuple(_read(item, f"{path}[{i}]", json_type) for i, item in enumerate(items))

    return decode


def _encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _decode_complex(value, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(f"{path}: expected a [re, im] pair, got {value!r:.60}")
    re, im = value
    return complex(_read(re, f"{path}[0]", "number"), _read(im, f"{path}[1]", "number"))


def _encode_matrix(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    rows, cols = a.shape
    entries = [[_encode_complex(a[i, j]) for j in range(cols)] for i in range(rows)]
    return {"rows": rows, "cols": cols, "entries": entries}


def _decode_matrix(value, path: str) -> np.ndarray:
    rows = _field(value, "rows", path, "integer")
    cols = _field(value, "cols", path, "integer")
    entries = _field(value, "entries", path, "array")
    if rows < 0 or cols < 0:
        raise DocumentError(f"{path}: rows/cols must be non-negative integers")
    if len(entries) != rows:
        raise DocumentError(f"{path}.entries: expected {rows} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{path}.entries[{i}]: expected {cols} entries")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            out[i, j] = _decode_complex(cell, f"{path}.entries[{i}][{j}]")
    return out


def _encode_pole(pole: Pole) -> dict:
    if pole.is_infinity:
        return {"type": "infinity"}
    return {"type": "finite", "value": _encode_complex(pole.value)}


def _decode_pole(value, path: str) -> Pole:
    pole_type = _field(value, "type", path, "string")
    if pole_type == "infinity":
        return Pole.infinity()
    if pole_type == "finite":
        finite = _field(value, "value", path, _decode_complex)
        try:
            return Pole(finite)
        except ValueError as exc:  # a value on the unit circle
            raise DocumentError(f"{path}: {exc}") from exc
    raise DocumentError(f"{path}.type: unknown pole type {pole_type!r}")


def _decode_factor(value, path: str) -> tuple:
    pole = _field(value, "pole", path, _decode_pole)
    return pole, _field(value, "direction", path, _decode_matrix).reshape(-1)


def _decode_point(value, path: str) -> tuple:
    return _field(value, "z", path, _decode_complex), _field(value, "value", path, _decode_matrix)


# kind -> (class, payload encoder, payload fields (key, json_type) in the
# order of the class's constructor arguments)
_KIND_TABLE = {
    "bp": (
        BlaschkePotapovForm,
        lambda bp: {
            "side": bp.side,
            "p": bp.p,
            "m": bp.m,
            "factors": [
                {"pole": _encode_pole(pole), "direction": _encode_matrix(v)}
                for pole, v in bp.factors
            ],
            "constant": _encode_matrix(bp.constant),
        },
        (("side", "string"), ("p", "integer"), ("m", "integer"),
         ("factors", _list_of(_decode_factor)), ("constant", _decode_matrix)),
    ),
    "ss": (
        StateSpaceRealization,
        lambda ss: {name: _encode_matrix(getattr(ss, name)) for name in "abcd"},
        tuple((name, _decode_matrix) for name in "abcd"),
    ),
    "mfd": (
        MFDForm,
        lambda mfd: {
            "side": mfd.side,
            "num": [_encode_matrix(x) for x in mfd.num],
            "den": [_encode_matrix(x) for x in mfd.den],
        },
        (("side", "string"), ("num", _list_of(_decode_matrix)), ("den", _list_of(_decode_matrix))),
    ),
    "laurent": (
        LaurentPolyForm,
        lambda lp: {"q": lp.q, "coeffs": [_encode_matrix(x) for x in lp.coeffs]},
        (("q", "integer"), ("coeffs", _list_of(_decode_matrix))),
    ),
    "params": (
        ParaunitaryParam,
        lambda params: {
            "side": params.side,
            "p": params.p,
            "m": params.m,
            "d": params.d,
            "poles": [_encode_pole(pole) for pole in params.poles],
            "directions": [list(row) for row in params.directions],
            "frame": list(params.frame),
        },
        (("side", "string"), ("p", "integer"), ("m", "integer"), ("d", "integer"),
         ("poles", _list_of(_decode_pole)),
         ("directions", _list_of(_list_of("number"))), ("frame", _list_of("number"))),
    ),
    "samples": (
        SampleSet,
        lambda samples: {
            "points": [
                {"z": _encode_complex(z), "value": _encode_matrix(g)}
                for z, g in samples.pairs()
            ]
        },
        (("points", _list_of(_decode_point)),),
    ),
}
KINDS = tuple(_KIND_TABLE)


def kind_of(obj) -> str:
    """Document kind string for a serializable object."""
    for kind, (cls, _, _) in _KIND_TABLE.items():
        if isinstance(obj, cls):
            return kind
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def encode_document(obj) -> dict:
    kind = kind_of(obj)
    _, encode, _ = _KIND_TABLE[kind]
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": encode(obj)}


def decode_document(data: dict):
    """Rebuild the typed object from a parsed document dictionary."""
    if not isinstance(data, dict):
        raise DocumentError("document root must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"format_version: expected {FORMAT_VERSION!r}, got {version!r}")
    kind = data.get("kind")
    if kind not in KINDS:  # a tuple: an unhashable kind compares unequal
        raise DocumentError(f"kind: expected one of {KINDS}, got {kind!r}")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise DocumentError("payload: missing or not an object")
    cls, _, fields = _KIND_TABLE[kind]
    return cls(*(_field(payload, key, "payload", json_type) for key, json_type in fields))


def write_document(path, obj) -> None:
    """Serialize ``obj`` to ``path`` as a document of its natural kind."""
    data = encode_document(obj)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


def read_document(path):
    """Load and rebuild the typed object stored at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    try:
        return decode_document(data)
    except ValueError as exc:
        # malformed fields, and values a form constructor refuses
        raise DocumentError(f"{path}: {exc}") from exc
