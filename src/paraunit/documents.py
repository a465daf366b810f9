"""JSON document format shared by the command-line tools.

Every file is one JSON object ``{"format_version": "paraunit/1", "kind":
..., "payload": ...}``.  The kinds are ``bp`` (Blaschke–Potapov product),
``ss`` (realization), ``mfd`` (matrix fraction), ``laurent`` (Laurent
polynomial), ``params`` (parameter vector) and ``samples`` (fit targets).
Complex scalars are two-element ``[re, im]`` arrays; matrices are row-major
nested arrays with explicit ``rows`` and ``cols`` fields.  Numbers survive a
write/read round trip bit-exactly.

Each payload field is written down once, in ``_KIND_TABLE``: its key, its
codec and, where it is not the attribute of that name, the getter of its
value.  The table names each kind's class by its module, which is imported
only to read a document of that kind, so a command that reads no ``params``
or ``samples`` document loads neither ``params`` nor ``fit``.  A codec is a
pair ``(write, read)`` for one JSON value type: ``write`` turns a value into
JSON, and ``read`` is what ``_read`` takes, a JSON type name or a decoder.
There is one for plain strings, integers and numbers, complex scalars,
matrices and poles, and the combinators ``_list`` and ``_record`` build the
others from them.  Writing and reading a document are two loops over the
one table, in the order of the class's constructor arguments, with no step
of their own for any kind.

Reading checks the JSON type of every field: ``p``, ``m``, ``d``, ``q``,
``rows`` and ``cols`` are integers, every other number is a finite float or
integer, and a boolean is never a number.  A malformed document raises
:class:`DocumentError` naming the path of the offending field;
:func:`read_document` also prefixes the file path, and turns the errors of a
constructor that refuses a decoded value into :class:`DocumentError` too.
"""

from __future__ import annotations

import importlib
import json
import sys
from operator import methodcaller

import numpy as np

from .errors import DocumentError
from .forms import Pole

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


def _list(codec) -> tuple:
    """Codec of an array whose items each take ``codec``; it reads a tuple."""
    write, read = codec

    def encode(items) -> list:
        return [write(item) for item in items]

    def decode(value, path: str) -> tuple:
        items = _read(value, path, "array")
        return tuple(_read(item, f"{path}[{i}]", read) for i, item in enumerate(items))

    return encode, decode


def _record(*fields) -> tuple:
    """Codec of an object with the ``(key, codec)`` ``fields``, written from
    and read as a tuple of their values in this order."""

    def encode(values) -> dict:
        return {key: write(value) for (key, (write, _)), value in zip(fields, values)}

    def decode(value, path: str) -> tuple:
        return tuple(_field(value, key, path, read) for key, (_, read) in fields)

    return encode, decode


def _encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _decode_complex(value, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(f"{path}: expected a [re, im] pair, got {value!r:.60}")
    re, im = value
    return complex(_read(re, f"{path}[0]", "number"), _read(im, f"{path}[1]", "number"))


_COMPLEX = (_encode_complex, _decode_complex)
_encode_cells, _decode_cells = _list(_list(_COMPLEX))


def _encode_matrix(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    rows, cols = a.shape
    return {"rows": rows, "cols": cols, "entries": _encode_cells(a)}


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
    # the shape is checked before any cell is read
    return np.array(_decode_cells(entries, f"{path}.entries"), complex).reshape(rows, cols)


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


_STRING = (str, "string")
_INTEGER = (int, "integer")
_NUMBER = (float, "number")
_MATRIX = (_encode_matrix, _decode_matrix)
_POLE = (_encode_pole, _decode_pole)

# kind -> (module, class, payload fields in the order of the class's
# constructor arguments).  A field ``(key, codec)`` is the object's
# attribute ``key``, and a field ``(key, codec, getter)`` is ``getter(obj)``.
_KIND_TABLE = {
    "bp": ("forms", "BlaschkePotapovForm", (
        ("side", _STRING),
        ("p", _INTEGER),
        ("m", _INTEGER),
        ("factors", _list(_record(("pole", _POLE), ("direction", _MATRIX)))),
        ("constant", _MATRIX),
    )),
    "ss": ("forms", "StateSpaceRealization", (
        ("a", _MATRIX),
        ("b", _MATRIX),
        ("c", _MATRIX),
        ("d", _MATRIX),
    )),
    "mfd": ("forms", "MFDForm", (
        ("side", _STRING),
        ("num", _list(_MATRIX)),
        ("den", _list(_MATRIX)),
    )),
    "laurent": ("forms", "LaurentPolyForm", (
        ("q", _INTEGER),
        ("coeffs", _list(_MATRIX)),
    )),
    "params": ("params", "ParaunitaryParam", (
        ("side", _STRING),
        ("p", _INTEGER),
        ("m", _INTEGER),
        ("d", _INTEGER),
        ("poles", _list(_POLE)),
        ("directions", _list(_list(_NUMBER))),
        ("frame", _list(_NUMBER)),
    )),
    "samples": ("fit", "SampleSet", (
        ("points", _list(_record(("z", _COMPLEX), ("value", _MATRIX))), methodcaller("pairs")),
    )),
}
KINDS = tuple(_KIND_TABLE)


def kind_of(obj) -> str:
    """Document kind string for a serializable object."""
    for kind, (module, name, _) in _KIND_TABLE.items():
        # a class whose module is not loaded has no instances
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(obj, getattr(loaded, name)):
            return kind
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def encode_document(obj) -> dict:
    kind = kind_of(obj)
    _, _, fields = _KIND_TABLE[kind]
    payload = {key: write(get[0](obj) if get else getattr(obj, key)) for key, (write, _), *get in fields}
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}


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
    module, name, fields = _KIND_TABLE[kind]
    cls = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    return cls(*(_field(payload, key, "payload", read) for key, (_, read), *_ in fields))


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
