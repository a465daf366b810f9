import json
from pathlib import Path

import numpy as np
import pytest

from paraunit import (
    BlaschkePotapovForm,
    Certificate,
    COISO,
    DocumentError,
    ISO,
    LEFT,
    ParaunitaryParam,
    Pole,
    SampleSet,
    bp_to_laurent,
    bp_to_realization,
    random_params,
    ss_to_mfd,
)
from paraunit.documents import (
    FORMAT_VERSION,
    decode_document,
    encode_document,
    kind_of,
    read_document,
    write_document,
)
from paraunit.cli import execute
from conftest import circle_points, random_form, random_unitary
from golden import row_example_bp, row_example_ss_normalized

#: One document of each kind, as ``write_document`` wrote it before the
#: payload fields were given one table (see ``pinned_objects``).
PINNED = Path(__file__).parent / "documents"


def round_trip(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    write_document(path, obj)
    return read_document(path)


class TestRoundTrips:
    def test_bp(self, tmp_path):
        form = random_form(1, COISO, 2, 3, 3)
        loaded = round_trip(tmp_path, form)
        assert kind_of(loaded) == "bp"
        assert loaded.side == form.side
        assert list(loaded.poles) == list(form.poles)
        for (_, v1), (_, v2) in zip(loaded.factors, form.factors):
            assert np.array_equal(v1, v2)
        assert np.array_equal(loaded.constant, form.constant)

    def test_ss(self, tmp_path):
        ss = bp_to_realization(random_form(2, ISO, 3, 2, 2, schur_only=True))
        loaded = round_trip(tmp_path, ss)
        for name in "abcd":
            assert np.array_equal(getattr(loaded, name), getattr(ss, name))

    def test_mfd(self, tmp_path):
        ss = bp_to_realization(random_form(3, COISO, 2, 3, 2, schur_only=True))
        mfd = ss_to_mfd(ss, LEFT)
        loaded = round_trip(tmp_path, mfd)
        assert loaded.side == mfd.side
        for a, b in zip(loaded.num, mfd.num):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.den, mfd.den):
            assert np.array_equal(a, b)

    def test_laurent(self, tmp_path):
        rng = np.random.default_rng(4)
        from paraunit import BlaschkePotapovForm, Pole

        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        form = BlaschkePotapovForm(
            ISO, 2, 2, [(Pole(0.0), v / np.linalg.norm(v))], np.eye(2)
        )
        lp = bp_to_laurent(form)
        loaded = round_trip(tmp_path, lp)
        assert loaded.q == lp.q
        for a, b in zip(loaded.coeffs, lp.coeffs):
            assert np.array_equal(a, b)

    def test_params(self, tmp_path):
        params = random_params(3, ISO, 3, 2, 4)
        where = {
            "infinity" if pole.is_infinity
            else "origin" if pole.value == 0
            else "inside" if pole.is_schur
            else "outside"
            for pole in params.poles
        }
        assert where == {"origin", "infinity", "inside", "outside"}
        loaded = round_trip(tmp_path, params)
        assert loaded == params

    def test_samples(self, tmp_path):
        form = random_form(6, ISO, 2, 1, 1, schur_only=True)
        zs = circle_points(8)
        samples = SampleSet(list(zip(zs, form.eval_many(zs))))
        loaded = round_trip(tmp_path, samples)
        assert np.array_equal(loaded.zs, samples.zs)
        assert np.array_equal(loaded.targets, samples.targets)


def pinned_objects():
    """The object behind each pinned document, by kind."""
    fir = BlaschkePotapovForm(ISO, 2, 1, [(Pole(0.0), np.array([0.6, 0.8]))], np.array([[1.0], [0.0]]))
    return {
        "bp": row_example_bp(),
        "ss": row_example_ss_normalized(),
        "mfd": ss_to_mfd(row_example_ss_normalized()),
        "laurent": bp_to_laurent(fir),
        "params": random_params(0, ISO, 2, 1, 1),
        "samples": SampleSet([(1.0, [[1.0, 0.0]]), (1j, [[0.0, 1j]]), (-1.0, [[0.6, -0.8j]])]),
    }


class TestPinnedFormat:
    @pytest.mark.parametrize("kind", ["bp", "ss", "mfd", "laurent", "params", "samples"])
    def test_written_text_is_pinned(self, tmp_path, kind):
        pinned = (PINNED / f"{kind}.json").read_bytes()
        path = tmp_path / "written.json"
        write_document(path, pinned_objects()[kind])
        assert path.read_bytes() == pinned
        write_document(path, read_document(PINNED / f"{kind}.json"))
        assert path.read_bytes() == pinned


class TestErrors:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": "paraunit/1",\n  "kind": }')
        with pytest.raises(DocumentError, match="line 2"):
            read_document(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "version.json"
        path.write_text(json.dumps({"format_version": "paraunit/0", "kind": "bp", "payload": {}}))
        with pytest.raises(DocumentError, match="format_version"):
            read_document(path)

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="kind"):
            decode_document({"format_version": FORMAT_VERSION, "kind": "zzz", "payload": {}})

    def test_missing_field_names_path(self, tmp_path):
        data = encode_document(row_example_ss_normalized())
        del data["payload"]["c"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DocumentError, match="payload.c"):
            read_document(path)

    def test_bad_matrix_entry_names_path(self, tmp_path):
        data = encode_document(row_example_ss_normalized())
        data["payload"]["a"]["entries"][0][0] = "oops"
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DocumentError, match=r"payload.a.entries\[0\]\[0\]"):
            read_document(path)

    def test_unserializable_object(self):
        with pytest.raises(DocumentError):
            kind_of(object())

    def test_certificate_only_lists_serialize(self):
        with pytest.raises(DocumentError):
            kind_of([Certificate("x", 0.0, 1.0), "nope"])
        with pytest.raises(DocumentError):
            kind_of([Certificate("x", 0.0, 1.0)])


def small_documents():
    """One valid document of degree at most 2 of each kind, as parsed JSON."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    u = random_unitary(rng, 2)[:, :1]
    bp = BlaschkePotapovForm(ISO, 2, 1, [(Pole(0.5 + 0.2j), v), (Pole.infinity(), v)], u)
    fir = BlaschkePotapovForm(ISO, 2, 1, [(Pole(0.0), v), (Pole.infinity(), v)], u)
    ss = bp_to_realization(random_form(9, ISO, 2, 1, 2, schur_only=True))
    params = random_params(10, ISO, 2, 1, 2)
    params = ParaunitaryParam(
        ISO, 2, 1, 2, (Pole(0.5 * np.exp(1j)), Pole(0.0)),
        params.directions, params.frame,
    )
    zs = circle_points(2)
    objects = [bp, ss, ss_to_mfd(ss, LEFT), bp_to_laurent(fir), params,
               SampleSet(list(zip(zs, bp.eval_many(zs))))]
    return [json.loads(json.dumps(encode_document(obj))) for obj in objects]


def json_type(value):
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def mutants(node, path="document"):
    """``(path, copy)`` of ``node`` with one of its nodes, itself included,
    replaced by a value of another JSON type."""
    for value in (None, True, "x", 7, [], {}):
        if json_type(value) != json_type(node):
            yield path, value
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            child_path = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
            for where, mutant in mutants(node[key], child_path):
                copy = node.copy()
                copy[key] = mutant
                yield where, copy


class TestMalformedDocuments:
    def test_every_type_change_is_a_value_error(self):
        escaped = []
        count = 0
        for data in small_documents():
            for where, mutant in mutants(data):
                count += 1
                try:
                    decode_document(mutant)
                except ValueError:
                    continue
                except Exception as exc:  # noqa: BLE001 - the failure being tested
                    escaped.append(f"{data['kind']} {where}: {type(exc).__name__}: {exc}")
                else:
                    escaped.append(f"{data['kind']} {where}: accepted")
        assert count > 1000
        assert not escaped, f"{len(escaped)} of {count} mutants:\n" + "\n".join(escaped[:20])

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("bp", "factors", [5]),
            ("bp", "factors", 5),
            ("bp", "p", [2]),
            ("params", "directions", [None]),
            ("laurent", "q", None),
            ("bp", "p", True),
        ],
    )
    def test_cli_check_exits_2(self, tmp_path, capsys, kind, key, value):
        data = next(d for d in small_documents() if d["kind"] == kind)
        data["payload"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert execute(["check", str(path)]) == 2
        assert f"payload.{key}" in capsys.readouterr().err

    def test_params_pole_on_circle_exits_2(self, tmp_path, capsys):
        data = next(d for d in small_documents() if d["kind"] == "params")
        data["payload"]["poles"][1] = {"type": "finite", "value": [0.0, 1.0]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        assert execute(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "payload.poles[1]" in err and "unit circle" in err

    def test_matrix_rows_checked_before_allocation(self):
        data = small_documents()[1]
        data["payload"]["a"].update(rows=1, cols=10**15, entries=[[]])
        with pytest.raises(DocumentError, match=r"payload.a.entries\[0\]"):
            decode_document(data)


DELETE = object()


def set_at(data, path, value):
    """Set (or, for ``DELETE``, delete) the node at the key ``path`` of ``data``."""
    for key in path[:-1]:
        data = data[key]
    if value is DELETE:
        del data[path[-1]]
    else:
        data[path[-1]] = value


class TestRefusals:
    @pytest.mark.parametrize(
        "kind, path, value, message",
        [
            ("ss", ("a", "rows"), -1, "payload.a: rows/cols must be non-negative"),
            ("ss", ("b", "cols"), -2, "payload.b: rows/cols must be non-negative"),
            ("ss", ("c", "entries"), [[[0.5, 0.0]], [[0.5, 0.0]]], "payload.c.entries: expected 1 rows"),
            ("bp", ("factors", 0, "pole", "type"), "zero", "payload.factors[0].pole.type: unknown pole type 'zero'"),
        ],
    )
    def test_malformed_field_is_one_error_line(self, tmp_path, capsys, kind, path, value, message):
        data = json.loads((PINNED / f"{kind}.json").read_text())
        set_at(data["payload"], path, value)
        document = tmp_path / "bad.json"
        document.write_text(json.dumps(data))
        assert execute(["check", str(document)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {document}: {message}")
        assert len(err.splitlines()) == 1

    def test_tolerance_variable_not_a_number_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAUNIT_TOL", "tight")
        assert execute(["check", str(PINNED / "bp.json")]) == 2
        assert capsys.readouterr() == ("", "error: PARAUNIT_TOL is not a number: 'tight'\n")


def payload_mutants(data):
    """``(path, copy)`` of ``data`` with one payload field, or one node
    directly below one, replaced by an ill-typed value or deleted."""
    payload = data["payload"]
    paths = []
    for key, node in payload.items():
        paths.append((key,))
        children = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        paths += [(key, child) for child in children]
    for path in paths:
        for value in (None, True, "x", [], 1e308, DELETE):
            copy = json.loads(json.dumps(data))
            set_at(copy["payload"], path, value)
            yield path, copy


class TestNoEscape:
    def test_malformed_document_never_raises(self, tmp_path, capsys):
        commands = [("check",), ("eval", "--at", "0.3,0.2")]
        codes, escaped = [], []
        document = tmp_path / "mutant.json"
        for kind in ("bp", "ss", "mfd", "laurent", "params", "samples"):
            data = json.loads((PINNED / f"{kind}.json").read_text())
            extra = [("fit", "--degree", "1", "--restarts", "1")] if kind == "samples" else []
            for path, mutant in payload_mutants(data):
                document.write_text(json.dumps(mutant))
                for command in commands + extra:
                    try:
                        codes.append(execute([command[0], str(document), *command[1:]]))
                    except Exception as exc:  # noqa: BLE001 - the failure being tested
                        escaped.append(f"{kind} {path} {command[0]}: {type(exc).__name__}: {exc}")
        capsys.readouterr()
        assert not escaped, "\n".join(escaped[:20])
        assert set(codes) <= {0, 1, 2} and len(codes) > 500
