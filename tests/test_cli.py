import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paraunit import (
    LEFT,
    BlaschkePotapovForm,
    COISO,
    ISO,
    Pole,
    SampleSet,
    StateSpaceRealization,
    bp_to_laurent,
    bp_to_mfd,
    bp_to_realization,
    build_paraunitary,
    random_params,
    ss_to_mfd,
)
import paraunit
import paraunit.linalg
from paraunit.cli import execute
from paraunit.documents import read_document, write_document
from conftest import (
    circle_points,
    constant_system,
    overflowing_realization,
    perturb_direction,
    random_form,
    random_unitary,
)
from golden import row_example_bp, row_example_ss_normalized, row_example_ss_unnormalized


def run(capsys, *argv):
    code = execute(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_edge_unitary_ss(tmp_path):
    """One-state unitary realization with its pole 5e-10 inside the circle."""
    a = 1.0 - 5e-10
    s = np.sqrt(1.0 - abs(a) ** 2)
    path = tmp_path / "edge.json"
    write_document(path, StateSpaceRealization([[a]], [[s]], [[s]], [[-np.conj(a)]]))
    return path


def edited_bp(tmp_path, edit):
    """Path of the golden bp document with ``edit`` applied to its payload."""
    path = tmp_path / "bp.json"
    write_document(path, row_example_bp())
    data = json.loads(path.read_text())
    edit(data["payload"])
    path.write_text(json.dumps(data))
    return path


class TestGenerateAndCheck:
    def test_generate_then_check(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        code, _, _ = run(
            capsys,
            "generate", "--seed", "7", "-d", "4", "-p", "3", "-m", "2",
            "--schur", "-o", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "circle_residual" in out and "Pass" in out

    def test_check_constant_unitary(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        form = BlaschkePotapovForm(ISO, 2, 2, [], random_unitary(rng, 2))
        path = tmp_path / "const.json"
        write_document(path, form)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0

    def test_check_pole_inside_schur_margin_skips_gramians(self, tmp_path, capsys):
        path = write_edge_unitary_ss(tmp_path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "gramian certificates skipped" in out
        assert "realization_unitary" in out and "verdict=Pass" in out
        assert "gramian_" not in out

    def test_check_failing_ss_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_document(path, row_example_ss_unnormalized())
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "Fail" in out

    def test_tol_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_document(path, row_example_ss_unnormalized())
        code, _, _ = run(capsys, "check", str(path), "--tol", "10.0")
        assert code == 0

    def test_env_tol_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.json"
        write_document(path, row_example_ss_unnormalized())
        monkeypatch.setenv("PARAUNIT_TOL", "10.0")
        code, _, _ = run(capsys, "check", str(path))
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["--tol", "PARAUNIT_TOL"])
    @pytest.mark.parametrize("command", ["check", "gramians"])
    def test_rejects_tol_not_finite_nonnegative(
        self, tmp_path, capsys, monkeypatch, command, source, value
    ):
        path = tmp_path / "f.json"
        lossless = row_example_bp() if command == "check" else row_example_ss_normalized()
        write_document(path, lossless)
        argv = [command, str(path)]
        if source == "--tol":
            argv.append(f"--tol={value}")
        else:
            monkeypatch.setenv("PARAUNIT_TOL", value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert source in err and "verdict" not in out


def check_fraction_and_control(tmp_path, capsys, form, fraction, via_ss, certificate):
    """``convert --to mfd --side fraction`` of ``form`` (or of its ss) checks
    by one passing ``certificate``; the fraction of a perturbed direction,
    the negative control, fails it."""
    broken = perturb_direction(form, 1.01, 1)
    source, mfd_path, control = tmp_path / "f.json", tmp_path / "f_mfd.json", tmp_path / "control.json"
    if via_ss:
        write_document(source, bp_to_realization(form))
        write_document(control, ss_to_mfd(bp_to_realization(broken, validate=False), fraction))
    else:
        write_document(source, form)
        write_document(control, bp_to_mfd(broken, fraction))
    code, _, _ = run(capsys, "convert", str(source), "--to", "mfd", "--side", fraction, "-o", str(mfd_path))
    assert code == 0
    code, out, err = run(capsys, "check", str(mfd_path))
    assert (code, err) == (0, "")
    assert verdict_lines(out) == [(certificate, "Pass")]
    code, out, _ = run(capsys, "check", str(control))
    assert code == 1
    assert verdict_lines(out) == [(certificate, "Fail")]


class TestConvert:
    def test_bp_chain_preserves_pass(self, tmp_path, capsys):
        source = tmp_path / "f.json"
        write_document(source, row_example_bp())
        ss_path = tmp_path / "f_ss.json"
        code, _, _ = run(capsys, "convert", str(source), "--to", "ss", "-o", str(ss_path))
        assert code == 0
        code, _, _ = run(capsys, "check", str(ss_path))
        assert code == 0
        mfd_path = tmp_path / "f_mfd.json"
        code, _, _ = run(capsys, "convert", str(ss_path), "--to", "mfd", "-o", str(mfd_path))
        assert code == 0
        code, _, _ = run(capsys, "check", str(mfd_path))
        assert code == 0

    def test_failing_ss_chain_preserves_fail(self, tmp_path, capsys):
        source = tmp_path / "bad.json"
        write_document(source, row_example_ss_unnormalized(0.4))
        code, _, _ = run(capsys, "check", str(source))
        assert code == 1
        mfd_path = tmp_path / "bad_mfd.json"
        code, _, _ = run(capsys, "convert", str(source), "--to", "mfd", "-o", str(mfd_path))
        assert code == 0  # conversion itself succeeds
        code, out, _ = run(capsys, "check", str(mfd_path))
        # the unnormalized realization still describes a lossless function,
        # so the coefficient test passes even though the realization fails
        assert code == 0

    def test_non_schur_bp_to_mfd(self, tmp_path, capsys):
        # poles at 1.24+7.88j, infinity, 0 and one inside the disk
        source, mfd_path = tmp_path / "f.json", tmp_path / "f_mfd.json"
        run(capsys, "generate", "--seed", "7", "-d", "4", "-p", "3", "-m", "2", "-o", str(source))
        code, _, _ = run(capsys, "convert", str(source), "--to", "mfd", "-o", str(mfd_path))
        assert code == 0
        code, out, _ = run(capsys, "check", str(mfd_path))
        assert code == 0 and "mfd_hankel_right" in out

    @pytest.mark.parametrize("via_ss", [False, True])
    @pytest.mark.parametrize("side, p, m, fraction", [(COISO, 1, 2, "right"), (ISO, 2, 1, "left")])
    def test_fraction_without_a_hankel_test_checks_on_the_circle(
        self, tmp_path, capsys, via_ss, side, p, m, fraction
    ):
        # the Hankel test has no wide right or tall left form, so check
        # certifies such a fraction by its circle samples; the fraction of a
        # perturbed direction is the negative control
        form = random_form(1, side, p, m, 2, schur_only=True)
        check_fraction_and_control(tmp_path, capsys, form, fraction, via_ss, "circle_residual")

    @pytest.mark.parametrize("via_ss", [False, True])
    @pytest.mark.parametrize("side, p, m", [(ISO, 2, 2), (COISO, 2, 3)])
    def test_left_fraction_checks_by_its_hankel_test(self, tmp_path, capsys, via_ss, side, p, m):
        form = random_form(1, side, p, m, 3, schur_only=True)
        check_fraction_and_control(tmp_path, capsys, form, LEFT, via_ss, "mfd_hankel_left")

    def test_bp_to_mfd_is_accurate_inside_the_disk(self, tmp_path, capsys):
        source, mfd_path = tmp_path / "f.json", tmp_path / "f_mfd.json"
        run(capsys, "generate", "--seed", "3", "-d", "32", "-p", "4", "-m", "2", "--schur", "-o", str(source))
        code, _, _ = run(capsys, "convert", str(source), "--to", "mfd", "-o", str(mfd_path))
        assert code == 0
        expected = read_document(source)(0.05)
        assert np.linalg.norm(read_document(mfd_path)(0.05) - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_ss_to_mfd_is_accurate_inside_the_disk(self, tmp_path, capsys):
        source, ss_path, mfd_path = tmp_path / "f.json", tmp_path / "f_ss.json", tmp_path / "f_mfd.json"
        run(capsys, "generate", "--seed", "3", "-d", "32", "-p", "4", "-m", "2", "--schur", "-o", str(source))
        run(capsys, "convert", str(source), "--to", "ss", "-o", str(ss_path))
        code, _, _ = run(capsys, "convert", str(ss_path), "--to", "mfd", "-o", str(mfd_path))
        assert code == 0
        values = []
        for path in (source, mfd_path):
            code, out, _ = run(capsys, "eval", str(path), "--at", "0.05,0")
            assert code == 0
            values.append(np.array([[complex(x) for x in line.split()] for line in out.splitlines()[1:]]))
        expected, value = values
        assert value.shape == (4, 2)
        assert np.linalg.norm(value - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("via_ss", [False, True])
    def test_pole_on_a_rank_probe_converts_and_checks(self, tmp_path, capsys, via_ss):
        # the pole sits on the first MFD rank probe point, 0.3+0.4j
        form = BlaschkePotapovForm(ISO, 2, 1, [(Pole(0.3 + 0.4j), [1.0, 0.0])], [[0.0], [1.0]])
        source, mfd_path = tmp_path / "f.json", tmp_path / "f_mfd.json"
        write_document(source, form)
        if via_ss:
            ss_path = tmp_path / "f_ss.json"
            run(capsys, "convert", str(source), "--to", "ss", "-o", str(ss_path))
            source = ss_path
        code, _, err = run(capsys, "convert", str(source), "--to", "mfd", "-o", str(mfd_path))
        assert (code, err) == (0, "")
        code, _, _ = run(capsys, "check", str(mfd_path))
        assert code == 0

    def test_fir_to_laurent(self, tmp_path, capsys):
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2))
        source = tmp_path / "fir.json"
        write_document(source, form)
        out_path = tmp_path / "fir_laurent.json"
        code, _, _ = run(capsys, "convert", str(source), "--to", "laurent", "-o", str(out_path))
        assert code == 0
        code, _, _ = run(capsys, "check", str(out_path))
        assert code == 0

    def test_improper_bp_to_ss_is_input_error(self, tmp_path, capsys):
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2))
        source = tmp_path / "improper.json"
        write_document(source, form)
        code, _, err = run(capsys, "convert", str(source), "--to", "ss", "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "flip" in err


def write_rotated_pair(tmp_path, perturbed=False):
    """Paths of a 4x2 d8 cascade ss document and of the same realization after a
    seeded unitary state change, whose ``A`` is dense."""
    form = random_form(8, ISO, 4, 2, 8, schur_only=True)
    if perturbed:
        form = perturb_direction(form, 1.01, 4)
    ss = bp_to_realization(form, validate=False)
    u = random_unitary(np.random.default_rng(8), ss.n)
    dense = StateSpaceRealization(u.conj().T @ ss.a @ u, u.conj().T @ ss.b, ss.c @ u, ss.d)
    paths = tmp_path / "triangular.json", tmp_path / "dense.json"
    for path, realization in zip(paths, (ss, dense)):
        write_document(path, realization)
    return paths


def verdict_lines(out):
    """``(certificate, verdict)`` of every certificate line the CLI printed."""
    return [(line.split()[0], line.rsplit("=", 1)[1]) for line in out.splitlines() if "verdict=" in line]


class TestDenseRealization:
    def test_commands_match_the_triangular_document(self, tmp_path, capsys):
        reports = []
        for path in write_rotated_pair(tmp_path):
            mfd = path.with_name(f"{path.stem}_mfd.json")
            runs = [
                run(capsys, "check", str(path)), run(capsys, "gramians", str(path)),
                run(capsys, "convert", str(path), "--to", "mfd", "-o", str(mfd)), run(capsys, "check", str(mfd)),
                run(capsys, "eval", str(path), "--at", "0.6,0.8"),
            ]
            assert [code for code, _, _ in runs] == [0] * len(runs)
            value = np.array([[complex(x) for x in line.split()] for line in runs[-1][1].splitlines()[1:]])
            reports.append(([verdict_lines(out) for _, out, _ in runs], value))
        (triangular, expected), (dense, value) = reports
        assert dense == triangular
        assert [verdict for _, verdict in sum(dense, [])] == ["Pass"] * 6
        assert np.linalg.norm(value - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_perturbed_dense_document_fails(self, tmp_path, capsys):
        triangular, dense = (run(capsys, "check", str(path)) for path in write_rotated_pair(tmp_path, perturbed=True))
        assert dense[0] == triangular[0] == 1
        assert verdict_lines(dense[1]) == verdict_lines(triangular[1])

    @pytest.mark.parametrize("command", ["check", "gramians"])
    def test_one_schur_factorization_per_command(self, monkeypatch, tmp_path, capsys, command):
        calls = []
        schur = paraunit.linalg._schur
        monkeypatch.setattr(paraunit.linalg, "_schur", lambda a: calls.append(1) or schur(a))
        triangular, dense = write_rotated_pair(tmp_path)
        assert run(capsys, command, str(triangular))[0] == 0 and not calls
        assert run(capsys, command, str(dense))[0] == 0
        assert len(calls) == 1


class TestFlipAndEmbed:
    def test_flip_makes_checkable(self, tmp_path, capsys):
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2))
        source = tmp_path / "improper.json"
        write_document(source, form)
        flipped_path = tmp_path / "flipped.json"
        code, _, _ = run(capsys, "flip", str(source), "-o", str(flipped_path))
        assert code == 0
        loaded = read_document(flipped_path)
        assert all(abs(pole.value) < 1 for pole in loaded.poles)
        code, _, _ = run(capsys, "convert", str(flipped_path), "--to", "ss", "-o", str(tmp_path / "ok.json"))
        assert code == 0

    def test_embed_ss(self, tmp_path, capsys):
        source = tmp_path / "ss.json"
        write_document(source, row_example_ss_normalized())
        out_path = tmp_path / "embedded.json"
        code, _, _ = run(capsys, "embed", str(source), "-o", str(out_path))
        assert code == 0
        embedded = read_document(out_path)
        r = embedded.realization_matrix
        assert np.linalg.norm(r.conj().T @ r - np.eye(3)) <= 1e-10

    def test_embed_non_lossless_ss_exits_two(self, tmp_path, capsys):
        # square (residual 0.75) and tall realizations that are not lossless
        for c, d in [([[1.0]], [[0.0]]), ([[1.0], [0.0]], [[0.0], [1.0]])]:
            source = tmp_path / "bad.json"
            write_document(source, StateSpaceRealization([[0.5]], [[1.0]], c, d))
            out_path = tmp_path / "embedded.json"
            code, _, err = run(capsys, "embed", str(source), "-o", str(out_path))
            assert code == 2
            assert "not (co)isometric" in err
            assert not out_path.exists()

    def test_embed_bp_prints_constant(self, tmp_path, capsys):
        source = tmp_path / "bp.json"
        write_document(source, row_example_bp())
        out_path = tmp_path / "square.json"
        code, out, _ = run(capsys, "embed", str(source), "-o", str(out_path))
        assert code == 0
        assert "constant" in out
        square = read_document(out_path)
        assert square.p == square.m == 2


class TestGramians:
    def test_worked_example_report(self, tmp_path, capsys):
        source = tmp_path / "ss.json"
        write_document(source, row_example_ss_normalized())
        code, out, _ = run(capsys, "gramians", str(source))
        assert code == 0
        values = {}
        for line in out.splitlines():
            if line.startswith("W_"):
                name, _, value = line.partition(" = ")
                values[name] = float(value)
        assert abs(values["W_cont"] - 1.0) <= 1e-10
        assert abs(values["W_obs"] - 0.5) <= 1e-10

    def test_pole_inside_schur_margin_exits_by_realization(self, tmp_path, capsys):
        path = write_edge_unitary_ss(tmp_path)
        code, out, err = run(capsys, "gramians", str(path))
        assert code == 0, err
        assert "gramian certificates skipped" in out
        assert "realization_unitary" in out and "verdict=Pass" in out
        assert "W_cont" not in out

    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_stateless_realization(self, tmp_path, capsys, shape):
        isometry = random_unitary(np.random.default_rng(5), 3)[:, :2]
        path = tmp_path / "ss.json"
        write_document(path, constant_system(isometry if shape == "tall" else isometry.T))
        code, out, err = run(capsys, "check", str(path))
        assert code == 0, err
        verdicts = dict(verdict_lines(out))
        assert set(verdicts.values()) == {"Pass"}
        assert any(name.startswith("gramian_") for name in verdicts)
        code, out, err = run(capsys, "gramians", str(path))
        assert code == 0, err
        lines = out.splitlines()
        assert "W_cont = (empty 0x0)" in lines and "W_obs = (empty 0x0)" in lines


class TestEval:
    def test_eval_at_point(self, tmp_path, capsys):
        source = tmp_path / "bp.json"
        write_document(source, row_example_bp())
        code, out, _ = run(capsys, "eval", str(source), "--at", "1,0")
        assert code == 0
        assert "0.70710678" in out

    def test_eval_at_pole_is_input_error(self, tmp_path, capsys):
        source = tmp_path / "bp.json"
        write_document(source, row_example_bp())
        code, _, err = run(capsys, "eval", str(source), "--at", "0.5,0")
        assert code == 2

    @pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf", "nan"])
    def test_eval_at_non_finite_point_is_input_error(self, tmp_path, capsys, point):
        source = tmp_path / "bp.json"
        write_document(source, row_example_bp())
        code, out, err = run(capsys, "eval", str(source), "--at", point)
        assert code == 2
        assert out == "" and "--at" in err


class TestFit:
    def test_fit_degree_one_recovers_and_checks(self, tmp_path, capsys):
        target = build_paraunitary(random_params(17, ISO, 2, 1, 1, schur_only=True))
        zs = circle_points(32)
        source = tmp_path / "samples.json"
        write_document(source, SampleSet(list(zip(zs, target.eval_many(zs)))))
        out_path = tmp_path / "fit.json"
        code, out, _ = run(capsys, "fit", str(source), "--degree", "1", "-o", str(out_path))
        assert code == 0
        objective_line = next(line for line in out.splitlines() if line.startswith("objective = "))
        assert float(objective_line.split("=")[1]) <= 1e-8
        assert read_document(out_path).d == 1
        code, _, _ = run(capsys, "check", str(out_path))
        assert code == 0

    def test_fit_wide_samples_writes_a_coiso_form(self, tmp_path, capsys):
        target = build_paraunitary(random_params(17, COISO, 2, 3, 2, schur_only=True))
        zs = circle_points(32)
        source = tmp_path / "samples.json"
        write_document(source, SampleSet(list(zip(zs, target.eval_many(zs)))))
        out_path = tmp_path / "fit.json"
        code, out, _ = run(capsys, "fit", str(source), "--degree", "2", "-o", str(out_path))
        assert code == 0 and "converged = yes" in out
        fitted = read_document(out_path)
        assert (fitted.side, fitted.p, fitted.m, fitted.d) == (COISO, 2, 3, 2)
        code, _, _ = run(capsys, "check", str(out_path))
        assert code == 0

    def test_fit_constant(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        u = random_unitary(rng, 2)[:, :1]
        form = BlaschkePotapovForm(ISO, 2, 1, [], u)
        zs = circle_points(8)
        samples = SampleSet([(z, form(z)) for z in zs])
        source = tmp_path / "samples.json"
        write_document(source, samples)
        out_path = tmp_path / "fit.json"
        code, out, _ = run(
            capsys,
            "fit", str(source), "--degree", "0", "--restarts", "2", "-o", str(out_path),
        )
        assert code == 0
        assert "objective" in out
        fitted = read_document(out_path)
        assert fitted.p == 2 and fitted.m == 1


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/path.json")
        assert code == 2

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_wrong_kind_for_gramians(self, tmp_path, capsys):
        path = tmp_path / "bp.json"
        write_document(path, row_example_bp())
        code, _, err = run(capsys, "gramians", str(path))
        assert code == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_pole_is_input_error(self, tmp_path, capsys, value):
        path = tmp_path / "bp.json"
        write_document(path, row_example_bp())
        data = json.loads(path.read_text())
        data["payload"]["factors"][0]["pole"]["value"][0] = value
        path.write_text(json.dumps(data))  # NaN / Infinity tokens, or a 401-digit integer
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "payload.factors[0].pole.value[0]" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload.update(side="x"), "side must be 'iso' or 'coiso'"),
            (
                lambda payload: payload["factors"][0]["pole"].update(value=[1.0, 0.0]),
                "of the unit circle",
            ),
        ],
        ids=["side", "pole_on_circle"],
    )
    def test_constructor_error_names_the_file(self, tmp_path, capsys, edit, message):
        path = edited_bp(tmp_path, edit)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err and message in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["direction", "constant"])
    def test_huge_entry_is_one_error_line(self, tmp_path, capsys, field):
        def edit(payload):
            matrix = payload["factors"][0]["direction"] if field == "direction" else payload["constant"]
            matrix["entries"][0][0] = [1e300, 0.0]

        code, out, err = run(capsys, "check", str(edited_bp(tmp_path, edit)))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ss_to_mfd_is_one_error_line(self, tmp_path, capsys):
        ss, out = tmp_path / "ss.json", tmp_path / "mfd.json"
        huge = np.full((2, 2), 1e300)
        write_document(ss, StateSpaceRealization(np.diag([0.5, 0.2]), huge, huge, np.zeros((2, 2))))
        code, printed, err = run(capsys, "convert", str(ss), "--to", "mfd", "-o", str(out))
        assert code == 2
        assert printed == "" and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "overflowed" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kind, field", [("ss", "a"), ("ss", "d"), ("mfd", "num"), ("mfd", "den")]
    )
    def test_huge_ss_or_mfd_entry_fails_with_inf(self, tmp_path, capsys, kind, field):
        ss = row_example_ss_normalized()
        path = tmp_path / f"{kind}.json"
        write_document(path, ss if kind == "ss" else ss_to_mfd(ss, LEFT))
        data = json.loads(path.read_text())
        matrix = data["payload"][field]
        (matrix if kind == "ss" else matrix[0])["entries"][0][0] = [1e300, 0.0]
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert err == ""
        line = next(line for line in out.splitlines() if line.startswith(("realization", "mfd")))
        assert "residual=inf" in line and "verdict=Fail" in line

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["check", "gramians"])
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_overflowing_gramian_fails_with_inf(self, tmp_path, capsys, command, shape):
        path = tmp_path / "ss.json"
        write_document(path, overflowing_realization(shape))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert err == ""
        line = next(line for line in out.splitlines() if line.startswith("gramian_cont"))
        assert "residual=inf" in line and "verdict=Fail" in line
        assert "residual=nan" not in out

    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_overflowed_gramian_prints_no_entries(self, tmp_path, capsys, shape):
        path = tmp_path / "ss.json"
        write_document(path, overflowing_realization(shape))
        code, out, err = run(capsys, "gramians", str(path))
        assert code == 1
        assert "nan" not in out and "Warning" not in err
        assert "W_cont = (overflowed 1x1)" in out.splitlines()
        assert "W_obs = " in out and "W_obs = (overflowed" not in out


def golden_document(tmp_path, kind):
    """Path of one small valid document of ``kind``."""
    fir = BlaschkePotapovForm(ISO, 2, 2, [(Pole(0.0), [1.0, 0.0]), (Pole.infinity(), [0.0, 1.0])], np.eye(2))
    zs = circle_points(8)
    obj = {
        "bp": row_example_bp,
        "ss": row_example_ss_normalized,
        "mfd": lambda: ss_to_mfd(row_example_ss_normalized(), LEFT),
        "laurent": lambda: bp_to_laurent(fir),
        "params": lambda: random_params(0, ISO, 2, 1, 1),
        "samples": lambda: SampleSet(list(zip(zs, row_example_bp().eval_many(zs)))),
    }[kind]()
    path = tmp_path / f"{kind}.json"
    write_document(path, obj)
    return path


#: Each command line (the document path goes second, and ``-o`` follows
#: when the command writes) with the document kinds it reads.
READS = {
    "check": (("check",), False, ("bp", "ss", "mfd", "laurent", "params")),
    "eval": (("eval", "--at", "0.3,0.2"), False, ("bp", "ss", "mfd", "laurent", "params")),
    "convert-ss": (("convert", "--to", "ss"), True, ("bp", "params")),
    "convert-laurent": (("convert", "--to", "laurent"), True, ("bp", "params")),
    "convert-mfd": (("convert", "--to", "mfd"), True, ("bp", "ss", "params")),
    "embed": (("embed",), True, ("bp", "ss", "params")),
    "flip": (("flip",), True, ("bp", "params")),
    "gramians": (("gramians",), False, ("ss",)),
    "fit": (("fit", "--degree", "1"), True, ("samples",)),
}
REFUSED = [
    pytest.param(command, writes, kind, id=f"{name}-{kind}")
    for name, (command, writes, kinds) in READS.items()
    for kind in ("bp", "ss", "mfd", "laurent", "params", "samples")
    if kind not in kinds
]


class TestDocumentKinds:
    @pytest.mark.parametrize("command, writes, kind", REFUSED)
    def test_command_refuses_a_kind_it_does_not_read(self, tmp_path, capsys, command, writes, kind):
        out_path = tmp_path / "out.json"
        argv = [command[0], str(golden_document(tmp_path, kind)), *command[1:]]
        code, out, err = run(capsys, *argv, *(["-o", str(out_path)] if writes else []))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"got {kind!r}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["check", "eval"])
    @pytest.mark.parametrize(
        "params", [random_params(0, ISO, 2, 1, 1), random_params(5, COISO, 2, 3, 2)], ids=["iso", "coiso"]
    )
    def test_params_document_reads_as_its_product_form(self, tmp_path, capsys, command, params):
        # a params document is lossless by construction, so it never exits 2
        paths = tmp_path / "params.json", tmp_path / "bp.json"
        write_document(paths[0], params)
        write_document(paths[1], build_paraunitary(params))
        extra = ["--at", "0.3,0.2"] if command == "eval" else []
        (code, out, err), twin = (run(capsys, command, str(path), *extra) for path in paths)
        assert (code, out, err) == twin
        assert code == 0 and err == ""
        if command == "check":
            assert verdict_lines(out) == [("circle_residual", "Pass")]

    @pytest.mark.parametrize(
        "command",
        [("convert", "--to", "mfd"), ("convert", "--to", "ss"), ("flip",), ("embed",)],
        ids=["mfd", "ss", "flip", "embed"],
    )
    @pytest.mark.parametrize("side, p, m", [(ISO, 3, 2), (COISO, 2, 3)])
    def test_params_document_writes_its_product_forms_document(self, tmp_path, capsys, command, side, p, m):
        params = random_params(4, side, p, m, 3, schur_only=True)
        write_document(tmp_path / "params.json", params)
        write_document(tmp_path / "bp.json", build_paraunitary(params))
        reports = []
        for name in ("params", "bp"):
            out_path = tmp_path / f"{name}_out.json"
            code, out, err = run(capsys, command[0], str(tmp_path / f"{name}.json"), *command[1:], "-o", str(out_path))
            reports.append((code, out.replace(str(out_path), "OUT"), err, out_path.read_bytes()))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0


class TestMain:
    @pytest.mark.parametrize("document, code", [("failing", 1), ("malformed", 2)])
    def test_process_exits_with_the_command_code(self, tmp_path, document, code):
        path = tmp_path / "doc.json"
        if document == "failing":
            write_document(path, row_example_ss_unnormalized())
        else:
            path.write_text("{}")
        paths = [str(Path(paraunit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-m", "paraunit.cli", "check", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == code
        assert ("verdict=Fail" in done.stdout) if code == 1 else done.stderr.startswith("error: ")
