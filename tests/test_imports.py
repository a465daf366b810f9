"""scipy is loaded only by the code that calls it.

Importing scipy.linalg and scipy.optimize costs more than most CLI commands
take, so the package imports them inside the functions that run them: the
Stein solve of order above ``STEIN_DENSE_ORDER_LIMIT``
(``linalg._solve_stein_schur``: its LAPACK triangular solves), the Schur
form of a matrix that is not upper triangular (``linalg._schur_form``,
which decides the structure of a realization's Schur view, its spectral
radius and its Stein solve once) and the fit's search (``fit.minimize``),
which runs only when the start from the identified product does not
already recover the target.  Evaluating a realization whose ``A`` is
upper triangular, reading its spectral radius, solving its Stein pair up
to that order (one dense numpy solve), multiplying it out into a fraction
and identifying a fit's poles (one standard eigenproblem) need numpy alone,
so the CLI pipeline ``generate → convert → check`` on a degree-8 form loads
no scipy module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paraunit
from paraunit import (
    COISO,
    ISO,
    SampleSet,
    StateSpaceRealization,
    bp_to_realization,
    build_paraunitary,
    random_params,
)
from paraunit.documents import write_document
from paraunit.tolerances import STEIN_DENSE_ORDER_LIMIT
from conftest import circle_points, random_unitary

PACKAGE = Path(paraunit.__file__).parent

CHILD = """
import json, sys
import paraunit, paraunit.cli
for argv in json.loads(sys.argv[1]):
    code = paraunit.cli.execute(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def scipy_modules_after(*commands):
    """scipy modules loaded by a fresh interpreter that runs the CLI commands."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([list(argv) for argv in commands])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def generate(path, degree=3):
    return ["generate", "--seed", "7", "-d", str(degree), "-p", "3", "-m", "2", "--schur", "-o", str(path)]


def realization(tmp_path, degree):
    """Commands writing a package-built (upper triangular) ``ss`` document of the degree."""
    bp, ss = tmp_path / "bp.json", tmp_path / "ss.json"
    return ss, [generate(bp, degree), ["convert", str(bp), "--to", "ss", "-o", str(ss)]]


def test_import_loads_no_scipy():
    assert scipy_modules_after() == []


def test_commands_without_stein_solve_or_fit_load_no_scipy(tmp_path):
    bp, ss, mfd = tmp_path / "bp.json", tmp_path / "ss.json", tmp_path / "mfd.json"
    commands = [
        generate(bp), ["check", str(bp)], ["eval", str(bp), "--at", "0.3,0.2"],
        ["convert", str(bp), "--to", "mfd", "-o", str(mfd)], ["check", str(mfd)],
        ["convert", str(bp), "--to", "ss", "-o", str(ss)], ["convert", str(ss), "--to", "mfd", "-o", str(mfd)],
    ]
    assert scipy_modules_after(*commands) == []


def test_small_realization_check_and_gramians_load_no_scipy(tmp_path):
    # a Stein pair of order STEIN_DENSE_ORDER_LIMIT is one dense numpy solve
    ss, commands = realization(tmp_path, STEIN_DENSE_ORDER_LIMIT)
    assert scipy_modules_after(*commands, ["check", str(ss)], ["gramians", str(ss)]) == []


def test_gramians_loads_linalg_but_not_optimize(tmp_path):
    # one order past the dense bound, the column loop calls LAPACK's ztrtrs
    ss, commands = realization(tmp_path, STEIN_DENSE_ORDER_LIMIT + 1)
    loaded = scipy_modules_after(*commands, ["check", str(ss)], ["gramians", str(ss)])
    assert "scipy.linalg" in loaded
    assert not [name for name in loaded if name.startswith("scipy.optimize")]


def test_dense_state_matrix_loads_linalg_for_its_schur_view(tmp_path):
    ss = bp_to_realization(build_paraunitary(random_params(7, ISO, 3, 2, 3, schur_only=True)))
    v = random_unitary(np.random.default_rng(7), 3)
    dense = StateSpaceRealization(v @ ss.a @ v.conj().T, v @ ss.b, ss.c @ v.conj().T, ss.d)
    assert np.tril(dense.a, -1).any()
    path = tmp_path / "dense.json"
    write_document(path, dense)
    loaded = scipy_modules_after(["check", str(path)], ["gramians", str(path)])
    assert "scipy.linalg" in loaded


def test_cli_pipeline_loads_no_scipy(tmp_path):
    # perfbench's cli_pipeline command list, less its malformed-document call (exit 2)
    bp, ss, mfd = tmp_path / "bp.json", tmp_path / "ss.json", tmp_path / "mfd.json"
    src, out = tmp_path / "flip_src.json", tmp_path / "flip_out.json"
    commands = [
        ["generate", "--seed", "11", "-d", "8", "-p", "3", "-m", "2", "--schur", "-o", str(bp)],
        ["check", str(bp)],
        ["convert", str(bp), "--to", "ss", "-o", str(ss)], ["check", str(ss)],
        ["convert", str(ss), "--to", "mfd", "-o", str(mfd)], ["check", str(mfd)],
        ["gramians", str(ss)], ["eval", str(bp), "--at", "0.3,0.2"],
        ["generate", "--seed", "12", "-d", "4", "-p", "2", "-m", "2", "-o", str(src)],
        ["flip", str(src), "-o", str(out)], ["check", str(out)],
    ]
    assert scipy_modules_after(*commands) == []


@pytest.mark.parametrize("side, p, m", [(ISO, 2, 1), (COISO, 1, 2)])
def test_fit_from_the_identified_product_loads_no_optimize(tmp_path, side, p, m):
    target = build_paraunitary(random_params(17, side, p, m, 1, schur_only=True))
    zs = circle_points(32)
    samples = tmp_path / "samples.json"
    write_document(samples, SampleSet(list(zip(zs, target.eval_many(zs)))))
    loaded = scipy_modules_after(["fit", str(samples), "--degree", "1"])
    # the pencil's eigenvalues come from numpy's standard eigvals, and no
    # search runs, so nothing of scipy loads
    assert loaded == []


def module_level_nodes(tree):
    """Every node that runs when the module is imported: function bodies are skipped."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in module_level_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"
            ]
    assert offenders == []
