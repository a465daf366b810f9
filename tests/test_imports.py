"""scipy is loaded only by the code that calls it.

Importing scipy.linalg and scipy.optimize costs more than most CLI commands
take, so the package imports them inside the functions that run them: the
Stein solve (``linalg.solve_stein``: its LAPACK triangular solves, plus the
Schur form when ``A`` is not triangular), the Schur form of a realization
whose ``A`` is not upper triangular (``transforms.ss_to_mfd``), the fit's
pole identification (``fit._loewner_poles``: its generalized eigenvalues) and
its search (``fit.minimize``).  Evaluating a realization, dense or triangular,
and reading its spectral radius need numpy alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import paraunit

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


def generate(path):
    return ["generate", "--seed", "7", "-d", "3", "-p", "3", "-m", "2", "--schur", "-o", str(path)]


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


def test_gramians_loads_linalg_but_not_optimize(tmp_path):
    bp, ss = tmp_path / "bp.json", tmp_path / "ss.json"
    loaded = scipy_modules_after(
        generate(bp), ["convert", str(bp), "--to", "ss", "-o", str(ss)], ["gramians", str(ss)]
    )
    assert "scipy.linalg" in loaded
    assert not [name for name in loaded if name.startswith("scipy.optimize")]


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
