"""Every threshold lives in ``paraunit.tolerances``, has a reader, and its orderings hold."""

import ast
from pathlib import Path

import paraunit
from paraunit import tolerances

THRESHOLD_SUFFIXES = (
    "_TOL", "_RTOL", "_MARGIN", "_LIMIT", "_SLACK", "_SKIP", "_OBJECTIVE", "_BUDGET",
)


def test_margin_ordering():
    # random and fitted radii are legal poles: the fit's radius chart relies
    # on this, which is why it makes no radius check of its own; and legal
    # poles inside the disk pass the Stein and cascade stability tests
    assert tolerances.RADIUS_MARGIN > tolerances.POLE_CIRCLE_MARGIN > tolerances.SCHUR_MARGIN


def module_level_names(tree):
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_every_threshold_has_a_reader():
    # a simplification that drops the last check on a threshold drops the
    # threshold too, so no knob is left that nothing reads
    package = Path(paraunit.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    defined = module_level_names(ast.parse((package / "tolerances.py").read_text()))
    assert defined
    assert [name for name in defined if name not in read] == []


def test_no_module_defines_its_own_threshold():
    package = Path(paraunit.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        offenders += [
            f"{path.name}: {name}"
            for name in module_level_names(ast.parse(path.read_text()))
            if name.endswith(THRESHOLD_SUFFIXES)
        ]
    assert offenders == []

