"""Every threshold lives in ``paraunit.tolerances``, and its orderings hold."""

import ast
from pathlib import Path

import paraunit
from paraunit import tolerances

THRESHOLD_SUFFIXES = (
    "_TOL", "_RTOL", "_MARGIN", "_LIMIT", "_SLACK", "_SKIP", "_OBJECTIVE", "_BUDGET",
)


def test_margin_ordering():
    # random and fitted radii are legal poles, and legal poles inside the
    # disk pass the Stein and cascade stability tests
    assert tolerances.RADIUS_MARGIN > tolerances.POLE_CIRCLE_MARGIN > tolerances.SCHUR_MARGIN


def test_no_module_defines_its_own_threshold():
    package = Path(paraunit.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith(THRESHOLD_SUFFIXES):
                    offenders.append(f"{path.name}: {target.id}")
    assert offenders == []

