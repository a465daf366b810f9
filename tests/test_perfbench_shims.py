"""The benchmark's span shims must resolve against the package.

``perfbench/tracing.py`` replaces package names by traced wrappers; a
renamed or moved name would make ``perfbench/run.py --trace 1`` raise.
"""

import importlib.util
from pathlib import Path

import paraunit

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_target_resolves():
    tracing = load_tracing()
    for path, attr, name in tracing.SHIMS:
        owner = paraunit
        for part in filter(None, path.split(".")):
            owner = getattr(owner, part)
        # install reads class attributes through __dict__, so they must be
        # defined on the class itself, not inherited
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"{path or 'paraunit'}.{attr} (span {name}) does not resolve"


def test_install_records_spans_and_uninstall_restores():
    tracing = load_tracing()
    form = paraunit.build_paraunitary(paraunit.random_params(3, "iso", 2, 1, 2))
    before = paraunit.circle_residual
    tracer = tracing.Tracer()
    try:
        tracer.install(paraunit)
        paraunit.circle_residual(form)
    finally:
        tracer.uninstall()
    assert paraunit.circle_residual is before
    summary = tracer.summary()
    assert summary["analysis.circle_residual"]["calls"] == 1
    assert summary["forms.eval_many"]["calls"] == 1
    assert "forms.eval_point" not in summary
