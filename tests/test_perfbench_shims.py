"""The benchmark's span shims must resolve against the package.

``perfbench/tracing.py`` replaces package names by traced wrappers; a
renamed or moved name would make ``perfbench/run.py --trace 1`` raise.
"""

import importlib
import importlib.util
from pathlib import Path

import paraunit

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # ``import paraunit`` does not load every submodule a shim names (the CLI)
    for path, _, _ in module.SHIMS:
        if path:
            importlib.import_module(f"paraunit.{path.split('.')[0]}")
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


def test_cli_calls_every_shimmed_name(tmp_path):
    # a dispatch table of function objects would keep the originals and
    # record no span; the CLI no longer calls spectral_radius
    tracing = load_tracing()
    from paraunit.cli import execute
    from paraunit.documents import write_document

    bp, ss, mfd, fir, fir_laurent, flipped = (
        str(tmp_path / f"{name}.json") for name in ("bp", "ss", "mfd", "fir", "fir_laurent", "flipped")
    )
    write_document(fir, paraunit.BlaschkePotapovForm(
        "iso", 2, 2, [(paraunit.Pole.infinity(), [1.0, 0.0])], [[1.0, 0.0], [0.0, 1.0]]
    ))
    commands = [
        ["generate", "--seed", "7", "-d", "3", "-p", "3", "-m", "2", "--schur", "-o", bp],
        ["check", bp],
        ["convert", bp, "--to", "ss", "-o", ss],
        ["check", ss],
        ["convert", ss, "--to", "mfd", "-o", mfd],
        ["check", mfd],
        ["convert", fir, "--to", "laurent", "-o", fir_laurent],
        ["check", fir_laurent],
        ["gramians", ss],
        ["eval", bp, "--at", "0.3,0.2"],
        ["flip", fir, "-o", flipped],
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install(paraunit)
        codes = [tracer.call(f"cli.{argv[0]}", execute, argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    called = {
        name for name, _, _, parent, _, _ in tracer.spans
        if parent >= 0 and tracer.spans[parent][0].startswith("cli.")
    }
    expected = {name for path, _, name in tracing.SHIMS if path == "cli"} - {"linalg.spectral_radius"}
    assert expected <= called, sorted(expected - called)
