"""Command-line interface.

Reports go to standard output; documents are written to files only.  Each
subcommand reads the document kinds listed here:

- ``generate`` reads none and writes a ``bp`` document;
- ``check`` reads ``bp``, ``ss``, ``mfd`` or ``laurent``;
- ``eval`` reads ``bp``, ``ss``, ``mfd`` or ``laurent``;
- ``convert`` reads ``bp`` for ``--to ss`` and ``--to laurent``, ``bp`` or
  ``ss`` for ``--to mfd``;
- ``embed`` reads ``bp`` or ``ss``;
- ``flip`` reads ``bp``;
- ``gramians`` reads ``ss``;
- ``fit`` reads ``samples``.

A ``params`` document reads as its product form wherever ``bp`` is read.
Exit codes: 0 when every requested certificate passed (or the operation
succeeded), 1 when a certificate failed, 2 on usage or input errors, a
document of a kind the command does not read included.  The
``PARAUNIT_TOL`` environment variable overrides the default certificate
tolerance; ``--tol`` overrides both.  Either must be a finite number
``>= 0``, or the command exits 2.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import math
import os
import sys

import numpy as np

from .documents import kind_of, read_document, write_document
from .errors import DocumentError, NotSchurStable, SideMismatch
from .forms import COISO, ISO, LEFT, RIGHT, evaluate
# perfbench/tracing.py shims cli.spectral_radius, so the name stays importable here
from .linalg import spectral_radius  # noqa: F401


def _deferred(module: str, name: str):
    """Stand-in for ``name`` of the package's ``module`` that imports the
    module on its first call, so that a command loads only what it runs."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# module attributes that the commands call through, as perfbench/tracing.py
# shims them here
circle_residual = _deferred("analysis", "circle_residual")
gramian_certificate = _deferred("analysis", "gramian_certificate")
laurent_check = _deferred("analysis", "laurent_check")
mfd_check = _deferred("analysis", "mfd_check")
realization_check = _deferred("analysis", "realization_check")
fit_lossless = _deferred("fit", "fit_lossless")
build_paraunitary = _deferred("params", "build_paraunitary")
random_params = _deferred("params", "random_params")
allpass_embed = _deferred("transforms", "allpass_embed")
bp_to_laurent = _deferred("transforms", "bp_to_laurent")
bp_to_mfd = _deferred("transforms", "bp_to_mfd")
bp_to_realization = _deferred("transforms", "bp_to_realization")
embed_to_square = _deferred("transforms", "embed_to_square")
flip_poles = _deferred("transforms", "flip_poles")
ss_to_mfd = _deferred("transforms", "ss_to_mfd")


def _format_real(x: float) -> str:
    return format(float(x), ".17g")

def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _format_real(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}j"


def _format_matrix(name: str, a) -> str:
    a = np.asarray(a)
    if a.size == 1:
        return f"{name} = {_format_complex(a.reshape(-1)[0])}"
    if a.size == 0:
        return f"{name} = (empty {a.shape[0]}x{a.shape[1]})"
    rows = ("  " + "  ".join(_format_complex(x) for x in row) for row in a)
    return "\n".join((f"{name} =", *rows))


def _print_certificates(certs) -> int:
    for cert in certs:
        print(
            f"{cert.name:<26} residual={cert.residual:.6e} "
            f"tolerance={cert.tolerance:.6e} verdict={cert.verdict}"
        )
    return 0 if all(cert.passed for cert in certs) else 1


def _read(args, *kinds):
    """The document at ``args.file``, whose kind must be one of ``kinds``; a
    ``params`` document reads as its product form where ``bp`` is read."""
    obj = read_document(args.file)
    kind = kind_of(obj)
    if kind == "params" and "bp" in kinds:
        return build_paraunitary(obj)
    if kind not in kinds:
        command = f"convert --to {args.to}" if args.command == "convert" else args.command
        raise DocumentError(f"{command} reads documents of kind {', '.join(kinds)}; got {kind!r}")
    return obj


def _resolve_tol(args) -> dict:
    """Certificate keyword arguments: ``{"tol": t}`` from ``--tol``, else from
    ``PARAUNIT_TOL``, else ``{}``; ``t`` must be finite and >= 0."""
    if args.tol is not None:
        source, tol = "--tol", args.tol
    else:
        env = os.environ.get("PARAUNIT_TOL")
        if not env:
            return {}
        source = "PARAUNIT_TOL"
        try:
            tol = float(env)
        except ValueError as exc:
            raise DocumentError(f"PARAUNIT_TOL is not a number: {env!r}") from exc
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DocumentError(f"{source} must be a finite number >= 0, got {tol!r}")
    return {"tol": tol}


def _write(args, obj, what: str, *report: str) -> int:
    """Write ``obj`` to ``args.output``, then print the ``report`` lines and
    the ``wrote`` line; returns the exit code 0."""
    write_document(args.output, obj)
    print(*report, f"wrote {what} document to {args.output}", sep="\n")
    return 0


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            z = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
            if cmath.isfinite(z):
                return z
    except ValueError:
        pass
    raise DocumentError(f"--at expects finite 're,im', got {text!r}")


def _cmd_generate(args) -> int:
    side = args.side or (ISO if args.p >= args.m else COISO)
    params = random_params(args.seed, side, args.p, args.m, args.degree, schur_only=args.schur)
    form = build_paraunitary(params)
    return _write(args, form, f"{side} {form.p}x{form.m} degree-{form.d}")


def _gramian_certificate(ss, **kwargs):
    """:func:`gramian_certificate` of ``ss``, or ``None`` with a note when its
    Stein solve finds a pole within ``SCHUR_MARGIN`` of the circle: a
    lossless realization with such a pole is still certified by its
    realization matrix."""
    try:
        return gramian_certificate(ss, **kwargs)
    except NotSchurStable:
        print("note: state matrix is not Schur stable; gramian certificates skipped")
        return None


def _cmd_check(args) -> int:
    obj = _read(args, "bp", "ss", "mfd", "laurent")
    kind, kwargs = kind_of(obj), _resolve_tol(args)
    if kind == "bp":
        certs = [circle_residual(obj, **kwargs)]
    elif kind == "ss":
        certs = [realization_check(obj, **kwargs)]
        gramians = _gramian_certificate(obj, **kwargs)
        certs += [] if gramians is None else gramians[2]
    elif kind == "mfd":
        try:
            certs = [mfd_check(obj, **kwargs)]
        except SideMismatch:  # no Hankel test on this side of its shape
            certs = [circle_residual(obj, **kwargs)]
    else:
        certs = [laurent_check(obj, **kwargs)]
    return _print_certificates(certs)


def _cmd_convert(args) -> int:
    if args.to == "mfd":
        obj = _read(args, "bp", "ss")
        side = args.side or (RIGHT if obj.p >= obj.m else LEFT)
        result = (bp_to_mfd if kind_of(obj) == "bp" else ss_to_mfd)(obj, side)
    else:
        obj = _read(args, "bp")
        result = bp_to_realization(obj) if args.to == "ss" else bp_to_laurent(obj)
    return _write(args, result, kind_of(result))


def _cmd_embed(args) -> int:
    obj = _read(args, "bp", "ss")
    if kind_of(obj) == "ss":
        return _write(args, allpass_embed(obj), "embedded ss")
    square, constant = embed_to_square(obj)
    return _write(args, square, "square bp", _format_matrix("constant", constant))


def _cmd_flip(args) -> int:
    return _write(args, flip_poles(_read(args, "bp")), "flipped bp")


def _cmd_gramians(args) -> int:
    obj = _read(args, "ss")
    kwargs = _resolve_tol(args)
    gramians = _gramian_certificate(obj, **kwargs)
    if gramians is None:
        return _print_certificates([realization_check(obj, **kwargs)])
    w_cont, w_obs, certs = gramians
    for name, gramian in (("W_cont", w_cont), ("W_obs", w_obs)):
        if np.isfinite(gramian).all():
            print(_format_matrix(name, gramian))
        else:
            print(f"{name} = (overflowed {gramian.shape[0]}x{gramian.shape[1]})")
    return _print_certificates(certs)


def _cmd_eval(args) -> int:
    obj = _read(args, "bp", "ss", "mfd", "laurent")
    z = _parse_point(args.at)
    print(_format_matrix(f"F({_format_complex(z)})", evaluate(obj, z)))
    return 0


def _cmd_fit(args) -> int:
    samples = _read(args, "samples")
    result = fit_lossless(
        samples,
        d=args.degree,
        p=samples.p,
        m=samples.m,
        side=args.side,
        seed=args.seed,
        restarts=args.restarts,
    )
    print(f"objective = {_format_real(result.objective)}")
    print(f"iterations = {result.iterations}")
    print(f"converged = {'yes' if result.converged else 'no'}")
    if args.output:
        _write(args, build_paraunitary(result.params), "fitted bp")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraunit",
        description=(
            "Construct, convert and certify rational matrix functions that "
            "are (co)isometric on the unit circle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a random product form and write it")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-d", "--degree", type=int, required=True)
    gen.add_argument("-p", type=int, required=True)
    gen.add_argument("-m", type=int, required=True)
    gen.add_argument("--side", choices=[ISO, COISO], default=None)
    gen.add_argument("--schur", action="store_true", help="poles inside the disk only")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_generate)

    chk = sub.add_parser("check", help="run every applicable certificate")
    chk.add_argument("file")
    chk.add_argument("--tol", type=float, default=None)
    chk.set_defaults(handler=_cmd_check)

    conv = sub.add_parser("convert", help="convert between representations")
    conv.add_argument("file")
    conv.add_argument("--to", choices=["ss", "mfd", "laurent"], required=True)
    conv.add_argument("--side", choices=[RIGHT, LEFT], default=None)
    conv.add_argument("-o", "--output", required=True)
    conv.set_defaults(handler=_cmd_convert)

    emb = sub.add_parser("embed", help="all-pass embed an ss / square-embed a bp")
    emb.add_argument("file")
    emb.add_argument("-o", "--output", required=True)
    emb.set_defaults(handler=_cmd_embed)

    flp = sub.add_parser("flip", help="move all poles inside the unit disk")
    flp.add_argument("file")
    flp.add_argument("-o", "--output", required=True)
    flp.set_defaults(handler=_cmd_flip)

    gram = sub.add_parser("gramians", help="gramians and their certificates")
    gram.add_argument("file")
    gram.add_argument("--tol", type=float, default=None)
    gram.set_defaults(handler=_cmd_gramians)

    ev = sub.add_parser("eval", help="evaluate a document at a point")
    ev.add_argument("file")
    ev.add_argument("--at", required=True, metavar="RE,IM")
    ev.set_defaults(handler=_cmd_eval)

    fit_cmd = sub.add_parser("fit", help="fit a lossless form to samples")
    fit_cmd.add_argument("file")
    fit_cmd.add_argument("--degree", type=int, required=True)
    fit_cmd.add_argument(
        "--restarts", type=int, default=8,
        help="seeded draws to start from, after one start from the poles and "
        "directions identified from the samples (default: 8)",
    )
    fit_cmd.add_argument("--seed", type=int, default=0)
    fit_cmd.add_argument("--side", choices=[ISO, COISO], default=None)
    fit_cmd.add_argument("-o", "--output", default=None)
    fit_cmd.set_defaults(handler=_cmd_fit)

    return parser


def execute(argv) -> int:
    """Run one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # ParaunitError subclasses ValueError; plain validation ValueErrors
        # are input errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
