"""Command-line interface.

Subcommands: ``generate``, ``check``, ``convert``, ``embed``, ``flip``,
``gramians``, ``eval``, ``fit``.  Reports go to standard output; documents
are written to files only.  Exit codes: 0 when every requested certificate
passed (or the operation succeeded), 1 when a certificate failed, 2 on
usage or input errors.  The ``PARAUNIT_TOL`` environment variable overrides
the default certificate tolerance; ``--tol`` overrides both.  Either must be
a finite number ``>= 0``, or the command exits 2.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys

import numpy as np

from .analysis import (
    circle_residual,
    gramian_certificate,
    laurent_check,
    mfd_check,
    realization_check,
)
from .documents import kind_of, read_document, write_document
from .errors import DocumentError
from .fit import fit_lossless
from .forms import (
    COISO,
    ISO,
    LEFT,
    RIGHT,
    BlaschkePotapovForm,
    LaurentPolyForm,
    MFDForm,
    StateSpaceRealization,
    evaluate,
)
# perfbench/tracing.py shims cli.spectral_radius, so the name stays importable here
from .linalg import spectral_radius  # noqa: F401
from .params import build_paraunitary, random_params
from .tolerances import SCHUR_MARGIN
from .transforms import (
    allpass_embed,
    bp_to_laurent,
    bp_to_mfd,
    bp_to_realization,
    embed_to_square,
    flip_poles,
    ss_to_mfd,
)


def _format_real(x: float) -> str:
    return format(float(x), ".17g")

def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _format_real(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}j"


def _print_matrix(name: str, a) -> None:
    a = np.asarray(a)
    if a.size == 1:
        print(f"{name} = {_format_complex(a.reshape(-1)[0])}")
        return
    if a.size == 0:
        print(f"{name} = (empty {a.shape[0]}x{a.shape[1]})")
        return
    print(f"{name} =")
    for i in range(a.shape[0]):
        print("  " + "  ".join(_format_complex(a[i, j]) for j in range(a.shape[1])))


def _print_certificates(certs) -> int:
    for cert in certs:
        print(
            f"{cert.name:<26} residual={cert.residual:.6e} "
            f"tolerance={cert.tolerance:.6e} verdict={cert.verdict}"
        )
    return 0 if all(cert.passed for cert in certs) else 1


def _resolve_tol(args) -> float | None:
    """``--tol``, else ``PARAUNIT_TOL``, else ``None``; either must be finite and >= 0."""
    if getattr(args, "tol", None) is not None:
        source, tol = "--tol", args.tol
    else:
        env = os.environ.get("PARAUNIT_TOL")
        if not env:
            return None
        source = "PARAUNIT_TOL"
        try:
            tol = float(env)
        except ValueError as exc:
            raise DocumentError(f"PARAUNIT_TOL is not a number: {env!r}") from exc
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DocumentError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


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
    side = args.side
    if side is None:
        side = ISO if args.p >= args.m else COISO
    params = random_params(args.seed, side, args.p, args.m, args.degree, schur_only=args.schur)
    form = build_paraunitary(params)
    write_document(args.output, form)
    print(f"wrote {side} {form.p}x{form.m} degree-{form.d} document to {args.output}")
    return 0


def _gramians_exist(ss: StateSpaceRealization) -> bool:
    """Whether the gramians of ``ss`` exist; prints a note when they do not.

    The Stein solver needs a spectral radius below ``1 - SCHUR_MARGIN``; a
    lossless realization with a pole closer to the circle is still certified
    by its realization matrix.  The radius is read off the realization's
    Schur view, which the gramian solves then reuse.
    """
    if ss.n == 0 or float(np.max(np.abs(ss.pole_candidates()))) < 1.0 - SCHUR_MARGIN:
        return True
    print("note: state matrix is not Schur stable; gramian certificates skipped")
    return False


def _collect_check_certificates(obj, tol: float | None):
    kwargs = {"tol": tol} if tol is not None else {}
    if isinstance(obj, BlaschkePotapovForm):
        return [circle_residual(obj, **kwargs)]
    if isinstance(obj, StateSpaceRealization):
        certs = [realization_check(obj, **kwargs)]
        if _gramians_exist(obj):
            certs.extend(gramian_certificate(obj, **kwargs)[2])
        return certs
    if isinstance(obj, MFDForm):
        return [mfd_check(obj, tol=tol)]
    if isinstance(obj, LaurentPolyForm):
        return [laurent_check(obj, **kwargs)]
    raise DocumentError(f"documents of kind {kind_of(obj)!r} have no certificates")


def _cmd_check(args) -> int:
    obj = read_document(args.file)
    certs = _collect_check_certificates(obj, _resolve_tol(args))
    return _print_certificates(certs)


def _cmd_convert(args) -> int:
    obj = read_document(args.file)
    if args.to == "ss":
        if not isinstance(obj, BlaschkePotapovForm):
            raise DocumentError("convert --to ss expects a bp document")
        result = bp_to_realization(obj)
    elif args.to == "mfd":
        if not isinstance(obj, (BlaschkePotapovForm, StateSpaceRealization)):
            raise DocumentError("convert --to mfd expects a bp or ss document")
        side = args.side
        if side is None:
            side = RIGHT if obj.p >= obj.m else LEFT
        convert = bp_to_mfd if isinstance(obj, BlaschkePotapovForm) else ss_to_mfd
        result = convert(obj, side)
    elif args.to == "laurent":
        if not isinstance(obj, BlaschkePotapovForm):
            raise DocumentError("convert --to laurent expects a bp document")
        result = bp_to_laurent(obj)
    else:  # pragma: no cover - argparse restricts choices
        raise DocumentError(f"unknown target {args.to!r}")
    write_document(args.output, result)
    print(f"wrote {kind_of(result)} document to {args.output}")
    return 0


def _cmd_embed(args) -> int:
    obj = read_document(args.file)
    if isinstance(obj, BlaschkePotapovForm):
        square, constant = embed_to_square(obj)
        write_document(args.output, square)
        _print_matrix("constant", constant)
        print(f"wrote square bp document to {args.output}")
        return 0
    if isinstance(obj, StateSpaceRealization):
        embedded = allpass_embed(obj)
        write_document(args.output, embedded)
        print(f"wrote embedded ss document to {args.output}")
        return 0
    raise DocumentError("embed expects a bp or ss document")


def _cmd_flip(args) -> int:
    obj = read_document(args.file)
    if not isinstance(obj, BlaschkePotapovForm):
        raise DocumentError("flip expects a bp document")
    write_document(args.output, flip_poles(obj))
    print(f"wrote flipped bp document to {args.output}")
    return 0


def _cmd_gramians(args) -> int:
    obj = read_document(args.file)
    if not isinstance(obj, StateSpaceRealization):
        raise DocumentError("gramians expects an ss document")
    tol = _resolve_tol(args)
    kwargs = {"tol": tol} if tol is not None else {}
    if not _gramians_exist(obj):
        return _print_certificates([realization_check(obj, **kwargs)])
    w_cont, w_obs, certs = gramian_certificate(obj, **kwargs)
    _print_matrix("W_cont", w_cont)
    _print_matrix("W_obs", w_obs)
    return _print_certificates(certs)


def _cmd_eval(args) -> int:
    obj = read_document(args.file)
    if not isinstance(
        obj, (BlaschkePotapovForm, StateSpaceRealization, MFDForm, LaurentPolyForm)
    ):
        raise DocumentError(f"documents of kind {kind_of(obj)!r} cannot be evaluated")
    z = _parse_point(args.at)
    _print_matrix(f"F({_format_complex(z)})", evaluate(obj, z))
    return 0


def _cmd_fit(args) -> int:
    samples = read_document(args.file)
    if kind_of(samples) != "samples":
        raise DocumentError("fit expects a samples document")
    side = args.side
    result = fit_lossless(
        samples,
        d=args.degree,
        p=samples.p,
        m=samples.m,
        side=side,
        seed=args.seed,
        restarts=args.restarts,
    )
    print(f"objective = {_format_real(result.objective)}")
    print(f"iterations = {result.iterations}")
    print(f"converged = {'yes' if result.converged else 'no'}")
    if args.output:
        write_document(args.output, build_paraunitary(result.params))
        print(f"wrote fitted bp document to {args.output}")
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
        help="seeded draws to start from; the poles identified from the samples "
        "start each draw first, so up to twice as many searches run (default: 8)",
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
