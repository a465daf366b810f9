"""The four benchmark workloads and the checks on every output.

A workload builds its inputs from the seed (:meth:`prepare`), runs one op
of each kind at small size (:meth:`warm_up`) and then runs rounds of its
fixed op list (:meth:`round`).  Every op is timed by :class:`Runner` and
checked afterwards: verdicts against their expected values, fits against
their accuracy bound, CLI calls against their exit code and the kind of the
document they wrote.  A failure is tagged with the known defect it
matches, if any:

* ``mfd_probe`` -- ``ss_to_mfd`` raises ``SingularDenominator`` at a probe
  point where its denominator is nonsingular but has a determinant at or
  below the absolute threshold ``MFD_PROBE_THRESHOLD`` (see
  :func:`mfd_probe`; the ladder's 4x2 and 3x3 forms of degree 16 to 64,
  and now and then a small form with a 3x3 or 4x4 denominator);
* ``circle_aliasing`` -- ``circle_residual`` passes a non-lossless form
  whose degree is at least half its sample count;
* ``fit_miss`` -- a fit ends above the accuracy bound; its output is still
  a lossless candidate with a truthful objective.

Any other failure is an incorrect output and clears ``correct``.  A step
that raises ends its part, but the part's checks still run on every result
stored before the raise; only the checks whose inputs are missing are
skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from inputs import (
    FIT_SAMPLES,
    Digest,
    Spec,
    circle_points,
    flip_scalar,
    negative_of,
    outside_pole,
    product_values,
    random_spec,
    schur_pole,
    schur_spec,
    side_for,
)

#: Fit accuracy bound on the objective.
FIT_OBJECTIVE_BOUND = 1e-6
#: A fitted candidate must be this lossless on the circle.
FIT_LOSSLESS_BOUND = 1e-10
#: Tolerance of the benchmark's own value checks, relative to the value norm.
VALUE_RTOL = 1e-9
#: Circle samples used by ``circle_residual`` by default.
CIRCLE_SAMPLES = 64
#: Known defects that leave ``correct`` set; see the module docstring.
KNOWN = ("mfd_probe", "circle_aliasing", "fit_miss")
#: ``MFDForm`` rejects a denominator whose determinant at a probe point is
#: at most this in absolute value.
MFD_PROBE_THRESHOLD = 1e-12
#: Slack on that threshold for rounding in the package's characteristic
#: polynomial coefficients.
MFD_PROBE_SLACK = 10.0
#: A pole this close to a probe point makes the denominator singular there.
POLE_CLEARANCE = 1e-8


@dataclass
class OpRecord:
    name: str
    start: float
    seconds: float
    problems: list = field(default_factory=list)
    verdicts: int = 0
    verdicts_ok: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Checks:
    """Collects the outcome of one op's checks."""

    def __init__(self):
        self.problems = []
        self.verdicts = 0
        self.verdicts_ok = 0

    def fail(self, reason: str, defect: str | None = None) -> None:
        self.problems.append({"reason": reason, "defect": defect})

    def verdict(self, label: str, cert, expected: str, degree: int = 0) -> None:
        """Compare a verdict with its expected value; ``None`` (its step
        raised, which is a failure already) is skipped."""
        if cert is None:
            return
        self.verdicts += 1
        if cert.verdict == expected:
            self.verdicts_ok += 1
            return
        aliasing = expected == "Fail" and label == "circle" and 2 * degree >= CIRCLE_SAMPLES
        self.fail(
            f"{label} verdict {cert.verdict}, expected {expected} (residual {cert.residual:.3e})",
            "circle_aliasing" if aliasing else None,
        )

    def close(self, label: str, actual, reference) -> None:
        actual = np.asarray(actual)
        reference = np.asarray(reference)
        gap = float(np.max(np.abs(actual - reference))) if actual.size else 0.0
        scale = max(1.0, float(np.max(np.abs(reference))) if reference.size else 1.0)
        if actual.shape != reference.shape or not gap <= VALUE_RTOL * scale:
            self.fail(f"{label} differs from the reference by {gap:.3e}")


class Part(NamedTuple):
    """One piece of an op.

    ``timed(out, steps)`` makes the program calls, naming each step in
    ``steps`` before it and storing each result in ``out`` as soon as it
    returns.  ``verify(out, checks)`` checks whatever ``out`` holds.
    ``known(step, exc)`` names the known defect a raise matches, or ``None``.
    """

    timed: Callable
    verify: Callable
    known: Callable = lambda step, exc: None


class Runner:
    """Times ops, runs their checks and keeps one record per op."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.records = []

    def run(self, name: str, *parts: Part) -> OpRecord:
        """Time one op made of ``parts``, then check each part.

        A part that raises is a failed op (the program raised on valid
        input); its checks still run on the results it stored, and later
        parts still run.
        """
        if self.reference is not None:
            self.reference.sample()
        if self.tracer is not None:
            self.tracer.op = name
        outcomes = []
        start = time.perf_counter()
        for part in parts:
            out, steps = {}, []
            try:
                part.timed(out, steps)
                outcomes.append((out, None, steps))
            except Exception as exc:
                outcomes.append((out, exc, steps))
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        checks = Checks()
        for (out, exc, steps), part in zip(outcomes, parts):
            if exc is not None:
                step = steps[-1] if steps else "start"
                checks.fail(f"{step} raised {type(exc).__name__}: {exc}", part.known(step, exc))
            part.verify(out, checks)
        record = OpRecord(name, start, seconds, checks.problems, checks.verdicts, checks.verdicts_ok)
        self.records.append(record)
        return record


def mfd_probe(spec: Spec) -> Callable:
    """Tags a probe-point ``SingularDenominator`` of ``ss_to_mfd`` on
    ``spec`` as ``mfd_probe`` when it is the absolute threshold rejecting a
    nonsingular denominator.

    ``ss_to_mfd`` returns the denominator ``chi_A(z) I_k`` (``k`` the smaller
    of ``p`` and ``m``), whose determinant at ``z0`` is
    ``prod(z0 - pole) ** k`` for the form's poles.  It is nonsingular unless
    a pole sits at ``z0``, yet falls below the threshold once ``k`` or the
    degree is large.  Any other raise is unexpected.
    """
    k = min(spec.p, spec.m)

    def known(step, exc):
        match = re.search(r"at probe point (\S+)$", str(exc))
        if step != "ss_to_mfd" or type(exc).__name__ != "SingularDenominator" or match is None:
            return None
        if any(pole is None for pole in spec.poles):
            return None
        z0 = complex(match.group(1))
        distances = np.abs(z0 - np.array(spec.poles))
        if distances.min() <= POLE_CLEARANCE:
            return None
        if float(np.prod(distances)) ** k <= MFD_PROBE_SLACK * MFD_PROBE_THRESHOLD:
            return "mfd_probe"
        return None

    return known


def reference_degree(ss) -> tuple:
    """Range of Hankel ranks a correct ``mcmillan_degree`` may return.

    Squared Hankel singular values from scipy's Lyapunov solver are counted
    against the package's 1e-9 threshold; values within a factor of ten of
    it may fall either way.
    """
    if ss.n == 0:
        return 0, 0
    a, b, c = np.asarray(ss.a), np.asarray(ss.b), np.asarray(ss.c)
    w_cont = scipy.linalg.solve_discrete_lyapunov(a, b @ b.conj().T)
    w_obs = scipy.linalg.solve_discrete_lyapunov(a.conj().T, c.conj().T @ c)
    squared = np.linalg.eigvals(w_cont @ w_obs).real
    return int(np.sum(squared > 1e-8)), int(np.sum(squared > 1e-10))


def bp_form(pu, spec: Spec, validate: bool = True):
    factors = [
        (pu.Pole.infinity() if pole is None else pu.Pole(pole), v)
        for pole, v in zip(spec.poles, spec.directions)
    ]
    return pu.BlaschkePotapovForm(spec.side, spec.p, spec.m, factors, spec.constant, validate=validate)


def spec_of(form) -> Spec:
    poles = tuple(None if pole.is_infinity else pole.value for pole in form.poles)
    directions = tuple(np.array(v) for _, v in form.factors)
    return Spec(form.side, form.p, form.m, poles, directions, np.array(form.constant))


class Workload:
    name = ""
    in_process = True

    def prepare(self, pu, seed: int) -> str:
        """Build the inputs for ``seed``; returns their digest."""
        raise NotImplementedError

    def warm_up(self, pu, runner: Runner) -> None:
        raise NotImplementedError

    def round(self, pu, runner: Runner) -> None:
        raise NotImplementedError


def suite_part(pu, spec: Spec) -> Part:
    """Full suite on a lossless Schur-stable form: every verdict Pass."""
    mfd_side = pu.RIGHT if spec.p >= spec.m else pu.LEFT

    def timed(out, steps):
        steps.append("construct")
        form = bp_form(pu, spec)
        steps.append("circle_residual")
        out["circle"] = pu.circle_residual(form)
        steps.append("bp_to_realization")
        ss = out["ss"] = pu.bp_to_realization(form)
        steps.append("realization_check")
        out["realization"] = pu.realization_check(ss)
        steps.append("gramian_certificate")
        out["gramians"] = pu.gramian_certificate(ss)[2]
        steps.append("mcmillan_degree")
        out["degree"] = pu.mcmillan_degree(ss)
        steps.append("ss_to_mfd")
        mfd = pu.ss_to_mfd(ss, mfd_side)
        steps.append("mfd_check")
        out["mfd"] = pu.mfd_check(mfd)

    def verify(out, checks):
        checks.verdict("circle", out.get("circle"), "Pass")
        ss = out.get("ss")
        if ss is not None and ss.n != spec.d:
            checks.fail(f"realization has {ss.n} states, expected {spec.d}")
        checks.verdict("realization", out.get("realization"), "Pass")
        for cert in out.get("gramians", ()):
            checks.verdict(cert.name, cert, "Pass")
        if "degree" in out:
            low, high = reference_degree(ss)
            if not low <= out["degree"] <= high:
                checks.fail(f"McMillan degree {out['degree']}, reference {low}..{high}")
        checks.verdict("mfd", out.get("mfd"), "Pass")

    return Part(timed, verify, mfd_probe(spec))


def negative_part(pu, spec: Spec, index: int) -> Part:
    """Direction ``index`` scaled off the sphere: circle, realization and mfd Fail."""
    bad = negative_of(spec, index)
    mfd_side = pu.RIGHT if spec.p >= spec.m else pu.LEFT

    def timed(out, steps):
        steps.append("construct")
        form = bp_form(pu, bad, validate=False)
        steps.append("circle_residual")
        out["circle"] = pu.circle_residual(form)
        steps.append("bp_to_realization")
        ss = pu.bp_to_realization(form, validate=False)
        steps.append("realization_check")
        out["realization"] = pu.realization_check(ss)
        steps.append("ss_to_mfd")
        mfd = pu.ss_to_mfd(ss, mfd_side)
        steps.append("mfd_check")
        out["mfd"] = pu.mfd_check(mfd)

    def verify(out, checks):
        checks.verdict("circle", out.get("circle"), "Fail", degree=spec.d)
        checks.verdict("realization", out.get("realization"), "Fail")
        checks.verdict("mfd", out.get("mfd"), "Fail")

    return Part(timed, verify, mfd_probe(spec))


def fir_part(pu, spec: Spec, expected: str) -> Part:
    """``bp_to_laurent`` then ``laurent_check`` on a form with poles at 0 and infinity."""

    def timed(out, steps):
        steps.append("construct")
        form = bp_form(pu, spec, validate=expected == "Pass")
        steps.append("bp_to_laurent")
        lp = pu.bp_to_laurent(form)
        out["gamma"] = lp.gamma
        steps.append("laurent_check")
        out["laurent"] = pu.laurent_check(lp)

    def verify(out, checks):
        if "gamma" in out and out["gamma"] != spec.d:
            checks.fail(f"Laurent form has {out['gamma'] + 1} coefficients, expected {spec.d + 1}")
        checks.verdict("laurent", out.get("laurent"), expected)

    return Part(timed, verify)


def flip_part(pu, spec: Spec) -> Part:
    """``flip_poles`` then ``circle_residual``; the result must equal ``F psi``."""
    point = np.exp(0.7j)

    def timed(out, steps):
        steps.append("construct")
        form = bp_form(pu, spec)
        steps.append("flip_poles")
        flipped = out["flipped"] = pu.flip_poles(form)
        steps.append("circle_residual")
        out["circle"] = pu.circle_residual(flipped)

    def verify(out, checks):
        if "flipped" not in out:
            return
        flipped = spec_of(out["flipped"])
        if any(pole is None or abs(pole) >= 1.0 for pole in flipped.poles):
            checks.fail("flip_poles left a pole outside the open disk")
            return
        checks.verdict("circle", out.get("circle"), "Pass")
        reference = product_values(spec, [point])[0] * flip_scalar(spec, point)
        checks.close("flipped value", product_values(flipped, [point])[0], reference)

    return Part(timed, verify)


class CertifySweep(Workload):
    """Many small forms: Python overhead and the scalar circle loop dominate.

    Each round covers every Schur form (suite plus negative control), every
    FIR form (Laurent certificate plus negative) and every outside-pole form
    (flip then circle check).
    """

    name = "certify_sweep"
    SCHUR_FORMS = 480
    FIR_FORMS = 60
    FLIP_FORMS = 60

    def prepare(self, pu, seed):
        rng = np.random.default_rng([seed, 1])
        digest = Digest()
        self.schur, self.firs, self.flips = [], [], []
        for _ in range(self.SCHUR_FORMS):
            d, p, m = (int(x) for x in rng.integers([1, 1, 1], [7, 5, 5]))
            spec = schur_spec(rng, side_for(rng, p, m), p, m, d)
            self.schur.append((spec, int(rng.integers(d))))
        for _ in range(self.FIR_FORMS):
            d, p, m = (int(x) for x in rng.integers([1, 1, 1], [7, 5, 5]))
            poles = [None if rng.uniform() < 0.5 else 0j for _ in range(d)]
            spec = random_spec(rng, side_for(rng, p, m), p, m, poles)
            self.firs.append((spec, int(rng.integers(d))))
        for _ in range(self.FLIP_FORMS):
            d, p, m = (int(x) for x in rng.integers([1, 1, 1], [7, 5, 5]))
            poles = [outside_pole(rng) if j == 0 or rng.uniform() < 0.5 else schur_pole(rng) for j in range(d)]
            rng.shuffle(poles)
            self.flips.append(random_spec(rng, side_for(rng, p, m), p, m, poles))
        for spec, index in self.schur + self.firs:
            digest.add(spec, index)
        for spec in self.flips:
            digest.add(spec)
        return digest.hexdigest()

    def warm_up(self, pu, runner):
        rng = np.random.default_rng(0)
        spec = schur_spec(rng, "iso", 2, 1, 2)
        runner.run("warm/suite", suite_part(pu, spec))
        runner.run("warm/negative", negative_part(pu, spec, 0))
        fir = random_spec(rng, "iso", 2, 1, [None, 0j])
        runner.run("warm/fir", fir_part(pu, fir, "Pass"))
        runner.run("warm/fir_negative", fir_part(pu, negative_of(fir, 1), "Fail"))
        runner.run("warm/flip", flip_part(pu, random_spec(rng, "iso", 2, 1, [None, 2.0 + 0j])))

    def round(self, pu, runner):
        for i, (spec, index) in enumerate(self.schur):
            runner.run(f"schur{i}/suite {spec.label()}", suite_part(pu, spec))
            runner.run(f"schur{i}/negative {spec.label()}", negative_part(pu, spec, index))
        for i, (spec, index) in enumerate(self.firs):
            runner.run(f"fir{i}/laurent {spec.label()}", fir_part(pu, spec, "Pass"))
            runner.run(f"fir{i}/negative {spec.label()}", fir_part(pu, negative_of(spec, index), "Fail"))
        for i, spec in enumerate(self.flips):
            runner.run(f"flip{i}/flip {spec.label()}", flip_part(pu, spec))


class CertifyLadder(Workload):
    """Few large forms: the Kronecker Stein solve dominates, fit is absent.

    An op here is one form through the full suite and its negative trio.
    With suite and negative control as separate ops the median fell on
    whichever degree-16 or degree-32 negative the seed made cheapest, and
    moved between 16 ms and 29 ms over five seeds.  A round runs the forms
    below degree 64 ``PASSES`` times and the degree-64 form (about 11 s)
    once, after the first pass.
    """

    name = "certify_ladder"
    SHAPES = (("coiso", 1, 2), ("iso", 4, 2), ("iso", 3, 3))
    DEGREES = (8, 16, 32)
    TOP = (64, ("iso", 4, 2))
    #: Non-lossless FIR ``cos(.3) + i sin(.3) z^32`` for the circle check.
    FIR_DEGREE = 32
    PASSES = 6

    def prepare(self, pu, seed):
        rng = np.random.default_rng([seed, 2])
        digest = Digest()
        cases = [(d, shape) for d in self.DEGREES for shape in self.SHAPES] + [self.TOP]
        self.forms = []
        for d, (side, p, m) in cases:
            spec = schur_spec(rng, side, p, m, d)
            index = int(rng.integers(d))
            self.forms.append((spec, index))
            digest.add(spec, index)
        coeffs = [np.zeros((1, 1), dtype=complex) for _ in range(self.FIR_DEGREE + 1)]
        coeffs[0][0, 0] = np.cos(0.3)
        coeffs[-1][0, 0] = 1j * np.sin(0.3)
        self.fir_coeffs = coeffs
        digest.add(*coeffs)
        return digest.hexdigest()

    def fir_negative(self, pu, runner, name, coeffs):
        def timed(out, steps):
            steps.append("construct")
            lp = pu.LaurentPolyForm(0, coeffs)
            steps.append("circle_residual")
            out["circle"] = pu.circle_residual(lp)
            steps.append("laurent_check")
            out["laurent"] = pu.laurent_check(lp)

        def verify(out, checks):
            checks.verdict("circle", out.get("circle"), "Fail", degree=len(coeffs) - 1)
            checks.verdict("laurent", out.get("laurent"), "Fail")

        runner.run(name, Part(timed, verify))

    def warm_up(self, pu, runner):
        # degree 16 is the smallest ladder size whose Kronecker solve takes
        # LAPACK's threaded path; its first call costs about 140 ms more
        rng = np.random.default_rng(0)
        spec = schur_spec(rng, "iso", 4, 2, 16)
        runner.run("warm/form", suite_part(pu, spec), negative_part(pu, spec, 0))
        coeffs = [np.full((1, 1), 0.6, dtype=complex), np.zeros((1, 1)), np.full((1, 1), 0.8j)]
        self.fir_negative(pu, runner, "warm/fir_negative", coeffs)

    def round(self, pu, runner):
        *smaller, (top, top_index) = self.forms
        for n in range(self.PASSES):
            for spec, index in smaller:
                runner.run(spec.label(), suite_part(pu, spec), negative_part(pu, spec, index))
            self.fir_negative(pu, runner, f"fir_negative d{self.FIR_DEGREE}", self.fir_coeffs)
            if n == 0:
                runner.run(top.label(), suite_part(pu, top), negative_part(pu, top, top_index))


class FitRecovery(Workload):
    """Lossless fits of criterion-8 shapes: the objective (``params`` ->
    ``forms``) dominates; no Stein solve or conversion runs.

    The targets are one fixed draw of the benchmark's generator, and the
    seed only orders the fits.  A Nelder-Mead fit's cost is chaotic in its
    target: with seeded targets one iso 3x2 d=2 fit took 11 s to 65 s, and
    a round of 27 fits of the other shapes ranged from 0.49 to 0.64 fits/s
    with its median latency jumping between 0.63 s and 1.35 s over four
    seeds.  A round fits every target ``PASSES`` times, so that the median
    op is measured more than once; iso 3x2 d=2 is left out because its one
    fit (23 s for this draw) leaves no room for repeated passes in a run.
    """

    name = "fit_recovery"
    SHAPES = (
        ("iso", 1, 1, 0), ("iso", 1, 1, 1), ("iso", 2, 1, 1), ("iso", 2, 2, 1),
        ("coiso", 1, 2, 1), ("iso", 2, 1, 2), ("iso", 3, 2, 1), ("coiso", 2, 2, 1),
        ("coiso", 1, 2, 2),
    )
    #: Seed of the fixed target draw.
    TARGET_DRAW = 8
    RESTARTS = 8
    PASSES = 3

    def prepare(self, pu, seed):
        rng = np.random.default_rng(self.TARGET_DRAW)
        order = np.random.default_rng([seed, 3]).permutation(len(self.SHAPES))
        digest = Digest()
        self.zs = circle_points(FIT_SAMPLES)
        targets = []
        for side, p, m, d in self.SHAPES:
            spec = schur_spec(rng, side, p, m, d)
            fit_seed = int(rng.integers(2**31))
            targets.append((spec, fit_seed, product_values(spec, self.zs)))
        self.targets = [targets[i] for i in order]
        for spec, fit_seed, values in self.targets:
            digest.add(spec, fit_seed, values)
        return digest.hexdigest()

    def fit(self, pu, runner, name, spec, fit_seed, values):
        zs = self.zs

        def timed(out, steps):
            steps.append("SampleSet")
            samples = pu.SampleSet(list(zip(zs, values)))
            steps.append("fit_lossless")
            result = out["result"] = pu.fit_lossless(
                samples, d=spec.d, p=spec.p, m=spec.m, side=spec.side,
                seed=fit_seed, restarts=self.RESTARTS,
            )
            steps.append("build_paraunitary")
            candidate = out["candidate"] = pu.build_paraunitary(result.params)
            steps.append("circle_residual")
            out["circle"] = pu.circle_residual(candidate)

        def verify(out, checks):
            if "circle" in out and out["circle"].residual > FIT_LOSSLESS_BOUND:
                checks.fail(f"candidate circle residual {out['circle'].residual:.3e} above {FIT_LOSSLESS_BOUND:.0e}")
            if "result" not in out:
                return
            result = out["result"]
            if "candidate" in out:
                own = float(np.sum(np.abs(product_values(spec_of(out["candidate"]), zs) - values) ** 2))
                if not abs(own - result.objective) <= 1e-9 + 1e-6 * own:
                    checks.fail(f"reported objective {result.objective:.3e} but the candidate gives {own:.3e}")
            if result.objective > FIT_OBJECTIVE_BOUND:
                checks.fail(f"objective {result.objective:.3e} above {FIT_OBJECTIVE_BOUND:.0e}", "fit_miss")

        runner.run(name, Part(timed, verify))

    def warm_up(self, pu, runner):
        rng = np.random.default_rng(0)
        spec = schur_spec(rng, "iso", 2, 1, 1)
        self.fit(pu, runner, "warm/fit", spec, 1, product_values(spec, self.zs))

    def round(self, pu, runner):
        for n in range(self.PASSES):
            for spec, fit_seed, values in self.targets:
                self.fit(pu, runner, spec.label(), spec, fit_seed, values)


class CliPipeline(Workload):
    """Sequential ``python -m paraunit.cli`` children: interpreter start,
    ``import paraunit`` and JSON documents dominate.

    A pass runs the lossless chain for each chain seed, the pole flip and
    the malformed document; a round is ``PASSES`` passes, so that each call
    is timed more than once.  Children stay cold, as CLI users run them.
    """

    name = "cli_pipeline"
    in_process = False
    CHAINS = 1
    PASSES = 2
    EVAL_POINT = 0.3 + 0.2j
    #: A ``bp`` document without its factors and constant.
    BAD_DOCUMENT = '{"format_version": "paraunit/1", "kind": "bp", "payload": {"side": "iso", "p": 2}}\n'

    def __init__(self, work, env):
        self.work = work
        self.env = env
        self.bytes_written = 0
        self.in_process_cli = None

    def path(self, name):
        return os.path.join(self.work, name)

    def prepare(self, pu, seed):
        rng = np.random.default_rng([seed, 4])
        seeds = [int(s) for s in rng.integers(2**31, size=self.CHAINS + 1)]
        os.makedirs(self.work, exist_ok=True)
        with open(self.path("bad.json"), "w", encoding="utf-8") as handle:
            handle.write(self.BAD_DOCUMENT)
        self.calls = []
        for i, s in enumerate(seeds[:-1]):
            bp, ss, mfd = (self.path(f"chain{i}_{kind}.json") for kind in ("bp", "ss", "mfd"))
            self.calls += [
                (f"chain{i}/generate", ["generate", "--seed", str(s), "-d", "8", "-p", "3", "-m", "2", "--schur", "-o", bp], 0, (bp, "bp")),
                (f"chain{i}/check bp", ["check", bp], 0, None),
                (f"chain{i}/convert ss", ["convert", bp, "--to", "ss", "-o", ss], 0, (ss, "ss")),
                (f"chain{i}/check ss", ["check", ss], 0, None),
                (f"chain{i}/convert mfd", ["convert", ss, "--to", "mfd", "-o", mfd], 0, (mfd, "mfd")),
                (f"chain{i}/check mfd", ["check", mfd], 0, None),
                (f"chain{i}/gramians", ["gramians", ss], 0, None),
                (f"chain{i}/eval", ["eval", bp, "--at", f"{self.EVAL_POINT.real},{self.EVAL_POINT.imag}"], 0, ("eval", bp)),
            ]
        src, out = self.path("flip_src.json"), self.path("flip_out.json")
        self.calls += [
            ("flip/generate", ["generate", "--seed", str(seeds[-1]), "-d", "4", "-p", "2", "-m", "2", "-o", src], 0, (src, "bp")),
            ("flip/flip", ["flip", src, "-o", out], 0, (out, "bp")),
            ("flip/check", ["check", out], 0, None),
            ("bad/check", ["check", self.path("bad.json")], 2, None),
        ]
        digest = Digest()
        for name, args, code, _ in self.calls:
            digest.add(name, [os.path.basename(a) if a.startswith(self.work) else a for a in args], code)
        digest.add(self.BAD_DOCUMENT)
        return digest.hexdigest()

    def child(self, args):
        """Run one CLI child; returns ``(exit code, stdout, stderr)``."""
        done = subprocess.run(
            [sys.executable, "-m", "paraunit.cli", *args], cwd=self.work, env=self.env,
            capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL,
        )
        return done.returncode, done.stdout, done.stderr

    def execute_in_process(self, args):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.in_process_cli.execute(args)
        return code, stdout.getvalue(), stderr.getvalue()

    def one(self, runner, name, args, code, expect):
        subcommand = args[0]

        def timed(out, steps):
            steps.append(subcommand)
            if self.in_process_cli is None:
                out["done"] = self.child(args)
            elif runner.tracer is None:
                out["done"] = self.execute_in_process(args)
            else:
                out["done"] = runner.tracer.call(f"cli.{subcommand}", self.execute_in_process, args)

        def verify(out, checks):
            if "done" not in out:
                return
            got, stdout, stderr = out["done"]
            if got != code:
                checks.fail(f"exit code {got}, expected {code}: {stderr.strip()[-200:]}")
                return
            if expect is None:
                return
            target, kind = expect
            if target == "eval":
                check_eval(stdout, kind, self.EVAL_POINT, checks)
                return
            try:
                with open(target, encoding="utf-8") as handle:
                    written = json.load(handle).get("kind")
            except (OSError, ValueError) as exc:
                checks.fail(f"no readable document at {os.path.basename(target)}: {exc}")
                return
            if written != kind:
                checks.fail(f"wrote a {written!r} document, expected {kind!r}")
            self.bytes_written += os.path.getsize(target)

        runner.run(name, Part(timed, verify))

    def clear(self):
        for name, args, _, expect in self.calls:
            if expect is not None and expect[0] != "eval" and os.path.exists(expect[0]):
                os.remove(expect[0])

    def warm_up(self, pu, runner):
        # one discarded child warms the file cache; children stay cold otherwise
        name, args, code, expect = self.calls[0]
        self.clear()
        self.one(runner, "warm/" + name, args, code, expect)

    def round(self, pu, runner):
        for _ in range(self.PASSES):
            self.clear()
            for name, args, code, expect in self.calls:
                self.one(runner, name, args, code, expect)


def check_eval(stdout: str, bp_path: str, z: complex, checks: Checks) -> None:
    """Compare ``eval`` output with the product formula on the document read as JSON."""
    lines = stdout.strip().splitlines()
    try:
        rows = [[complex(token) for token in line.split()] for line in lines[1:]]
        value = np.array(rows, dtype=complex)
        with open(bp_path, encoding="utf-8") as handle:
            spec = spec_from_document(json.load(handle))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.fail(f"eval output or document unreadable: {exc}")
        return
    checks.close("eval value", value, product_values(spec, [z])[0])


def spec_from_document(data: dict) -> Spec:
    def matrix(entry):
        return np.array([[complex(*x) for x in row] for row in entry["entries"]], dtype=complex)

    payload = data["payload"]
    poles, directions = [], []
    for factor in payload["factors"]:
        pole = factor["pole"]
        poles.append(None if pole["type"] == "infinity" else complex(*pole["value"]))
        directions.append(matrix(factor["direction"]).reshape(-1))
    return Spec(payload["side"], payload["p"], payload["m"], tuple(poles), tuple(directions), matrix(payload["constant"]))


WORKLOADS = {
    cls.name: cls for cls in (FitRecovery, CertifySweep, CertifyLadder, CliPipeline)
}
