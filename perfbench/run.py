"""Benchmark runner for paraunit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src``.  After set-up (run
``SETUP_REPEATS`` times; the median is ``setup_s``) the workload runs whole
rounds of its fixed op list for about ``--seconds``: another round starts
only if the last round's duration still fits.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, with every time scaled by a
machine-speed reference (see ``reference.py``); ``--trace 1`` alternates
untraced rounds with rounds under span shims and reports the per-layer
metrics (per round, unscaled).  Every metric is printed by name with its
unit, and the last line of standard output is the JSON result.  Details
(environment, input digest, every failed op, spans) go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: Child that only imports the package and reports how long that took.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import paraunit; "
    "elapsed = time.perf_counter() - start; import json; "
    "print(json.dumps({'import_s': elapsed, 'file': paraunit.__file__}))"
)
LAYERS = ("linalg", "analysis", "transforms", "forms", "params", "fit", "documents", "cli")
CLI_SUBCOMMANDS = ("generate", "check", "convert", "gramians", "eval", "flip")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe(cwd: Path) -> float:
    """Import time of ``paraunit`` in a fresh child, which must load it from ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=cwd, env=child_env(),
        capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(report["file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"child imported paraunit from {report['file']}, not from {SRC}")
    return float(report["import_s"])


def op_latencies(records, reference=None) -> list:
    """Each distinct op's median timing over its repetitions in the run,
    each repetition scaled by ``reference`` if one is given."""
    timings = {}
    for record in records:
        seconds = record.seconds
        if reference is not None:
            seconds *= reference.scale(record.start, record.start + record.seconds)
        timings.setdefault(record.name, []).append(seconds)
    return [statistics.median(values) for values in timings.values()]


def set_up(workload, pu, seed: int, work: Path, reference) -> tuple:
    """One set-up: child import, inputs, warm-up.

    Returns ``(raw seconds, scaled seconds, child import seconds, digest,
    warm-up records)``; the scale comes from reference kernels timed just
    before and after.
    """
    from workloads import Runner

    if reference is not None:
        reference.sample(reference.burst)
    began = time.perf_counter()
    import_s = import_probe(work)
    probe_wall = time.perf_counter() - began
    digest = workload.prepare(pu, seed)
    runner = Runner()
    workload.warm_up(pu, runner)
    ended = time.perf_counter()
    seconds = import_s + ended - began - probe_wall
    scale = 1.0
    if reference is not None:
        reference.sample(reference.burst)
        scale = reference.scale(began, ended)
    return seconds, seconds * scale, import_s, digest, runner.records


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    if len(ordered) < 100:
        return None, None
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run_rounds(workload, pu, seconds: float, plain, traced):
    """Whole rounds until the next one would overrun ``seconds``.

    With a tracer on ``traced``, untraced and traced rounds alternate, so
    both see the same machine state.  Returns the round times of each.
    """
    tracer = traced.tracer
    plain_s, traced_s = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        workload.round(pu, plain)
        plain_s.append(time.perf_counter() - began)
        if tracer is not None:
            tracer.install(pu)
            try:
                began = time.perf_counter()
                workload.round(pu, traced)
                traced_s.append(time.perf_counter() - began)
            finally:
                tracer.uninstall()
        last = plain_s[-1] + (traced_s[-1] if traced_s else 0.0)
        if time.perf_counter() - start + last > seconds:
            return plain_s, traced_s


def layer_metrics(tracer, records, rounds: int, import_s: float, workload) -> dict:
    from tracing import SHIMS

    summary = tracer.summary()

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0) / rounds

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / rounds

    def ok_ratio(name):
        entry = summary.get(name)
        return (entry["calls"] - entry["errors"]) / entry["calls"] if entry else 0.0

    names = [name for name, *_ in tracer.spans]
    restarts = sum(
        1 for name, _, _, parent, _, _ in tracer.spans
        if name == "params.random_params" and parent >= 0 and names[parent] == "fit.fit_lossless"
    )
    fits = records if workload.name == "fit_recovery" else []
    verdicts = sum(r.verdicts for r in records)
    values = {
        "analysis.verdict_ok_ratio": sum(r.verdicts_ok for r in records) / verdicts if verdicts else 0.0,
        "transforms.ss_to_mfd_ok_ratio": ok_ratio("transforms.ss_to_mfd"),
        "fit.restarts_used": restarts / rounds,
        "fit.recovered_ratio": (
            sum(1 for r in fits if not any(p["defect"] == "fit_miss" for p in r.problems)) / len(fits)
            if fits else 0.0
        ),
        "cli.import_s": import_s,
    }
    span_names = {name for _, _, name in SHIMS} | {f"cli.{sub}" for sub in CLI_SUBCOMMANDS}
    for name in span_names | set(summary):
        values[f"{name}_s"] = self_s(name)
        values[f"{name}_calls"] = calls(name)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in summary.items() if name.split(".")[0] == layer
        ) / rounds
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "paraunit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no paraunit sources (src/paraunit) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    sys.path[:0] = [str(HERE), str(SRC)]
    from env import environment
    from reference import CHILD_NOMINAL_S, Reference, child_kernel
    from tracing import Tracer
    from workloads import KNOWN, WORKLOADS, CliPipeline, Runner

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    import paraunit as pu
    import paraunit.cli

    import_in_process_s = time.perf_counter() - began
    if not Path(pu.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported paraunit from {pu.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    workload = cls(str(work), child_env()) if cls is CliPipeline else cls()

    reference = None
    if not args.trace:
        if workload.in_process:
            reference = Reference()
        else:
            reference = Reference(lambda: child_kernel(child_env()), CHILD_NOMINAL_S, every_s=0.5, burst=1)
    raw_setups, setups, import_times, warm = [], [], [], []
    for _ in range(SETUP_REPEATS):
        raw_s, scaled_s, import_s, digest, records = set_up(workload, pu, args.seed, work, reference)
        raw_setups.append(raw_s)
        setups.append(scaled_s)
        import_times.append(import_s)
        warm.extend(records)

    tracer = None
    if args.trace:
        tracer = Tracer()
        if not workload.in_process:
            workload.in_process_cli = paraunit.cli
    workload.bytes_written = 0
    plain, traced = Runner(reference=reference), Runner(tracer)
    plain_s, traced_s = run_rounds(workload, pu, args.seconds, plain, traced)
    runner, durations = (traced, traced_s) if args.trace else (plain, plain_s)

    records = runner.records
    latencies = op_latencies(records, reference)
    raw_latencies = op_latencies(records)
    failed = [r for r in records if r.failed]
    everything = warm + plain.records + traced.records
    unknown = [r for r in everything if any(p["defect"] not in KNOWN for p in r.problems)]
    tail_s, tail_pct = tail(latencies)
    # for the CLI, the largest child reaped so far; the import probes are smaller
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    if args.trace:
        values = layer_metrics(tracer, records, len(durations), statistics.median(import_times), workload)
        values["documents.bytes_written"] = workload.bytes_written / (len(plain_s) + len(traced_s))
        values["trace.round_s"] = statistics.median(plain_s)
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this benchmark does not measure: {missing}", file=sys.stderr)
        return 2
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in wanted}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT, args.seed),
        "input_sha256": digest,
        "import_in_process_s": import_in_process_s,
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "ops_per_s": len(raw_latencies) / sum(raw_latencies),
            "op_p50_ms": 1000.0 * statistics.median(raw_latencies),
        },
        "reference_s": None if reference is None else {
            "nominal": reference.nominal_s,
            "samples": len(reference.samples),
            "median": statistics.median(s for _, s in reference.samples),
            "quartiles": statistics.quantiles([s for _, s in reference.samples], n=4),
        },
        "child_import_s": import_times,
        "rounds": len(durations),
        "round_s": durations,
        "untraced_round_s": plain_s if args.trace else None,
        "ops": len(records),
        "ops_per_round": len(records) // len(durations),
        "fail_frac": len(failed) / len(records),
        "op_tail_ms": None if tail_s is None else {"value": 1000.0 * tail_s, "percentile": tail_pct, "ops": len(latencies)},
        "verdicts": sum(r.verdicts for r in records),
        "verdicts_ok": sum(r.verdicts_ok for r in records),
        "metrics": metrics,
        "op_ms": [[r.name, r.start, 1000.0 * r.seconds] for r in records],
        "reference_samples": None if reference is None else reference.samples,
        "failures": [{"op": r.name, "problems": r.problems} for r in failed],
        "warm_up_failures": [{"op": w.name, "problems": w.problems} for w in warm if w.failed],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        details["spans"] = tracer.summary()
        details["spans_file"] = f"{stem}.spans.jsonl.gz"
        tracer.write(results / details["spans_file"])
    (results / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in {len(durations)} rounds, inputs {digest[:16]}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if reference is not None:
        raw = details["raw"]
        print(
            f"unscaled: setup_s {raw['setup_s']:.6g} s, ops_per_s {raw['ops_per_s']:.6g} 1/s, "
            f"op_p50_ms {raw['op_p50_ms']:.6g} ms; reference kernel median "
            f"{1000.0 * details['reference_s']['median']:.4g} ms (nominal {1000.0 * reference.nominal_s:.4g} ms)"
        )
    print(f"fail_frac = {details['fail_frac']:.6g} ratio ({len(failed)} of {len(records)} ops)")
    if tail_s is not None:
        print(f"op_tail_ms = {1000.0 * tail_s:.6g} ms (p{tail_pct:.1f} of {len(latencies)} distinct ops)")
    reasons = {}
    for record in failed:
        for problem in record.problems:
            key = (problem["defect"] or "unexpected", problem["reason"].split(":")[0])
            reasons[key] = reasons.get(key, 0) + 1
    for (defect, reason), count in sorted(reasons.items()):
        print(f"problem [{defect}] in {count} checks: {reason}")
    for record in unknown:
        print(f"unexpected failure in {record.name}: {record.problems}")
    print(f"details: {(results / (stem + '.json')).relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
