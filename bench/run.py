"""hyperspec benchmark: seeded CLI workloads, checked outputs, per-layer spans.

Usage, from the repository root:

    python3 bench/run.py --workload spectrum-ladder --seed 1 --seconds 35 --trace 0
    python3 -m pytest -q bench        # self-test of the benchmark

Each workload is a closed loop with one client: ``hyperspec.cli.main`` is
called in-process with exactly the argv a user would type (``--out`` points
at a file under ``bench/out``), and the next job starts when the previous one
returns.  Neither ``--parallel`` nor ``--seed`` is passed, so the CLI's
defaults apply, and ``HYPERSPEC_BUDGET`` is unset.  Passes over the job list
repeat until the next pass would overrun ``--seconds`` (at least three
passes), and every timing is a median over passes.

The end-to-end times (``setup_s``, ``pass_s`` and the per-command sums) are
scaled to a reference host speed: a fixed slice of reference work runs
before every timed unit (each CLI call, each fresh interpreter), and the
run's medians are multiplied by the slice's reference time over its mean
measured time in the run (see hostspeed.py).  The unscaled wall times and the
slice times are printed and written to result.json.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at least two of each) and reports per-layer self
times and counts from spans recorded around the package's public functions
(see spans.py), plus the tracing overhead.  Every job's output is checked
(see checks.py) and must be byte-identical across all passes of a run.
Per-command times, fail_frac, per-job sha256 digests and the environment are
printed above the JSON line and written to ``bench/out/<workload>-trace<t>/``.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The package is imported from ``src/`` of the
checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import hostspeed
import workloads
from spans import COUNTS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

MIN_PASSES = 3
SETUP_REPEATS = 11

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}


def per_layer_names(span_names: list[str]) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "count"
        units["cli.self_s" if name == "cli.main" else f"{name}.self_s"] = "s"
        for extra in COUNTS.get(name, ()):
            units[f"{name}.{extra}"] = "count"
    units.update({"trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s"})
    return units


# -- one run -------------------------------------------------------------------


@dataclass
class PassRecord:
    traced: bool
    wall_s: float
    job_s: dict[str, float]
    spans: dict[str, list] = field(default_factory=dict)


@dataclass
class RunResult:
    jobs: list
    passes: list[PassRecord] = field(default_factory=list)
    attempted: int = 0
    failed_runs: set[tuple[int, str]] = field(default_factory=set)
    failures: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    # Reference slice times, one before each job of an untraced pass.
    slice_s: list[float] = field(default_factory=list)

    def fail(self, job: str, problem: str) -> None:
        self.failed_runs.add((len(self.passes), job))
        self.failures.setdefault(job, []).append(f"pass {len(self.passes)}: {problem}")


def _run_pass(jobs, result: RunResult, tracer: Tracer | None) -> None:
    import hyperspec.cli

    for job in jobs:
        job.out_path.unlink(missing_ok=True)
    codes: dict[str, object] = {}
    job_s: dict[str, float] = {}
    spans: dict[str, list] = {}
    wall = 0.0
    if tracer is not None:
        tracer.enabled = True
    try:
        for job in jobs:
            if tracer is None:
                result.slice_s.append(hostspeed.reference_slice())
            t0 = time.perf_counter()
            try:
                codes[job.name] = hyperspec.cli.main(list(job.argv))
            except Exception:  # a crashing job is a failed job, not a crashed run
                codes[job.name] = traceback.format_exc(limit=3)
            job_s[job.name] = time.perf_counter() - t0
            if tracer is not None:
                spans[job.name] = tracer.take()
            wall += time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.enabled = False
    result.passes.append(PassRecord(tracer is not None, wall, job_s, spans))
    payloads = {}
    for job in jobs:
        result.attempted += 1
        code = codes[job.name]
        if code != 0:
            result.fail(job.name, f"raised {code}" if isinstance(code, str) else f"exit {code}")
            continue
        try:
            data = job.out_path.read_bytes()
        except OSError as exc:
            result.fail(job.name, f"no output: {exc}")
            continue
        digest = hashlib.sha256(data).hexdigest()
        first = result.digests.setdefault(job.name, digest)
        if digest != first:
            result.fail(job.name, "output differs from pass 1")
            continue
        problems, payload = checks.check_job(job, data)
        for problem in problems:
            result.fail(job.name, problem)
        if payload is not None and not problems:
            payloads[job.name] = payload
            if "values" in payload:
                result.sizes[job.name] = len(payload["values"])
    for name, problems in checks.check_pass(jobs, payloads).items():
        for problem in problems:
            result.fail(name, problem)


def measure(jobs, seconds: float, tracer: Tracer | None = None, min_rounds: int = MIN_PASSES) -> RunResult:
    """Repeat passes over ``jobs`` until the next would overrun ``seconds``.

    Without a tracer every pass is untraced and at least ``min_rounds`` run.
    With one, rounds are an untraced pass followed by a traced pass.
    """
    result = RunResult(jobs)
    start = time.perf_counter()
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        _run_pass(jobs, result, None)
        if tracer is not None:
            _run_pass(jobs, result, tracer)
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > seconds:
            return result


# -- metrics -------------------------------------------------------------------


def measure_setup() -> list[tuple[float, float]]:
    """Wall times of fresh interpreters importing hyperspec.cli (first one discarded).

    Each is paired with the time of the reference slice run right before it.
    No timeout is passed: with one, subprocess polls the child in sleeps of up
    to 50 ms, which would quantise the measurement.
    """
    env = {k: v for k, v in os.environ.items() if k != "HYPERSPEC_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        slice_s = hostspeed.reference_slice()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import hyperspec.cli"],
            cwd=ROOT,
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append((time.perf_counter() - t0, slice_s))
    return times[1:]


def family_times(result: RunResult, passes: list[PassRecord], speed: float) -> dict[str, float]:
    """Median over passes of each command family's summed job time, times ``speed``."""
    families = sorted({job.family for job in result.jobs}, key=workloads.FAMILIES.index)
    out = {}
    for family in families:
        names = [job.name for job in result.jobs if job.family == family]
        out[f"{family}_s"] = speed * statistics.median(
            sum(p.job_s[name] for name in names) for p in passes
        )
    return out


def layer_metrics(result: RunResult, tracer: Tracer) -> tuple[dict[str, float], dict[str, list]]:
    """Per-pass per-layer totals (median over traced passes) and top self times by family."""
    traced = [p for p in result.passes if p.traced]
    untraced = [p for p in result.passes if not p.traced]
    units = per_layer_names(tracer.names)
    family_of = {job.name: job.family for job in result.jobs}
    per_pass: list[dict[str, float]] = []
    by_family: dict[str, dict[str, float]] = {}
    for record in traced:
        totals = dict.fromkeys(units, 0.0)
        for job_name, spans in record.spans.items():
            own = self_times(spans)
            family = by_family.setdefault(family_of[job_name], {})
            for span in spans:
                key = "cli.self_s" if span.name == "cli.main" else f"{span.name}.self_s"
                totals[f"{span.name}.calls"] += 1
                totals[key] += own[id(span)]
                family[span.name] = family.get(span.name, 0.0) + own[id(span)] / len(traced)
                for count, value in (span.counts or {}).items():
                    totals[f"{span.name}.{count}"] += value
                if (
                    span.name == "tensors.TensorOperator.apply"
                    and span.parent is not None
                    and span.parent.name == "tensors.nqz_power_iteration"
                ):
                    totals["tensors.nqz_power_iteration.applies"] += 1
        per_pass.append(totals)
    metrics = {name: statistics.median(t[name] for t in per_pass) for name in units}
    metrics["trace.pass_s"] = statistics.median(p.wall_s for p in traced)
    metrics["trace.untraced_pass_s"] = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    top = {
        family: sorted(times.items(), key=lambda item: -item[1])[:5]
        for family, times in by_family.items()
    }
    return metrics, top


def _openblas_version() -> str | None:
    import numpy

    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas_version(),
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def write_spans(path: Path, result: RunResult) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(
            "pass\tjob\tid\tparent\tthread\tname\tstart\tend\t"
            "cpu_start\tcpu_end\tproc_start\tproc_end\tcounts\n"
        )
        for number, record in enumerate(result.passes, 1):
            for job_name, spans in record.spans.items():
                spans = sorted(spans, key=lambda s: s.start)
                ids = {id(span): i for i, span in enumerate(spans)}
                for span in spans:
                    parent = ids.get(id(span.parent), "")
                    fh.write(
                        f"{number}\t{job_name}\t{ids[id(span)]}\t{parent}\t{span.thread}\t"
                        f"{span.name}\t{span.start:.9f}\t{span.end:.9f}\t"
                        f"{span.cpu_start:.9f}\t{span.cpu_end:.9f}\t"
                        f"{span.proc_start:.9f}\t{span.proc_end:.9f}\t"
                        f"{json.dumps(span.counts) if span.counts else ''}\n"
                    )


# -- entry point -----------------------------------------------------------------


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import hyperspec from this checkout's src/, never from elsewhere."""
    if not (SRC / "hyperspec" / "cli.py").is_file():
        raise ImportError(f"no hyperspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperspec.cli

    if SRC.resolve() not in Path(hyperspec.cli.__file__).resolve().parents:
        raise ImportError(f"hyperspec was imported from {hyperspec.cli.__file__}, not {SRC}")
    return hyperspec.cli


def summarize(result: RunResult, setup: list[tuple[float, float]] | None, tracer: Tracer | None):
    """End-to-end metrics (no tracer) or per-layer metrics, plus report extras."""
    untraced = [p for p in result.passes if not p.traced]
    speed = hostspeed.speed_factor(result.slice_s + [slice_s for _, slice_s in setup or ()])
    commands = family_times(result, untraced, speed)
    if tracer is None:
        metrics = {
            "setup_s": speed * statistics.median(wall for wall, _ in setup),
            "pass_s": speed * statistics.median(p.wall_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
        top = {}
    else:
        metrics, top = layer_metrics(result, tracer)
        units = per_layer_names(tracer.names)
    return metrics, units, commands, top


def _print_report(args, env, result, metrics, units, commands, top, tracer) -> None:
    failed = len(result.failed_runs)
    print(
        f"hyperspec benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    untraced = [p for p in result.passes if not p.traced]
    print(f"untraced passes {len(untraced)}, wall: "
          + " ".join(f"{p.wall_s:.3f}" for p in untraced) + " s")
    print(f"  reference slice: mean {statistics.fmean(result.slice_s):.4f} s over "
          f"{len(result.slice_s)} runs before jobs (reference {hostspeed.REFERENCE_SLICE_S:g} s)")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")
    for name, value in commands.items():
        print(f"  {name:48s} {value:14.6f} s   (scaled, median over untraced passes)")
    print(f"  {'fail_frac':48s} {failed / result.attempted:14.6f}     "
          f"({failed} of {result.attempted} job runs failed)")
    for job in result.jobs:
        times = [p.job_s[job.name] for p in untraced]
        size = f" values_out={result.sizes[job.name]}" if job.name in result.sizes else ""
        print(
            f"  job {job.name:32s} median wall {statistics.median(times):8.4f} s  "
            f"sha256 {result.digests.get(job.name, '-')[:16]}{size}"
        )
    for family, items in top.items():
        print(f"  top self time under {family}_s: "
              + ", ".join(f"{name} {value:.4f}s" for name, value in items))
    if tracer is not None and tracer.absent:
        print("  absent (not in this version of the package): " + ", ".join(tracer.absent))
    for job, problems in result.failures.items():
        for problem in problems:
            print(f"  FAILED {job}: {problem}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        cli = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("HYPERSPEC_BUDGET", None)
    work = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = measure_setup() if args.trace == 0 else None
    jobs = workloads.build(args.workload, args.seed, work, cli.main)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        result = measure(jobs, args.seconds, tracer, MIN_PASSES if tracer is None else 2)
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics, units, commands, top = summarize(result, setup, tracer)
    env = environment()
    _print_report(args, env, result, metrics, units, commands, top, tracer)
    if tracer is not None:
        write_spans(work / "spans.tsv", result)
    failed = len(result.failed_runs)
    (work / "result.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "env": env,
                "setup_wall_and_slice_s": setup,
                "pass_wall_s": [p.wall_s for p in result.passes if not p.traced],
                "pass_slice_s": result.slice_s,
                "commands": commands,
                "jobs": {
                    job.name: {
                        "argv": job.argv,
                        "sha256": result.digests.get(job.name),
                        "seconds": [p.job_s[job.name] for p in result.passes],
                        "values_out": result.sizes.get(job.name),
                    }
                    for job in jobs
                },
                "failures": result.failures,
                "absent": tracer.absent if tracer is not None else [],
                "metrics": metrics,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
