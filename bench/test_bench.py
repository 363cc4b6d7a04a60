"""Fast self-test of the benchmark itself.  Run with: python3 -m pytest -q bench

One pass of the smallest jobs must emit every metric BENCHMARK.json names,
with its unit, and corrupted or non-deterministic output must be counted as
failed.  The workloads' full job lists are exercised by bench/run.py.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The cheapest job of each command family the self-test covers.
SMALLEST = {
    "spectrum-ladder": ("spectrum-L-C5-k4",),
    "radius-ladder": ("h-spectrum-K8-k4", "rho-equality-K4"),
    "tensor-gauge": ("certificate-bip-n60-k6",),
}


@pytest.fixture(scope="module")
def cli():
    return run.import_package()


@pytest.fixture
def jobs(cli, tmp_path):
    out = []
    for workload, names in SMALLEST.items():
        work = tmp_path / workload
        work.mkdir()
        out += [job for job in workloads.build(workload, 7, work, cli.main) if job.name in names]
    assert sorted(job.name for job in out) == sorted(sum(SMALLEST.values(), ()))
    return out


def _units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_untraced_pass_emits_every_end_to_end_metric(jobs, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.measure(jobs, 0.0, None, min_rounds=1)
    metrics, units, commands, _ = run.summarize(result, run.measure_setup(), None)
    assert result.failures == {}
    assert result.attempted == len(jobs)
    assert len(result.slice_s) == len(jobs)
    assert units == _units("end_to_end")
    assert set(metrics) == set(units)
    assert all(value > 0 for value in metrics.values())
    assert set(commands) == {"spectrum_s", "h_spectrum_s", "rho_equality_s", "certificate_s"}


def test_traced_round_emits_every_per_layer_metric(jobs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run.measure(jobs, 0.0, tracer, min_rounds=1)
    finally:
        tracer.uninstall()
    metrics, units, _, top = run.summarize(result, None, tracer)
    assert result.failures == {}
    assert tracer.absent == []
    assert units == _units("per_layer")
    assert set(metrics) == set(units)
    assert metrics["cli.main.calls"] == len(jobs)
    assert metrics["cli.self_s"] > 0
    assert metrics["trace.pass_s"] > 0 and metrics["trace.untraced_pass_s"] > 0
    assert set(top) == {"spectrum", "h_spectrum", "rho_equality", "certificate"}


def test_self_times_add_up_to_the_process_cpu_of_a_job(cli, tmp_path):
    """Pool-thread work outside traced calls must land in some span's self time."""
    job = next(
        job for job in workloads.build("spectrum-ladder", 7, tmp_path, cli.main)
        if job.name == "spectrum-L-C5-k8"
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        cpu = time.process_time()
        assert cli.main(list(job.argv)) == 0
        cpu = time.process_time() - cpu
    finally:
        tracer.enabled = False
        tracer.uninstall()
    recorded = tracer.take()
    assert any(span.thread != recorded[0].thread for span in recorded)
    assert sum(spans.self_times(recorded).values()) == pytest.approx(cpu, rel=0.03)


def test_removed_target_is_reported_absent(cli, monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + (("reduction", "no_such_function", None, None),)
    )
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["reduction.no_such_function"]
    assert "reduction.no_such_function.calls" in run.per_layer_names(tracer.names)


def _corrupting(cli, monkeypatch, corrupt):
    real_main = cli.main
    calls = []

    def main(argv):
        code = real_main(argv)
        calls.append(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_bytes(corrupt(len(calls), out.read_bytes()))
        return code

    monkeypatch.setattr(cli, "main", main)


def test_corrupted_output_counts_as_failed(cli, jobs, monkeypatch):
    def corrupt(call, data):
        return data.replace(b'"complete":true', b'"complete":false') if call == 1 else data

    _corrupting(cli, monkeypatch, corrupt)
    result = run.measure(jobs, 0.0, None, min_rounds=1)
    assert len(result.failed_runs) == 1
    assert list(result.failures) == ["spectrum-L-C5-k4"]
    assert "not complete" in result.failures["spectrum-L-C5-k4"][0]


def test_output_that_changes_between_passes_counts_as_failed(cli, jobs, monkeypatch):
    def corrupt(call, data):
        return data + b" " if call == len(jobs) + 1 else data

    _corrupting(cli, monkeypatch, corrupt)
    result = run.measure(jobs, 0.0, None, min_rounds=2)
    assert result.attempted == 2 * len(jobs)
    assert result.failed_runs == {(2, jobs[0].name)}
    assert result.failures[jobs[0].name] == ["pass 2: output differs from pass 1"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "radius-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
