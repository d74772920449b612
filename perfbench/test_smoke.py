"""Smoke test of the benchmark: each workload at tiny sizes, one round.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the workload-specific figures are printed by name, that an output
check that raises counts as a failed operation, that an operation is
scaled by the reference timed around it, and that the benchmark
refuses to run where there are no qbc sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PRINTED = {
    "sweep": {"sweep_ms_p50": "ms", "sweep_points_per_s": "1/s"},
    "audit": {"audit_ms_p50": "ms", "audit_ms_p90": "ms", "audit_cycle_ms_p50": "ms"},
    "montecarlo": {"mc_runs_per_s": "1/s", "mc_peak_bytes_per_run": "B", "transcripts_per_s": "1/s"},
    "cli": {
        "cli_light_ms_p50": "ms",
        "cli_light_ms_p90": "ms",
        "cli_heavy_pass_s": "s",
        "cli_peak_rss_mib": "MiB",
    },
}
EXACT_COUNTS = {
    "sweep": {"kernel.decomp_per_point": 6},
    "montecarlo": {"kernel.decomp_per_transcript": 4},
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    printed = {
        fields[1]: fields[4]
        for fields in (line.split() for line in lines)
        if fields[0] == "metric"
    }
    assert printed["fail_ratio"] == "ratio"
    env = json.loads(lines[0].removeprefix("env "))
    assert {"nproc", "python", "numpy", "blas", "thread_env", "thread_env_used", "seed"} <= set(env)
    if trace:
        for name, count in EXACT_COUNTS.get(workload, {}).items():
            assert result["metrics"][name]["value"] == count
        assert 0 < result["metrics"]["trace.coverage"]["value"]
    else:
        assert printed["setup_s"] == "s"
        # The wall-time twin of a metric given at the reference speed.
        assert printed["wall_work_per_s"] == "1/s" and printed["reference_ms_p50"] == "ms"
        for name, unit in PRINTED[workload].items():
            assert printed[name] == unit
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_raising_check_counts_as_a_failed_operation(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run
        import workloads

        class Raising(workloads.Workload):
            def rounds(self):
                while True:
                    yield [workloads.Op("op", "op", "op", lambda: "", lambda out: dict([out]))]

        samples, _, _ = run.measure(Raising(0, True, tmp_path), 1.0, 1, traced=False)
    finally:
        del sys.path[:2]
    assert [s.ok for s in samples] == [False]
    assert "raised" in samples[0].error


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, "sweep", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_each_operation_is_scaled_by_the_reference_around_it():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run
        import workloads

        op = workloads.Op("op", "op", "op", lambda: None, lambda out: True)
        samples = [workloads.Sample(op, 0, 0.1, None, True, start=t) for t in (0.0, 10.0)]
        nominal = workloads.Workload.REFERENCE_NOMINAL_S
        # The machine runs at the reference speed, then at half of it.
        refs = [(0.15, nominal), (10.15, 2 * nominal)]
        scaled = run.at_reference_speed(samples, refs, nominal)
    finally:
        del sys.path[:2]
    assert [s.seconds for s in scaled] == pytest.approx([0.1, 0.05])
    assert [s.seconds for s in samples] == [0.1, 0.1]
