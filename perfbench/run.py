#!/usr/bin/env python3
"""qbc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from a qbc checkout; it imports qbc from the checkout's ``src``.
Workloads: sweep, audit, montecarlo, cli (see perfbench/README.md).  The
loop is closed: one caller, one operation at a time, for ``--seconds``.

stdout carries an ``env`` line (machine, versions, thread settings, seed),
one ``metric <name> = <value> <unit>`` line per figure of interest and, as
its last line, a JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end metrics,
measured untraced; with ``--trace 1`` they are the per-layer metrics of a
traced run.

The timed end-to-end metrics (setup_s, op_ms_p50, work_per_s) are given
at the reference speed: a fixed piece of Python and numpy work that does
not touch qbc is timed between operations, and each operation's wall time
is scaled by the reference's nominal time over its time around that
operation (set-up time, by its median over the run).  A shared host
speeds up and slows down by tens of percent over seconds; the reference
slows with it, and the scaled time keeps qbc's own share.  The wall-time
values are printed too, as ``wall_*`` lines and under the workloads' own
names.

``--tiny`` shrinks every size and stops after one round of operations,
for smoke tests.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "audit", "montecarlo", "cli")
SETUP_PROBES = 5
# After an operation, once REFERENCE_EVERY_S has passed since it was last
# timed, it is timed once per REFERENCE_EVERY_S passed (at most
# REFERENCE_BURST times), so it takes about 3% of the loop whatever the
# operations last.  An operation is scaled by the median reference timed
# within REFERENCE_WINDOW_S of it.  Each workload names its reference's
# matrices and nominal time (Workload.REFERENCE_MATRICES, REFERENCE_NOMINAL_S).
REFERENCE_EVERY_S = 0.1
REFERENCE_BURST = 20
REFERENCE_WINDOW_S = 1.0
THREAD_VARIABLES = (
    "QBC_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# BLAS runs on one thread unless the caller set these.  With two BLAS
# threads on two shared vCPUs, each product of 64x64 operators hands part
# of its work to the second vCPU, and how long that takes depends on the
# host's other tenants: in one fresh process the transcripts ran a third
# slower than in others while its bulk calls and the reference did not.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, one round")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def use_checkout_sources() -> None:
    """Put the checkout's src first on sys.path; refuse to run without it."""
    if not (SRC / "qbc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qbc sources under {SRC}; run from a qbc checkout")
    sys.path.insert(0, str(SRC))


class Reference:
    """A fixed amount of the kinds of work qbc's calls are made of:
    interpreter loops, dict updates, and ``eigh`` and products of complex
    Hermitian matrices, ``(size, repeats)`` each, of the sizes the
    workload's protocols have.  It does not touch qbc, so no qbc change can
    alter it; its time measures how fast the machine runs at the moment."""

    def __init__(self, matrices: tuple[tuple[int, int], ...]):
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrices = []
        for n, repeats in matrices:
            a = rng.normal(size=(2, n, n))
            self._matrices.append((a[0] + a[0].T + 1j * (a[1] - a[1].T), repeats))
        self._eigh = np.linalg.eigh
        self.times: list[tuple[float, float]] = []  # (when, seconds)

    def __call__(self) -> None:
        eigh = self._eigh
        start = time.perf_counter()
        total = 0
        for i in range(6000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for h, repeats in self._matrices:
            for _ in range(repeats):
                eigh(h)
                h @ h
        end = time.perf_counter()
        self.times.append(((start + end) / 2.0, end - start))


def at_reference_speed(samples, refs: list[tuple[float, float]], nominal: float):
    """The samples with their seconds scaled to the reference speed; refs
    are the reference's (when, seconds), in time order."""
    from tracing import median

    when = [t for t, _ in refs]
    everywhere = median([d for _, d in refs])
    scaled = []
    for s in samples:
        lo = bisect.bisect_left(when, s.start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(when, s.start + s.seconds + REFERENCE_WINDOW_S)
        local = median([d for _, d in refs[lo:hi]]) if hi > lo else everywhere
        scaled.append(dataclasses.replace(s, seconds=s.seconds * nominal / local))
    return scaled


def setup_probe(args, workdir: Path) -> None:
    """Set the workload up in this fresh process and print the time taken."""
    start = time.perf_counter()
    import workloads  # imports qbc

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    workload.warmup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run_probes(args, workdir: Path, count: int) -> list[tuple[float, float]]:
    """(setup seconds, peak RSS MiB) of fresh set-up processes."""
    from workloads import child_env, run_child

    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    out = []
    for _ in range(count):
        _, result = run_child(argv, child_env(), workdir / "probe-stderr.txt")
        if result.code != 0:
            raise RuntimeError("set-up probe failed:\n" + result.stderr.decode(errors="replace"))
        setup_s = json.loads(result.stdout.decode().splitlines()[-1])["setup_s"]
        out.append((setup_s, result.maxrss_kib / 1024.0))
    return out


def environment(args, found: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": found,
        "thread_env_used": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def usage() -> tuple[float, float, int | None, int | None]:
    """Wall clock, CPU seconds of this process and its waited-for children,
    and the host's steal and total CPU time in jiffies (None off Linux)."""
    t = os.times()
    cpu = t.user + t.system + t.children_user + t.children_system
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        steal, total = fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        steal = total = None
    return time.perf_counter(), cpu, steal, total


def load_lines(before, after) -> list[tuple[str, float, str, str]]:
    """How busy this run kept the CPU, and how much the host took away."""
    wall = after[0] - before[0]
    lines = [("loop_cpu_per_wall", (after[1] - before[1]) / wall, "ratio",
              "CPU time of this process and its children / wall time, measuring loop")]
    if before[2] is not None and after[3] > before[3]:
        steal = 100.0 * (after[2] - before[2]) / (after[3] - before[3])
        lines.append(("host_steal_pct", steal, "%", "steal share of all vCPU time, measuring loop"))
    return lines


def measure(workload, seconds: float, max_rounds: int | None, traced: bool, reference=None):
    """Closed loop over the workload's rounds; checks run after the loop.
    An untraced loop times the reference between operations."""
    import numpy as np

    from tracing import KernelCounter, Tracer
    from workloads import Sample

    tracer = Tracer()
    counter = KernelCounter(np.linalg)
    samples = []
    before = usage()
    start = last_ref = before[0]
    for r, ops in enumerate(workload.rounds()):
        if max_rounds is not None and r >= max_rounds:
            break
        for op in ops:
            samples.append(run_op(op, r, Sample))
            if traced:
                trace_op(workload, samples[-1], tracer, counter)
            elif reference is not None:
                due = int((time.perf_counter() - last_ref) / REFERENCE_EVERY_S)
                if due:
                    for _ in range(min(due, REFERENCE_BURST)):
                        reference()
                    last_ref = time.perf_counter()
            if max_rounds is None and r >= 1 and time.perf_counter() - start >= seconds:
                break
        else:
            continue
        break
    load = load_lines(before, usage())
    for s in samples:
        traced_result = s.extra.pop("traced_result", s.result)
        for result, what in ((s.result, "output check"), (traced_result, "output check of the traced repeat")):
            if not s.ok:
                break
            try:
                passed = s.op.check(result)
            except Exception as exc:  # a failed check is counted, not fatal
                s.ok, s.error = False, f"{what} raised {exc!r}"
            else:
                if not passed:
                    s.ok, s.error = False, f"{what} failed"
    if reference is not None:
        reference()  # so that even a one-operation loop has a reference
    workload.after(samples)
    return samples, tracer, load


def run_op(op, r, sample_cls):
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return sample_cls(op, r, time.perf_counter() - start, None, False, repr(exc), start=start)
    return sample_cls(op, r, time.perf_counter() - start, result, True, start=start)


def trace_op(workload, sample, tracer, counter) -> None:
    """Repeat the operation with the layers wrapped and kernels counted."""
    from workloads import LAYERS

    if not sample.ok:
        return
    op = sample.op
    try:
        with tracer.wrapping([name for name in LAYERS if name != op.span]):
            with counter.counting():
                before = counter.total
                with tracer.span(op.span) as whole:
                    result = (op.traced or op.run)()
                sample.kernels = counter.total - before
            sample.whole = whole
            sample.extra["traced_result"] = result
            if op.replay is not None:
                with tracer.under(whole):
                    replay_ok = op.replay(tracer, result)
                if replay_ok is False:
                    sample.ok, sample.error = False, "replay disagrees with the operation"
        workload.trace_extra(op, sample)
    except Exception as exc:
        sample.ok, sample.error = False, f"traced repeat: {exc!r}"


def per_layer_metrics(workload, samples, tracer) -> dict[str, float]:
    from tracing import median
    from workloads import LAYERS, layer_metrics

    traced = [s for s in samples if s.whole is not None]
    out = layer_metrics(tracer, LAYERS)
    out.update(workload.per_layer(samples, tracer))
    out["trace.coverage"] = workload.coverage(samples, tracer)
    untraced = [s.extra.get("untraced_s", s.seconds) for s in traced]
    out["trace.overhead_pct"] = 100.0 * (
        median([s.whole.duration / u for s, u in zip(traced, untraced)]) - 1.0
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    found = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    for name in BLAS_THREAD_VARIABLES:  # before numpy loads; children inherit them
        os.environ.setdefault(name, "1")
    use_checkout_sources()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe:
            setup_probe(args, workdir)
            return 0
        return run(args, workdir, found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()


def run(args, workdir: Path, found: dict) -> int:
    import qbc

    import workloads
    from tracing import median

    units = dict(workloads.END_TO_END)
    if not Path(qbc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported qbc from {qbc.__file__}, not from {SRC}")
    print("env " + json.dumps(environment(args, found)), flush=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    workload.warmup()
    probes = run_probes(args, workdir, 1 if args.tiny else SETUP_PROBES)
    reference = Reference(workload.REFERENCE_MATRICES)
    samples, tracer, load = measure(
        workload, args.seconds, 1 if args.tiny else None, bool(args.trace),
        None if args.trace else reference,
    )
    failed = [s for s in samples if not s.ok]
    for s in failed[:5]:
        print(f"failed {s.op.label}: {s.error}", file=sys.stderr)

    if args.trace:
        values = per_layer_metrics(workload, samples, tracer)
        units = dict(workloads.PER_LAYER)
        lines = [(name, value, units[name], "") for name, value in values.items()]
        # Layers this workload does not pass through read 0.
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in workloads.PER_LAYER}
    else:
        refs = reference.times
        wall = workload.timings(samples)
        nominal = workload.REFERENCE_NOMINAL_S
        scaled = workload.timings(at_reference_speed(samples, refs, nominal))
        rest = workload.end_to_end(samples, [rss for _, rss in probes])
        reference_s = median([d for _, d in refs])
        wall_setup_s = median([s for s, _ in probes])
        values = dict(scaled.values, **rest.values,
                      setup_s=wall_setup_s * nominal / reference_s)
        lines = []
        for name, wall_value, note in (
            ("setup_s", wall_setup_s, f"median of {len(probes)} probes"),
            ("op_ms_p50", wall.values["op_ms_p50"], ""),
            ("work_per_s", wall.values["work_per_s"], ""),
        ):
            lines.append((name, values[name], units[name], "at reference speed"))
            lines.append((f"wall_{name}", wall_value, units[name], note))
        lines.append(("reference_ms_p50", 1e3 * reference_s, "ms",
                      f"n={len(refs)}; nominal {1e3 * nominal:g} ms"))
        lines += wall.lines + rest.lines + load
        metrics = {name: (values[name], unit) for name, unit in workloads.END_TO_END}
    lines.append(("fail_ratio", len(failed) / len(samples), "ratio", f"{len(failed)} of {len(samples)}"))
    for name, value, unit, note in lines:
        print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(samples),
                "failed": len(failed),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
