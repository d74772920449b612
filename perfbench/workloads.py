"""The four qbc benchmark workloads: sweep, audit, montecarlo and cli.

Each workload builds its inputs from the seed and then yields rounds of
operations.  An operation is the sequence of public ``qbc`` calls a user
makes for one request, called exactly as a user calls it (default sweep
workers, ``QBC_THREADS`` left as found, the default CLI entry point).  Its
check runs after the timed loop.  A traced run repeats the operation with
the layer functions (``LAYERS``) wrapped in place, so their spans come from
the library's own call tree.

Every workload reports the same end-to-end metrics (see ``END_TO_END``);
what "one operation" and "work" mean differs per workload and is listed
in perfbench/README.md.  ``timings`` computes the two timed ones from the
samples' seconds, so run.py can compute them from wall time and from
time scaled to the reference speed alike.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import qbc
import qbc.cli
from qbc import (
    CheatingAlice,
    CoinTossProtocol,
    Commuting3D,
    HelstromBob,
    HonestAlice,
    HonestBob,
    Outcome,
    PurePair,
    QubitPureMixed,
)
from tracing import Tracer, median, quantile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

CLOSED_FORM_TOL = 1e-9
Z_LIMIT = 6.0


def _layer(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms"), (f"{name}.us_p50", "us")]


SWEEP_LAYERS = (
    "tradeoff.sweep",
    "tradeoff.family_protocol",
    "protocol.security_report",
    "protocol.honest_reduced_states",
    "distinguish.trace_distance",
    "distinguish.fidelity",
)
AUDIT_LAYERS = (
    "protocol.optimal_cheat_kit",
    "distinguish.helstrom",
    "distinguish.check_inequalities",
    "protocol.exact_statistics",
    "protocol.random_cheat_search",
)
TRANSCRIPT_LAYERS = ("protocol.simulate_run", "cointoss.simulate_toss", "protocol.born_sample")
CLI_COMMANDS = ("analyze", "check", "make-spec", "sweep", "simulate", "cointoss")
CLI_LAYERS = ("specfile.parse_protocol_spec", "specfile.format_float")
# Every layer is a public qbc function, named "module.function"; the traced
# run wraps each one in place, except the one an operation's own span names.
LAYERS = SWEEP_LAYERS + AUDIT_LAYERS + TRANSCRIPT_LAYERS + CLI_LAYERS

PER_LAYER = (
    [("trace.coverage", "ratio"), ("trace.overhead_pct", "%")]
    + [m for name in SWEEP_LAYERS for m in _layer(name)]
    + [
        ("tradeoff.sweep.pool_overhead_ms", "ms"),
        ("tradeoff.sweep.pool_speedup", "ratio"),
        ("kernel.decomp_per_point", "count"),
    ]
    + [m for name in AUDIT_LAYERS for m in _layer(name)]
    + [
        ("protocol.random_cheat_search.candidates", "count"),
        ("protocol.random_cheat_search.gap", "ratio"),
        ("kernel.decomp_per_protocol", "count"),
        ("mc.philox_draw_ms_per_1e6", "ms"),
        ("protocol.estimate_statistics.ms_per_1e6", "ms"),
        ("cointoss.toss_statistics.ms_per_1e6", "ms"),
        ("mc.sampling_self_ms_per_1e6", "ms"),
        ("mc.peak_bytes_per_run.1e5", "B"),
        ("mc.peak_bytes_per_run.1e6", "B"),
    ]
    + [m for name in TRANSCRIPT_LAYERS for m in _layer(name)]
    + [
        ("kernel.decomp_per_transcript", "count"),
        ("cli.python_start_ms", "ms"),
        ("cli.import_qbc_ms", "ms"),
    ]
    + [(f"cli.main_inprocess_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [m for name in CLI_LAYERS for m in _layer(name)]
)


def derive(*keys: int) -> int:
    """A 63-bit seed that is a pure function of the keys."""
    state = np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class Op:
    kind: str  # operations of one kind share a latency metric
    label: str  # tells operations of one kind apart
    span: str  # span name of the whole operation in a traced run
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    replay: Callable[[Tracer, Any], bool | None] | None = None
    units: int = 1  # work units (points, sampled runs) one call does
    traced: Callable[[], Any] | None = None  # the form a traced run repeats; run if None


@dataclass
class Sample:
    op: Op
    round: int
    seconds: float
    result: Any
    ok: bool
    error: str | None = None
    start: float = 0.0  # perf_counter when the operation began
    whole: Any = None  # the Span of the traced repeat
    kernels: int = 0  # decompositions called during the traced repeat
    extra: dict = field(default_factory=dict)


@dataclass
class Report:
    """End-to-end values keyed by END_TO_END name, plus the named lines."""

    values: dict[str, float]
    lines: list[tuple[str, float, str, str]]


def latency_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and p90 in ms; 0 when no operation succeeded (the run then
    reports failures, so its figures are not used)."""
    if not seconds:
        return 0.0, 0.0
    return 1e3 * median(seconds), 1e3 * quantile(seconds, 0.9)


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    layers = tracer.layers()
    out = {}
    for name in names:
        if name in layers:
            for key, value in layers[name].items():
                out[f"{name}.{key}"] = value
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed

    def rounds(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    # How many operations of the first round the warm-up runs.  The set-up
    # probes read their peak RSS after it, so it covers every input size.
    WARMUP_OPS = 1

    def warmup(self) -> None:
        for op in next(self.rounds())[: self.WARMUP_OPS]:
            if not op.check(op.run()):
                raise RuntimeError(f"warm-up operation {op.label} failed its check")

    def after(self, samples: list[Sample]) -> None:
        """Checks that need extra calls; run after the timed loop."""

    def trace_extra(self, op: Op, sample: Sample) -> None:
        """Extra traced-run measurements of one operation."""

    def coverage(self, samples: list[Sample], tracer: Tracer) -> float:
        traced = [s.whole for s in samples if s.whole is not None]
        return sum(w.children for w in traced) / sum(w.duration for w in traced)

    # The reference that run.py scales timings by: (matrix size, repeats),
    # and its time on a 2-vCPU x86 VM.  Sizes 16 and 64 are those of the
    # random protocols (up to 8x8, 16x4, 4x16).
    REFERENCE_MATRICES = ((16, 8), (64, 1))
    REFERENCE_NOMINAL_S = 2.8e-3

    def timings(self, samples: list[Sample]) -> Report:
        """op_ms_p50 and work_per_s, plus the workload's named timing lines."""
        raise NotImplementedError

    def end_to_end(self, samples: list[Sample], probe_rss: list[float]) -> Report:
        """peak_rss_mib, plus the workload's other named lines."""
        rss = median(probe_rss)
        return Report({"peak_rss_mib": rss}, [("peak_rss_mib", rss, "MiB", self.PROBE_RSS_NOTE)])

    PROBE_RSS_NOTE = "set-up probes: import, inputs, warm-up"

    def per_layer(self, samples: list[Sample], tracer: Tracer) -> dict[str, float]:
        raise NotImplementedError

    def _ok(self, samples: list[Sample], kind: str) -> list[Sample]:
        return [s for s in samples if s.op.kind == kind and s.ok]


# --------------------------------------------------------------------------
# sweep


def _family_closed_form(kind, params) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(params, dtype=float)
    if kind is Commuting3D:
        return x, 1.0 - x
    if kind is QubitPureMixed:
        return 1.0 - x, np.sqrt(x)
    return np.sin(x), np.cos(x)


class Sweep(Workload):
    """qbc.sweep over the default grid of each of the three families."""

    name = "sweep"
    FAMILIES = (Commuting3D, QubitPureMixed, PurePair)
    # Its protocols are at most 4x3.  With the 64x64 part in the reference,
    # the spread over ten runs of its scaled timings was 0.09, against 0.04
    # without it.
    REFERENCE_MATRICES = ((16, 8),)
    REFERENCE_NOMINAL_S = 1.8e-3

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        n_points = 101 if tiny else 1001
        first = seed % len(self.FAMILIES)
        order = self.FAMILIES[first:] + self.FAMILIES[:first]
        self.grids = [(kind, qbc.uniform_grid(kind, n_points)) for kind in order]
        # One operation sweeps all three families.  A single family sweep
        # differs in cost from family to family, so the median of a mix of
        # them would jump between families from run to run.
        self.op = Op(
            "rotation",
            "rotation",
            "sweep.rotation",
            self._rotation,
            self._check,
            units=len(self.grids) * n_points,
            traced=partial(self._rotation, max_workers=1),
        )

    def rounds(self):
        while True:
            yield [self.op]

    def _rotation(self, **kwargs) -> list:
        return [qbc.sweep(kind, grid, **kwargs) for kind, grid in self.grids]

    def _check(self, sweeps) -> bool:
        return all(
            self._check_family(grid, *_family_closed_form(kind, grid), points)
            for (kind, grid), points in zip(self.grids, sweeps)
        )

    @staticmethod
    def _check_family(grid, d_ref, f_ref, points) -> bool:
        if [pt.family_param for pt in points] != grid:
            return False
        d = 2.0 * np.array([pt.g_max for pt in points])
        f = 2.0 * np.array([pt.c_max for pt in points])
        return (
            float(np.max(np.abs(d - d_ref))) <= CLOSED_FORM_TOL
            and float(np.max(np.abs(f - f_ref))) <= CLOSED_FORM_TOL
            and not any(qbc.check_bounds(pt) for pt in points)
        )

    def trace_extra(self, op, sample):
        # The traced repeat is serial (spans from pool threads would have no
        # parent); its untraced twin gives the overhead and the pool figures.
        start = time.perf_counter()
        self._rotation(max_workers=1)
        sample.extra["untraced_s"] = time.perf_counter() - start

    def coverage(self, samples, tracer):
        sweeps = [s for s in tracer.spans if s.name == "tradeoff.sweep"]
        return sum(s.children for s in sweeps) / sum(s.duration for s in sweeps)

    def timings(self, samples):
        ok = self._ok(samples, "rotation")
        seconds = [s.seconds for s in ok]
        p50, p90 = latency_ms(seconds)
        points_per_s = rate(sum(s.op.units for s in ok), sum(seconds))
        n = len(self.grids)
        return Report(
            {"op_ms_p50": p50, "work_per_s": points_per_s},
            [
                ("rotation_ms_p50", p50, "ms", f"n={len(seconds)} rotations of {n} family sweeps"),
                ("rotation_ms_p90", p90, "ms", f"n={len(seconds)}"),
                ("sweep_ms_p50", p50 / n, "ms", f"one family sweep: rotation median / {n}"),
                ("sweep_points_per_s", points_per_s, "1/s", ""),
            ],
        )

    PROBE_RSS_NOTE = "set-up probes: import, inputs, one rotation"

    def per_layer(self, samples, tracer):
        traced = [s for s in samples if s.whole is not None and "untraced_s" in s.extra]
        n = len(self.grids)
        out = {}
        out["tradeoff.sweep.pool_overhead_ms"] = 1e3 * median(
            [(s.seconds - s.extra["untraced_s"]) / n for s in traced]
        )
        out["tradeoff.sweep.pool_speedup"] = median([s.extra["untraced_s"] / s.seconds for s in traced])
        out["kernel.decomp_per_point"] = sum(s.kernels for s in traced) / sum(
            s.op.units for s in traced
        )
        return out


# --------------------------------------------------------------------------
# audit

PAIRINGS = tuple(
    (alice, bob)
    for alice in (HonestAlice(0), HonestAlice(1), CheatingAlice())
    for bob in (HonestBob(), HelstromBob())
)


@dataclass
class AuditResult:
    report: Any
    kit: Any
    helstrom: Any
    inequalities: Any
    exact: list
    search: Any


class Audit(Workload):
    """A full analysis bundle of one random protocol per operation."""

    name = "audit"
    DIMS = ((2, 2), (3, 2), (4, 4), (8, 8), (16, 4), (4, 16))
    WARMUP_OPS = len(DIMS)  # one bundle of each dimension pair
    # One ascent start (20 iterates) plus a few uniform draws: below about
    # half of a bundle's time at every dimension pair.
    SEARCH_BUDGET = 20

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        per_dims = 1 if tiny else 8
        self.ops = []
        for i in range(per_dims * len(self.DIMS)):
            dp, dt = self.DIMS[i % len(self.DIMS)]
            p = qbc.random_protocol(dp, dt, derive(seed, 1, i))
            search_seed = derive(seed, 2, i)
            self.ops.append(
                Op(
                    "bundle",
                    f"{dp}x{dt}",
                    "audit.bundle",
                    partial(self._bundle, p, search_seed),
                    self._check,
                )
            )

    def rounds(self):
        while True:
            yield self.ops

    def _bundle(self, p, search_seed) -> AuditResult:
        report = qbc.security_report(p)
        kit = qbc.optimal_cheat_kit(p)
        rho0, rho1 = qbc.honest_reduced_states(p)
        measurement = qbc.helstrom(rho0, rho1)
        inequalities = qbc.check_inequalities(rho0, rho1)
        exact = [qbc.exact_statistics(p, a, b) for a, b in PAIRINGS]
        search = qbc.random_cheat_search(p, self.SEARCH_BUDGET, search_seed)
        return AuditResult(report, kit, measurement, inequalities, exact, search)

    @staticmethod
    def _check(r: AuditResult) -> bool:
        optimum = (1.0 + r.report.fidelity) / 2.0
        return (
            abs(r.kit.per_bit_success - optimum) <= CLOSED_FORM_TOL
            and abs(r.helstrom.success_probability - (1.0 + r.report.trace_distance) / 2.0)
            <= CLOSED_FORM_TOL
            and r.inequalities.all_satisfied()
            and r.search.best_value <= optimum + CLOSED_FORM_TOL
        )

    def timings(self, samples):
        seconds = [s.seconds for s in self._ok(samples, "bundle")]
        p50, p90 = latency_ms(seconds)
        bundles_per_s = rate(len(seconds), sum(seconds))
        # The gated latency is that of a cycle: one bundle of each dimension
        # pair, in order.  Bundles of different sizes differ in cost tenfold,
        # so the median of single bundles sits between two sizes and jumps.
        bundles = [s for s in samples if s.op.kind == "bundle"]
        k = len(self.DIMS)
        cycles = [bundles[i : i + k] for i in range(0, len(bundles) - k + 1, k)]
        cycle_p50, _ = latency_ms([sum(s.seconds for s in c) for c in cycles if all(s.ok for s in c)])
        return Report(
            {"op_ms_p50": cycle_p50, "work_per_s": bundles_per_s},
            [
                ("audit_ms_p50", p50, "ms", f"n={len(seconds)} bundles"),
                ("audit_ms_p90", p90, "ms", f"n={len(seconds)} bundles"),
                ("audit_cycle_ms_p50", cycle_p50, "ms", f"n={len(cycles)} cycles of {k} bundles"),
                ("audit_bundles_per_s", bundles_per_s, "1/s", ""),
            ],
        )

    PROBE_RSS_NOTE = "set-up probes: import, inputs, one bundle per dims"

    def per_layer(self, samples, tracer):
        traced = [s for s in samples if s.whole is not None and s.ok]
        out = {}
        searches = [s.result.search for s in traced]
        out["protocol.random_cheat_search.candidates"] = median(
            [r.candidates_evaluated for r in searches]
        )
        out["protocol.random_cheat_search.gap"] = median(
            [
                s.result.search.best_value / ((1.0 + s.result.report.fidelity) / 2.0)
                for s in traced
            ]
        )
        out["kernel.decomp_per_protocol"] = sum(s.kernels for s in traced) / len(traced)
        return out


# --------------------------------------------------------------------------
# montecarlo


def _within(value: float, stderr: float, predicted: float, n: int) -> bool:
    spread = max(stderr, math.sqrt(max(0.0, predicted * (1.0 - predicted)) / n))
    return abs(value - predicted) <= Z_LIMIT * spread + 1e-12


class MonteCarlo(Workload):
    """Bulk Born-rule Monte Carlo calls plus single seeded transcripts."""

    name = "montecarlo"
    CHEATERS = ("none", "alice", "bob")
    TRANSCRIPT_ALICE = (HonestAlice(), CheatingAlice())
    TRANSCRIPT_TOSSES = ((False, False), (True, False), (False, True))
    REPEATS_CHECKED = 3  # bulk calls of round 0 re-run to test bit-identity
    # A batch of transcript sets follows every bulk call rather than forming
    # one block per round, so a brief slowdown of the machine cannot hit a
    # whole round's transcripts.  A batch is one latency sample (about 20 ms).
    SETS_PER_BULK = 3

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n_runs = 10_000 if tiny else 1_000_000
        self.protocols = (
            ("fair", qbc.fair_toss_protocol().base),
            ("8x8", qbc.random_protocol(8, 8, derive(seed, 88))),
        )
        self.transcripts: list[Op] = []
        for label, p in self.protocols:
            for a, b in itertools.product(self.TRANSCRIPT_ALICE, (HonestBob(), HelstromBob())):
                k = len(self.transcripts)
                rng = np.random.default_rng(derive(seed, 4, k))
                honest = isinstance(a, HonestAlice) and isinstance(b, HonestBob)
                self.transcripts.append(
                    Op(
                        "transcript",
                        f"run {label} {type(a).__name__}/{type(b).__name__}",
                        "protocol.simulate_run",
                        partial(qbc.simulate_run, p, a, b, k % 2, rng),
                        partial(self._check_run, honest),
                    )
                )
            ct = CoinTossProtocol(p)
            for alice_cheats, bob_cheats in self.TRANSCRIPT_TOSSES:
                k = len(self.transcripts)
                rng = np.random.default_rng(derive(seed, 4, k))
                self.transcripts.append(
                    Op(
                        "transcript",
                        f"toss {label} alice={alice_cheats} bob={bob_cheats}",
                        "cointoss.simulate_toss",
                        partial(qbc.simulate_toss, ct, alice_cheats, bob_cheats, rng),
                        partial(self._check_toss, alice_cheats),
                    )
                )
        self.predicted = {
            (label, i): qbc.exact_statistics(p, a, b)
            for label, p in self.protocols
            for i, (a, b) in enumerate(PAIRINGS)
        }
        for label, p in self.protocols:
            biases = qbc.biases(CoinTossProtocol(p))
            for cheater, win in zip(self.CHEATERS, (0.5, 0.5 + biases.alpha, 0.5 - biases.beta)):
                self.predicted[(label, cheater)] = win

    def warmup(self):
        _, p = self.protocols[1]
        a, b = PAIRINGS[-1]
        qbc.estimate_statistics(p, a, b, self.n_runs, derive(self.seed, 5))
        qbc.toss_statistics(CoinTossProtocol(p), "alice", self.n_runs, derive(self.seed, 5))
        for op in self.transcripts:
            op.run()

    def rounds(self):
        for r in itertools.count():
            ops = []
            for label, p in self.protocols:
                for i, (a, b) in enumerate(PAIRINGS):
                    call_seed = derive(self.seed, 6, r, len(ops))
                    ops.append(
                        Op(
                            "bulk",
                            f"estimate {label} {i}",
                            "protocol.estimate_statistics",
                            partial(qbc.estimate_statistics, p, a, b, self.n_runs, call_seed),
                            partial(self._check_estimate, self.predicted[(label, i)], b),
                            partial(self._replay_draws, call_seed),
                            units=self.n_runs,
                        )
                    )
                ct = CoinTossProtocol(p)
                for cheater in self.CHEATERS:
                    call_seed = derive(self.seed, 6, r, len(ops))
                    ops.append(
                        Op(
                            "bulk",
                            f"toss {label} {cheater}",
                            "cointoss.toss_statistics",
                            partial(qbc.toss_statistics, ct, cheater, self.n_runs, call_seed),
                            partial(self._check_toss_stats, self.predicted[(label, cheater)]),
                            partial(self._replay_draws, call_seed),
                            units=self.n_runs,
                        )
                    )
            yield [
                op
                for bulk in ops
                for op in [bulk] + self.transcripts * self.SETS_PER_BULK
            ]

    # checks ---------------------------------------------------------------

    @staticmethod
    def _check_estimate(predicted, bob, stats) -> bool:
        p_estimate, p_unveil = predicted
        ok = _within(stats.p_unveil, stats.p_unveil_stderr, p_unveil, stats.n_runs)
        if isinstance(bob, HelstromBob):
            return ok and _within(stats.p_estimate, stats.p_estimate_stderr, p_estimate, stats.n_runs)
        return ok and stats.p_estimate == 0.5

    @staticmethod
    def _check_toss_stats(predicted, stats) -> bool:
        return _within(stats.alice_win_rate, stats.alice_win_stderr, predicted, stats.n_tosses)

    @staticmethod
    def _check_run(honest: bool, record) -> bool:
        # With nobody cheating, verification always accepts the committed bit.
        return not honest or record.outcome == Outcome(record.committed_bit)

    @staticmethod
    def _check_toss(alice_cheats: bool, result) -> bool:
        return result.winner in ("alice", "bob") and (alice_cheats or not result.alice_caught)

    def after(self, samples):
        first = [s for s in samples if s.op.kind == "bulk" and s.round == 0]
        step = max(1, len(first) // self.REPEATS_CHECKED)
        for s in first[::step][: self.REPEATS_CHECKED]:
            if s.ok and s.op.run() != s.result:
                s.ok, s.error = False, "repeated (seed, n) call is not bit-identical"

    def memory_pass(self) -> dict[int, float]:
        """tracemalloc peak bytes per run of one estimate and one toss call."""
        _, p = self.protocols[1]
        a, b = PAIRINGS[-1]
        ct = CoinTossProtocol(p)
        out = {}
        tracemalloc.start()
        try:
            for n in (100_000, 1_000_000):
                peaks = []
                for call in (
                    partial(qbc.estimate_statistics, p, a, b, n, derive(self.seed, 7)),
                    partial(qbc.toss_statistics, ct, "alice", n, derive(self.seed, 8)),
                ):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    call()
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                out[n] = max(peaks) / n
        finally:
            tracemalloc.stop()
        return out

    def _replay_draws(self, call_seed: int, tracer: Tracer, _stats) -> None:
        # The uniforms a bulk call draws, bare: the call's self time less this
        # is its sampling.  Its strategy tables are its own child spans.
        with tracer.span("mc.philox_draw"):
            np.random.Generator(np.random.Philox(call_seed)).random((self.n_runs, 4))

    # metrics --------------------------------------------------------------

    def timings(self, samples):
        # One operation is the batch of transcripts that follows a bulk call:
        # SETS_PER_BULK sets of one transcript of each kind, in order.  A
        # single transcript's latency depends on its kind, so the median of
        # a mix of kinds jumps when two kinds trade places; a batch's does not.
        transcripts = [s for s in samples if s.op.kind == "transcript"]
        k = len(self.transcripts) * self.SETS_PER_BULK
        batches = [transcripts[i : i + k] for i in range(0, len(transcripts) - k + 1, k)]
        seconds = [sum(s.seconds for s in group) for group in batches if all(s.ok for s in group)]
        bulk = self._ok(samples, "bulk")
        p50, p90 = latency_ms(seconds)
        runs_per_s = rate(sum(s.op.units for s in bulk), sum(s.seconds for s in bulk))
        return Report(
            {"op_ms_p50": p50, "work_per_s": runs_per_s},
            [
                ("mc_runs_per_s", runs_per_s, "1/s", f"{len(bulk)} bulk calls"),
                ("transcripts_per_s", rate(k * len(seconds), sum(seconds)), "1/s", ""),
                ("transcript_batch_ms_p50", p50, "ms", f"n={len(seconds)} batches of {k}"),
                ("transcript_batch_ms_p90", p90, "ms", f"n={len(seconds)} batches of {k}"),
            ],
        )

    PROBE_RSS_NOTE = "set-up probes: import, inputs, one estimate and one toss call"

    def end_to_end(self, samples, probe_rss):
        report = super().end_to_end(samples, probe_rss)
        peak = self.memory_pass()
        report.lines.append(("mc_peak_bytes_per_run", peak[1_000_000], "B", "tracemalloc, 1e6 runs"))
        return report

    def per_layer(self, samples, tracer):
        traced = [s for s in samples if s.whole is not None]
        per_1e6 = 1e3 * 1e6 / self.n_runs
        out = {}
        out["mc.philox_draw_ms_per_1e6"] = per_1e6 * median(tracer.durations("mc.philox_draw"))
        for span in ("protocol.estimate_statistics", "cointoss.toss_statistics"):
            out[f"{span}.ms_per_1e6"] = per_1e6 * median(tracer.durations(span))
        out["mc.sampling_self_ms_per_1e6"] = per_1e6 * median(
            [s.whole.self_time for s in traced if s.op.kind == "bulk"]
        )
        for n, value in self.memory_pass().items():
            out[f"mc.peak_bytes_per_run.1e{round(math.log10(n))}"] = value
        cheat_runs = [s for s in traced if s.op.label.endswith("CheatingAlice/HelstromBob")]
        out["kernel.decomp_per_transcript"] = sum(s.kernels for s in cheat_runs) / len(cheat_runs)
        return out


# --------------------------------------------------------------------------
# cli


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str], env: dict[str, str], stderr_path: Path) -> tuple[float, ChildResult]:
    """Run one child to completion; wall seconds and its ``os.wait4`` usage."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start
        err.seek(0)
        return seconds, ChildResult(proc.returncode, out, err.read(), usage.ru_maxrss)


class Cli(Workload):
    """One ``python -m qbc.cli`` subprocess per operation, light and heavy."""

    name = "cli"
    # analyze output key -> SecurityReport attribute it must print
    EXPECTED_ANALYZE = {
        "traceDistance": "trace_distance",
        "fidelity": "fidelity",
        "gMax": "g_max",
        "cMax": "c_max",
    }
    # One family for every seed: family sweeps differ in cost by a third,
    # so a family picked by seed would spread the heavy pass over seeds.
    SWEEP_FAMILY = "pure-pair"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.env = child_env()
        self.stderr_path = workdir / "stderr.txt"
        fair = workdir / "fair.json"
        big = workdir / "random8x8.json"
        qbc.write_protocol_spec(qbc.fair_toss_protocol().base, fair)
        qbc.write_protocol_spec(qbc.random_protocol(8, 8, derive(seed, 88)), big)
        self.expected = {}
        for spec in (fair, big):
            report = qbc.security_report(qbc.parse_protocol_spec(spec))
            self.expected[str(spec)] = {
                key: qbc.specfile.format_float(getattr(report, attr))
                for key, attr in self.EXPECTED_ANALYZE.items()
            }
        rng = np.random.default_rng(derive(seed, 9))
        runs = "10000" if tiny else "1000000"
        light = [
            ["analyze", str(fair)],
            ["analyze", str(big)],
            ["check", str(fair)],
            ["check", str(big)],
            ["make-spec", "--family", "pure-pair", "--param", repr(float(rng.uniform(0, math.pi / 2)))],
            ["make-spec", "--family", "commuting3d", "--param", repr(float(rng.uniform(0, 1)))],
        ]
        heavy = [
            ["sweep", "--family", self.SWEEP_FAMILY, "--points", "101" if tiny else "1001"],
            ["simulate", str(big), "--alice", "cheat", "--bob", "helstrom",
             "--runs", runs, "--seed", str(derive(seed, 10) % 2**31)],
            ["cointoss", str(fair), "--cheater", "alice",
             "--runs", runs, "--seed", str(derive(seed, 11) % 2**31)],
        ]
        self.per_round = {"light": len(light), "heavy": len(heavy)}
        # Each heavy command follows two light ones, spreading both over the round.
        self.ops = [
            op
            for i, argv in enumerate(heavy)
            for op in (self._op("light", light[2 * i]), self._op("light", light[2 * i + 1]),
                       self._op("heavy", argv))
        ]
        self.reference: dict[str, bytes] = {}
        self.python_start: list[float] = []
        self.import_qbc: list[float] = []

    def _op(self, kind, argv) -> Op:
        label = " ".join(argv)
        return Op(
            kind,
            label,
            f"cli.subprocess.{argv[0]}",
            partial(self._run, argv),
            partial(self._check, label, argv),
            partial(self._replay, argv),
        )

    def rounds(self):
        while True:
            yield self.ops

    def _run(self, argv) -> ChildResult:
        _, result = run_child([sys.executable, "-m", "qbc.cli", *argv], self.env, self.stderr_path)
        return result

    def _check(self, label, argv, result: ChildResult) -> bool:
        if result.code != 0 or not result.stdout:
            return False
        if self.reference.setdefault(label, result.stdout) != result.stdout:
            return False
        if argv[0] == "analyze":
            lines = result.stdout.decode().splitlines()
            printed = dict(line.split(" = ", 1) for line in lines if " = " in line)
            return all(printed.get(k) == v for k, v in self.expected[argv[1]].items())
        return True

    def _replay(self, argv, tracer: Tracer, result: ChildResult) -> bool:
        # The command again, in-process; the layer wrappers time its calls.
        captured = io.StringIO()
        with tracer.span(f"cli.main_inprocess.{argv[0]}"):
            with contextlib.redirect_stdout(captured):
                code = qbc.cli.main(argv)
        return code == 0 and captured.getvalue().encode() == result.stdout

    def trace_extra(self, op, sample):
        if op is not self.ops[0]:
            return
        exe = sys.executable
        seconds, _ = run_child([exe, "-c", "pass"], self.env, self.stderr_path)
        self.python_start.append(seconds)
        probe = "import time; t = time.perf_counter(); import qbc; print(time.perf_counter() - t)"
        _, result = run_child([exe, "-c", probe], self.env, self.stderr_path)
        self.import_qbc.append(float(result.stdout))

    def coverage(self, samples, tracer):
        traced = [s for s in samples if s.whole is not None]
        start = median(self.python_start) + median(self.import_qbc)
        return sum(start + s.whole.children for s in traced) / sum(s.whole.duration for s in traced)

    def timings(self, samples):
        light = self._ok(samples, "light")
        _, p90 = latency_ms([s.seconds for s in light])
        # The six light commands differ in cost, so a round's mean is one
        # latency sample, as the sweep's rotation is.
        light_rounds = self._rounds(light, self.per_round["light"])
        p50, _ = latency_ms([sum(v) / len(v) for v in light_rounds])
        heavy = self._ok(samples, "heavy")
        heavy_passes = [sum(v) for v in self._rounds(heavy, self.per_round["heavy"])]
        heavy_pass = median(heavy_passes) if heavy_passes else 0.0
        return Report(
            {"op_ms_p50": p50, "work_per_s": rate(1.0, heavy_pass)},
            [
                ("cli_light_ms_p50", p50, "ms", f"median of {len(light_rounds)} round means"),
                ("cli_light_ms_p90", p90, "ms", f"n={len(light)} commands"),
                ("cli_heavy_pass_s", heavy_pass, "s", f"{len(heavy_passes)} passes"),
            ],
        )

    def end_to_end(self, samples, probe_rss):
        rss = max((s.result.maxrss_kib for s in samples if s.ok), default=0) / 1024.0
        return Report({"peak_rss_mib": rss}, [("cli_peak_rss_mib", rss, "MiB", "largest child ru_maxrss")])

    @staticmethod
    def _rounds(samples: list[Sample], per_round: int) -> list[list[float]]:
        """Seconds of the rounds in which all per_round commands succeeded."""
        rounds: dict[int, list[float]] = {}
        for s in samples:
            rounds.setdefault(s.round, []).append(s.seconds)
        return [v for v in rounds.values() if len(v) == per_round]

    def per_layer(self, samples, tracer):
        out = {}
        out["cli.python_start_ms"] = 1e3 * median(self.python_start)
        out["cli.import_qbc_ms"] = 1e3 * median(self.import_qbc)
        for command in CLI_COMMANDS:
            out[f"cli.main_inprocess_ms.{command}"] = 1e3 * median(
                tracer.durations(f"cli.main_inprocess.{command}")
            )
        return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Sweep, Audit, MonteCarlo, Cli)}
