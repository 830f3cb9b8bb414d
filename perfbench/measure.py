"""One measured pass over a workload, with its correctness gate.

Operations are timed with wall time, one closed-loop client in this
process. Checks run between operations, outside the timed region and,
in the traced run, with the wrappers paused. A failed check counts the
operation as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import enexmatch.gallery as gl
import enexmatch.matching as mt

from oracle import disagreements, oracle_match
from summary import percentile
from workloads import Dataset, Workload, churn_round, enroll_job, probe_order, probe_request

# Seeded reports checked against the naive oracle: this many probe
# requests of the first min_rounds cycles, plus one report in each of
# the first min_rounds rounds.
ORACLE_PROBES = 4


@dataclass
class Checker:
    """Correctness gate; also scores rank-1 and hashes report texts.

    Scoring and hashing cover only the reports every run makes (those
    of the first ``min_rounds`` cycles), so both depend on the seed and
    not on machine speed.
    """

    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: {"parse": 0, "oracle": 0, "checkpoint": 0})
    hits: int = 0
    scored: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def report(self, where: str, probe, report, text: str, gallery, oracle: bool, scored: bool) -> bool:
        ok = True
        self.counts["parse"] += 1
        if mt.parse_match_report(text) != report.to_records():
            self.problems.append(f"{where}: to_text does not parse back to to_records")
            ok = False
        if oracle:
            self.counts["oracle"] += 1
            for problem in disagreements(report, oracle_match(probe, gallery)):
                self.problems.append(f"{where}: {problem}")
                ok = False
        if scored:
            self.digest.update(text.encode("utf-8"))
            self.scored += 1
            self.hits += report.ranking[0] == probe.label
        return ok

    def checkpoint(self, where: str, loaded, saved) -> bool:
        self.counts["checkpoint"] += 1
        if loaded != saved:
            self.problems.append(f"{where}: Gallery.load(path) differs from the saved gallery")
            return False
        return True


@dataclass
class PassResult:
    enroll_s: list
    probe_s: list
    round_s: list
    snapshot_bytes: int
    attempted: int
    failed: int
    checker: Checker

    def mean_probe_s(self) -> float:
        return sum(self.probe_s) / len(self.probe_s)

    def mean_round_s(self) -> float:
        return sum(self.round_s) / len(self.round_s)

    def metrics(self) -> dict[str, float]:
        p50, _ = percentile(self.probe_s, 50)
        p90, _ = percentile(self.probe_s, 90)
        round_p50, _ = percentile(self.round_s, 50)
        return {
            "enroll_s": statistics.median(self.enroll_s),
            "probes_per_s": 1.0 / self.mean_probe_s(),
            "probe_ms_p50": p50 * 1e3,
            "probe_ms_p90": p90 * 1e3,
            "round_ms_p50": round_p50 * 1e3,
            "snapshot_mb": self.snapshot_bytes / 1e6,
            "rank1_acc": self.checker.hits / self.checker.scored,
            "failed_frac": self.failed / self.attempted,
        }

    def samples(self) -> dict[str, int]:
        """Sample count behind each timing, and the count beyond p90."""
        return {
            "enroll_s": len(self.enroll_s),
            "probe_ms": len(self.probe_s),
            "probe_ms_p90_beyond": percentile(self.probe_s, 90)[1],
            "round_ms": len(self.round_s),
            "rank1_acc": self.checker.scored,
        }


def _failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc()


def measure(
    workload: Workload,
    ds: Dataset,
    seed: int,
    seconds: float,
    snapshot: Path,
    tracer=None,
) -> PassResult:
    """Enroll jobs, then cycles of probe requests followed by a churn round.

    Interleaving spreads both kinds of sample over the whole window, so
    slow drifts of machine speed reach probe and round timings alike.
    Cycles run until ``min_rounds`` are done and ``seconds`` have passed.
    Probe requests pick, in a seeded order, observations of subjects the
    served snapshot holds.
    """
    scope = tracer.operation if tracer else (lambda kind, i: contextlib.nullcontext())
    paused = tracer.paused if tracer else contextlib.nullcontext
    picks = random.Random(f"oracle-{seed}")
    checker = Checker()
    attempted = failed = 0
    start = time.perf_counter()

    enroll_s = []
    for job in range(workload.enroll_jobs):
        attempted += 1
        with scope("enroll", job):
            t0 = time.perf_counter()
            saved, gallery_map = enroll_job(ds.enroll_manifest, snapshot)
            enroll_s.append(time.perf_counter() - t0)
        with paused():
            served = gl.Gallery.load(snapshot)
            failed += not checker.checkpoint(f"enroll job {job}", served, saved)

    order = probe_order(ds, seed)
    scored_probes = workload.min_rounds * workload.probes_per_round
    oracle_at = set(picks.sample(range(scored_probes), min(ORACLE_PROBES, scored_probes)))
    waiting = deque(ds.labels[workload.initial :])
    bundles = {**gallery_map, **ds.pool_bundles}
    probe_s, round_s = [], []
    cursor = i = r = 0
    while r < workload.min_rounds or time.perf_counter() < start + seconds:
        enrolled = set(served.labels)
        for _ in range(workload.probes_per_round):
            while order[cursor % len(order)][0] not in enrolled:
                cursor += 1
            label, j = order[cursor % len(order)]
            cursor += 1
            attempted += 1
            try:
                with scope("probe", i):
                    t0 = time.perf_counter()
                    bundle, report, text = probe_request(
                        label, ds.probe_rows[label][j], ds.root, served
                    )
                    probe_s.append(time.perf_counter() - t0)
            except Exception:
                _failure(f"probe request {i}")
                failed += 1
            else:
                with paused():
                    ok = checker.report(
                        f"probe {i}", bundle, report, text, served,
                        oracle=i in oracle_at, scored=i < scored_probes,
                    )
                failed += not ok
            i += 1

        attempted += 1
        try:
            with scope("round", r):
                t0 = time.perf_counter()
                loaded, saved, matched = churn_round(
                    snapshot, waiting, bundles, ds.probe_bundles, workload.per_round
                )
                round_s.append(time.perf_counter() - t0)
        except Exception:
            _failure(f"churn round {r}")
            failed += 1
            break
        with paused():
            served = gl.Gallery.load(snapshot)
            ok = checker.checkpoint(f"round {r}", served, saved)
            pick = picks.randrange(len(matched))
            for m, (probe, report, text) in enumerate(matched):
                ok &= checker.report(
                    f"round {r} report {m}", probe, report, text, loaded,
                    oracle=r < workload.min_rounds and m == pick,
                    scored=r < workload.min_rounds,
                )
        failed += not ok
        r += 1
    return PassResult(
        enroll_s=enroll_s,
        probe_s=probe_s,
        round_s=round_s,
        snapshot_bytes=snapshot.stat().st_size,
        attempted=attempted,
        failed=failed,
        checker=checker,
    )
