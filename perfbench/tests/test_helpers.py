"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import enexmatch  # noqa: E402
from enexmatch import (  # noqa: E402
    BuildFeature,
    ClothingHistogram,
    ComplexionFeature,
    FeatureBundle,
    Gallery,
    HeightFeature,
    MatchReport,
    PerFeatureRanking,
    match_probe,
)

import compare  # noqa: E402
import spans  # noqa: E402
from oracle import disagreements, oracle_match  # noqa: E402
from summary import percentile, quartiles, spread  # noqa: E402


# -- percentile ---------------------------------------------------------


def test_percentile_nearest_rank_and_count_beyond():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == (90, 10)
    assert percentile(values, 50) == (50, 50)
    assert percentile(values, 100) == (100, 0)
    assert percentile([7.0], 90) == (7.0, 0)


def test_percentile_counts_only_samples_strictly_beyond():
    assert percentile([1, 2, 2, 2, 3], 50) == (2, 1)
    assert percentile([5, 5, 5, 5], 90) == (5, 0)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(5.5 / 5.5)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


# -- spans and self time ------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_self_time_subtracts_nested_and_folded_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    tracer = spans.Tracer()

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 1.0
        folded_leaf()
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 2.0
        traced_inner()
        clock.now += 3.0

    folded_leaf = tracer.wrap("discriminant.project", leaf, folded=True)
    traced_inner = tracer.wrap("discriminant.fit_transform", inner, folded=False)
    traced_outer = tracer.wrap("gallery.fit", outer, folded=False)
    with tracer.operation("probe", 0):
        clock.now += 0.25
        traced_outer()

    totals = tracer.totals()
    assert totals["discriminant.project"] == {"calls": 2, "s": 1.0, "self_s": 1.0}
    assert totals["discriminant.fit_transform"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert totals["gallery.fit"] == {"calls": 1, "s": 11.0, "self_s": 6.0}
    assert totals["bench.probe"] == {"calls": 1, "s": 11.25, "self_s": 0.25}
    # Every span of the operation shares its id and records its parent.
    assert {s.op for s in tracer.spans} == {"probe:0"}
    names = [s.name for s in tracer.spans]
    parents = [names[s.parent] if s.parent >= 0 else None for s in tracer.spans]
    assert parents == [None, "bench.probe", "gallery.fit", "gallery.fit"]
    assert [s.folded for s in tracer.spans[2:]] == [
        {"discriminant.project": [1, 0.5]},
        {"discriminant.project": [1, 0.5]},
    ]
    shares = tracer.layer_shares("probe")
    assert shares == pytest.approx(
        {"bench": 0.25 / 11.25, "discriminant": 5.0 / 11.25, "gallery": 6.0 / 11.25}
    )


def test_paused_tracer_records_nothing(monkeypatch):
    tracer = spans.Tracer()
    traced = tracer.wrap("gallery.fit", lambda x: x + 1, folded=False)
    with tracer.paused():
        assert traced(1) == 2
    assert tracer.spans == []
    assert traced(1) == 2
    assert len(tracer.spans) == 1


# -- installing and uninstalling wrappers --------------------------------


def _library_attributes() -> dict:
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "enexmatch" or key.startswith("enexmatch."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
    for cls in (Gallery, PerFeatureRanking, MatchReport):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_uninstall_restores_every_attribute_identically():
    before = _library_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Every binding the library calls through is wrapped, with one wrapper.
        assert enexmatch.gallery.project is not before[("enexmatch.gallery", "project")]
        assert enexmatch.matching.project is enexmatch.gallery.project
        assert enexmatch.discriminant.project is enexmatch.gallery.project
        assert enexmatch.evaluation.extract_bundle.__wrapped__ is before[
            ("enexmatch.features", "extract_bundle")
        ]
        assert isinstance(vars(Gallery)["load"], classmethod)
        assert vars(Gallery)["load"] is not before[("Gallery", "load")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _library_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_every_target_exists_in_the_library():
    for _, module, attr, class_name, _ in spans.TARGETS:
        home = sys.modules[f"enexmatch.{module}"]
        owner = getattr(home, class_name) if class_name else home
        assert attr in vars(owner), f"enexmatch.{module}.{class_name or ''}{attr}"


# -- oracle -------------------------------------------------------------


def _clothing(peaks: tuple[int, int, int, int], spill: float) -> ClothingHistogram:
    blocks = []
    for peak in peaks:
        block = np.zeros(24)
        block[peak] = 1.0 - spill
        block[(peak + 1) % 24] = spill
        blocks.append(block)
    return ClothingHistogram(np.concatenate(blocks))


def _bundle(label, peaks, spill, height, build, skin) -> FeatureBundle:
    return FeatureBundle(
        clothing=_clothing(peaks, spill),
        height=HeightFeature(height),
        build=BuildFeature(build),
        complexion=ComplexionFeature(skin, valid=True)
        if skin
        else ComplexionFeature((math.nan, math.nan), valid=False),
        label=label,
    )


def _three_class_gallery() -> Gallery:
    # Classes a and c share their height samples exactly, so every probe
    # ties on height between them; the earlier-enrolled a must come first.
    g = Gallery()
    g = g.enroll("a", [
        _bundle("a", (1, 2, 3, 4), 0.1, 0.5, 2.0, (100.0, 150.0)),
        _bundle("a", (1, 2, 3, 4), 0.2, 0.52, 2.1, (102.0, 151.0)),
    ])
    g = g.enroll("b", [
        _bundle("b", (9, 10, 11, 12), 0.1, 0.8, 3.0, (110.0, 160.0)),
        _bundle("b", (9, 10, 11, 12), 0.3, 0.82, 3.2, (111.0, 158.0)),
    ])
    g = g.enroll("c", [
        _bundle("c", (17, 18, 19, 20), 0.1, 0.5, 4.0, (90.0, 140.0)),
        _bundle("c", (17, 18, 19, 20), 0.2, 0.52, 4.1, (91.0, 141.0)),
    ])
    return g.fit()


def test_oracle_agrees_with_match_probe_on_a_tie_and_a_sitting_out_trait():
    gallery = _three_class_gallery()
    probe = _bundle("b", (9, 10, 11, 12), 0.15, 0.51, 3.1, None)
    report = match_probe(probe, gallery)
    expected = oracle_match(probe, gallery)

    assert expected["features"] == ("clothing", "height", "build")
    height = next(r for r in report.per_feature if r.feature_id == "height")
    assert height.distance_of("a") == height.distance_of("c")
    assert expected["orders"]["height"].index("a") < expected["orders"]["height"].index("c")
    assert disagreements(report, expected) == []
    assert expected["ranking"][0] == "b"


def test_oracle_flags_a_wrong_report():
    gallery = _three_class_gallery()
    probe = _bundle("b", (9, 10, 11, 12), 0.15, 0.51, 3.1, None)
    report = match_probe(probe, gallery)
    expected = oracle_match(probe, gallery)

    swapped = dataclasses.replace(report, ranking=tuple(reversed(report.ranking)))
    assert "fused order differs from the oracle" in disagreements(swapped, expected)
    height = next(r for r in report.per_feature if r.feature_id == "height")
    reordered = dataclasses.replace(
        height, labels=tuple(reversed(height.labels)), distances=height.distances
    )
    tampered = dataclasses.replace(
        report,
        per_feature=tuple(reordered if r is height else r for r in report.per_feature),
    )
    assert "height order differs from the oracle" in disagreements(tampered, expected)
    fewer = dataclasses.replace(report, features_used=("clothing", "height"))
    assert disagreements(fewer, expected)


# -- compare verdicts ---------------------------------------------------


def test_compare_verdicts():
    parent = {s: v for s, v in enumerate([100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9])}
    faster = {s: v * 0.8 for s, v in parent.items()}
    slower = {s: v * 1.2 for s, v in parent.items()}
    same = {s: v + 0.05 for s, v in parent.items()}
    noisy = {s: v * (1.5 if s % 2 else 0.6) for s, v in parent.items()}
    assert compare.verdict(parent, faster, "lower", 0.1) == "better"
    assert compare.verdict(parent, slower, "lower", 0.1) == "worse"
    assert compare.verdict(parent, same, "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1) == "better"


# -- whole runs ---------------------------------------------------------


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_smoke_run_of_every_workload_passes_its_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--smoke", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=ROOT,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
            if trace:
                assert "wrappers with no calls" not in done.stdout
