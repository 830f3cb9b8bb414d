"""Acceptance suite.

Each test checks one shipping criterion end to end and prints a single
PASS/FAIL line (with the key measurements) even under output capture.
Reference computations here are deliberately naive re-implementations:
per-pixel counting loops, per-column counts, double-loop outer-product
sums, and exhaustive pairwise distances. Counting oracles must agree
bitwise; floating-point accumulations must agree to 1e-12 relative, and
any derived ordering must agree exactly.
"""

import math
import time

import numpy as np

from enexmatch import (
    Gallery,
    SyntheticConfig,
    clothing_histogram,
    decompose_regions,
    emit_report,
    evaluate,
    generate_synthetic,
    ingest,
    match_probe,
    parse_report,
    rank_feature,
    scatter_statistics,
    vertical_projection,
)
from helpers import (
    class_block,
    enrolled_gallery,
    random_bundle,
    random_mask,
    random_chroma,
)

MODERATE_NOISE = dict(
    pixel_noise=8.0,
    chroma_noise=2.0,
    height_noise=2.0,
    build_noise=1.5,
)
ROBUSTNESS_SEEDS = (101, 202, 303)


def _report(capsys, number, title, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {number} ({title}): {status}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, "; ".join(failures[:5])


def close(a, b, rtol):
    return np.allclose(a, b, rtol=rtol, atol=rtol)


class TestCriterion1:
    def test_oracle_equivalence(self, capsys):
        start = time.perf_counter()
        failures = []
        rng = np.random.default_rng(1001)

        # Clothing histogram against a per-pixel counting loop.
        for trial in range(50):
            regions = decompose_regions(random_chroma(rng, 128, 64))
            expected = []
            for region in (regions.torso, regions.legs):
                for plane in region.planes:
                    counts = [0] * 24
                    total = 0
                    for row in plane:
                        for value in row:
                            counts[int(value) * 24 // 256] += 1
                            total += 1
                    expected.extend(c / total if total else 0.0 for c in counts)
            got = clothing_histogram(regions).values
            if not np.array_equal(got, np.array(expected)):
                failures.append(f"histogram mismatch on trial {trial}")
                break

        # Vertical projection against a per-column count.
        for trial in range(50):
            mask = random_mask(rng, int(rng.integers(3, 80)), int(rng.integers(1, 60)))
            expected = [
                sum(1 for i in range(mask.height) if mask.bits[i, j])
                for j in range(mask.width)
            ]
            if vertical_projection(mask).tolist() != expected:
                failures.append(f"projection mismatch on trial {trial}")
                break

        # Scatter matrices against naive double loops.
        for trial in range(30):
            dim = int(rng.integers(1, 9))
            classes = []
            for c in range(int(rng.integers(2, 7))):
                center = rng.normal(0, 3, dim)
                classes.append(
                    (
                        f"c{c}",
                        center + rng.normal(0, 1, (int(rng.integers(1, 7)), dim)),
                    )
                )
            naive_within = np.zeros((dim, dim))
            for _, samples in classes:
                mean = samples.mean(axis=0)
                for s in samples:
                    naive_within += np.outer(s - mean, s - mean)
            counts = [len(samples) for _, samples in classes]
            means = [samples.mean(axis=0) for _, samples in classes]
            grand = sum(m * mu for m, mu in zip(counts, means)) / sum(counts)
            naive_between = np.zeros((dim, dim))
            for m, mu in zip(counts, means):
                naive_between += m * np.outer(mu - grand, mu - grand)
            block = class_block(classes)
            got_within, got_between = scatter_statistics(block)
            if not close(got_within, naive_within, 1e-12):
                failures.append(f"within-scatter mismatch on trial {trial}")
                break
            if not close(got_between, naive_between, 1e-12):
                failures.append(f"between-scatter mismatch on trial {trial}")
                break

        # Per-feature ranking against exhaustive pairwise distances.
        for trial in range(20):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 6))
            class_sets = [
                (f"c{i}", rng.normal(0, 1, (int(rng.integers(1, 5)), dim)))
                for i in range(n)
            ]
            probe = rng.normal(0, 1, dim)
            rows = []
            for position, (label, samples) in enumerate(class_sets):
                best = min(
                    math.sqrt(sum((a - b) ** 2 for a, b in zip(s, probe)))
                    for s in samples
                )
                rows.append((best, position, label))
            rows.sort()
            got = rank_feature(probe, class_block(class_sets), "clothing")
            if list(got.labels) != [label for _, _, label in rows]:
                failures.append(f"ranking order mismatch on trial {trial}")
                break
            if not close(got.distances, [d for d, _, _ in rows], 1e-12):
                failures.append(f"ranking distance mismatch on trial {trial}")
                break

        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"took {elapsed:.1f}s, limit 10s")
        _report(capsys, 1, "oracle equivalence", failures, f"{elapsed:.1f}s")


class TestCriterion2:
    def test_confidence_conservation(self, capsys):
        failures = []
        rng = np.random.default_rng(1002)
        for run in range(100):
            n = int(rng.integers(2, 11))
            gallery = enrolled_gallery(rng, n=n, samples=int(rng.integers(1, 4))).fit()
            report = match_probe(random_bundle(rng), gallery)
            classes = report.to_records()["classes"]
            for column, fid in enumerate(report.features_used):
                total = sum(row["cf"][column] for row in classes)
                if abs(total - (n + 1) / 2) > 1e-12:
                    failures.append(
                        f"run {run} feature {fid}: sum {total!r} != {(n + 1) / 2!r}"
                    )
            for row in classes:
                label, values = row["label"], row["cf"]
                mean = sum(values) / len(values)
                cf = report.collective[label]
                if abs(cf - mean) > 1e-12:
                    failures.append(f"run {run} class {label}: CF is not the mean")
                if not (1 / n - 1e-12 <= cf <= 1 + 1e-12):
                    failures.append(f"run {run} class {label}: CF {cf} out of range")
            if failures:
                break
        _report(capsys, 2, "confidence conservation", failures, "100 runs")


class TestCriterion3:
    def test_discriminant_sanity(self, capsys):
        failures = []
        from enexmatch import fit_transform

        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            dim = int(rng.integers(2, 9))
            classes = []
            for c in range(3):
                center = rng.normal(0, 4, dim)
                classes.append(
                    (
                        f"c{c}",
                        center + rng.normal(0, 1, (int(rng.integers(3, 9)), dim)),
                    )
                )
            block = class_block(classes)
            within, between = scatter_statistics(block)
            scale = max(float(np.abs(within).max()), float(np.abs(between).max()), 1.0)
            for name, matrix in (("within", within), ("between", between)):
                if not np.allclose(matrix, matrix.T, rtol=0, atol=1e-8 * scale):
                    failures.append(f"seed {seed}: {name} scatter not symmetric")
                if np.linalg.eigvalsh(matrix).min() < -1e-8 * scale:
                    failures.append(f"seed {seed}: {name} scatter not PSD")
            stacked = np.vstack([samples for _, samples in classes])
            centered = stacked - stacked.mean(axis=0)
            total = centered.T @ centered
            if not np.allclose(within + between, total, rtol=1e-8, atol=1e-8 * scale):
                failures.append(f"seed {seed}: within+between != total")

            baseline = float(np.trace(between)) / float(np.trace(within))
            transform = fit_transform(block)
            w = transform.matrix
            fitted = float(np.trace(w.T @ between @ w)) / float(np.trace(w.T @ within @ w))
            if fitted < baseline:
                failures.append(
                    f"seed {seed}: fitted ratio {fitted:.6f} < identity {baseline:.6f}"
                )
        _report(capsys, 3, "discriminant sanity", failures, "10 seeds")


class TestCriterion4:
    def test_perfect_recall_on_clean_data(self, capsys, tmp_path):
        start = time.perf_counter()
        failures = []
        config = SyntheticConfig(
            subjects=25,
            samples_per_subject=30,
            metric_samples=5,
            probes_per_subject=1,
            seed=42,
        )
        gallery_map, probes = ingest(generate_synthetic(config, tmp_path))
        curve = evaluate(gallery_map, probes).accuracies
        if curve[0] != 1.0:
            failures.append(f"rank-1 accuracy {curve[0]} != 1.000")
        if any(b < a for a, b in zip(curve, curve[1:])):
            failures.append("CMC decreases")
        if curve[-1] != 1.0:
            failures.append(f"CMC terminal {curve[-1]} != 1.0")
        elapsed = time.perf_counter() - start
        if elapsed >= 30.0:
            failures.append(f"took {elapsed:.1f}s, limit 30s")
        _report(
            capsys,
            4,
            "closed-set perfect recall",
            failures,
            f"rank-1 {curve[0]:.3f}, {elapsed:.1f}s",
        )


class TestCriterion5:
    def test_ensemble_beats_clothing_under_change(self, capsys, tmp_path):
        start = time.perf_counter()
        failures = []
        margins = []
        for seed in ROBUSTNESS_SEEDS:
            config = SyntheticConfig(
                subjects=25,
                samples_per_subject=30,
                metric_samples=5,
                probes_per_subject=4,
                clothing_change_prob=0.5,
                seed=seed,
                **MODERATE_NOISE,
            )
            out = tmp_path / f"seed{seed}"
            gallery_map, probes = ingest(generate_synthetic(config, out))
            alone = evaluate(gallery_map, probes, features=("clothing",))
            ensemble = evaluate(gallery_map, probes)
            margin = ensemble.accuracy(10) - alone.accuracy(10)
            margins.append(margin)
            if margin < 0.05:
                failures.append(
                    f"seed {seed}: ensemble rank-10 {ensemble.accuracy(10):.3f} "
                    f"beats clothing-only {alone.accuracy(10):.3f} "
                    f"by only {margin:.3f} < 0.05"
                )
        elapsed = time.perf_counter() - start
        if elapsed >= 120.0:
            failures.append(f"took {elapsed:.1f}s, limit 120s")
        detail = (
            "margins "
            + "/".join(f"{m:+.3f}" for m in margins)
            + f", {elapsed:.1f}s"
        )
        _report(capsys, 5, "robustness ordering", failures, detail)


class TestCriterion6:
    def test_protocol_shape_and_table_format(self, capsys, tmp_path):
        failures = []
        for size in (10, 25, 50):
            config = SyntheticConfig(
                subjects=size,
                samples_per_subject=30,
                metric_samples=5,
                probes_per_subject=1,
                seed=7,
            )
            out = tmp_path / f"n{size}"
            gallery_map, probes = ingest(generate_synthetic(config, out))
            if sorted(len(v) for v in gallery_map.values()) != [30] * size:
                failures.append(f"n={size}: gallery is not 30 samples per subject")
            metric_counts = {
                label: sum(
                    1
                    for b in bundles
                    if b.feature_vector("height") is not None
                    and b.feature_vector("build") is not None
                )
                for label, bundles in gallery_map.items()
            }
            if set(metric_counts.values()) != {5}:
                failures.append(f"n={size}: metric samples per subject != 5")
            if len(probes) != size:
                failures.append(f"n={size}: expected one probe per subject")
            curve = evaluate(gallery_map, probes)
            if len(curve.accuracies) != size:
                failures.append(f"n={size}: wrong curve length")
            rates = {k: curve.accuracy(k) for k in (1, 5, 10)}
            table = emit_report([("all-features", rates)], ks=(1, 5, 10))
            header = table.splitlines()[0]
            if header != "Rank                    1      5     10":
                failures.append(f"n={size}: header layout changed: {header!r}")
            parsed = parse_report(table)
            if parsed[0][0] != "all-features" or sorted(parsed[0][1]) != [1, 5, 10]:
                failures.append(f"n={size}: table does not parse back")

        # Fixed-fixture row must reproduce byte-exactly through the formatter.
        fixture = emit_report([("proposed", {1: 0.231, 5: 0.489, 10: 0.867})])
        row = fixture.splitlines()[1]
        if row != "proposed            0.231  0.489  0.867":
            failures.append(f"fixture row {row!r} is not byte-exact")
        if "0.231  0.489  0.867" not in fixture:
            failures.append("fixture cells missing from the table")
        _report(capsys, 6, "protocol shape", failures, "sizes 10/25/50")


class TestCriterion7:
    def test_lifecycle_and_persistence(self, capsys, tmp_path):
        failures = []
        rng = np.random.default_rng(1007)
        gallery = Gallery()
        shadow = []
        counter = 0
        path = tmp_path / "state.bin"
        for step in range(200):
            roll = rng.random()
            if roll < 0.40 or gallery.n == 0:
                counter += 1
                label = f"s{counter:03d}"
                gallery = gallery.enroll(
                    label,
                    [
                        random_bundle(rng, label=label)
                        for _ in range(int(rng.integers(1, 4)))
                    ],
                )
                shadow.append(label)
            elif roll < 0.65:
                victim = shadow[int(rng.integers(0, len(shadow)))]
                gallery = gallery.retire(victim)
                shadow.remove(victim)
            elif roll < 0.80 and gallery.n >= 2:
                gallery = gallery.fit()
            else:
                gallery.save(path)
                loaded = Gallery.load(path)
                if not (loaded == gallery):
                    failures.append(f"step {step}: load(save(g)) != g")
                    break
                gallery = loaded

            if gallery.labels != tuple(shadow):
                failures.append(f"step {step}: label order diverged")
                break
            if gallery.n != len(shadow):
                failures.append(f"step {step}: class count diverged")
                break
            if len(set(gallery.labels)) != gallery.n:
                failures.append(f"step {step}: duplicate labels")
                break
            if gallery.fitted:
                for fid in gallery.covered_features():
                    if set(gallery.projected_block(fid).labels) != set(shadow):
                        failures.append(f"step {step}: projection coverage broken")
                        break
        _report(capsys, 7, "lifecycle and persistence", failures, "200 steps")


class TestCriterion8:
    def test_end_to_end_performance(self, capsys, tmp_path):
        start = time.perf_counter()
        failures = []
        config = SyntheticConfig(
            subjects=50,
            samples_per_subject=30,
            metric_samples=5,
            probes_per_subject=1,
            seed=8,
            **MODERATE_NOISE,
        )
        manifest = generate_synthetic(config, tmp_path)
        gallery_map, probes = ingest(manifest)
        if len(probes) != 50:
            failures.append(f"expected 50 probes, got {len(probes)}")
        gallery = Gallery()
        for label, bundles in gallery_map.items():
            gallery = gallery.enroll(label, bundles)
        gallery = gallery.fit()
        hits = 0
        for probe in probes:
            report = match_probe(probe, gallery)
            hits += report.ranking[0] == probe.label
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            failures.append(f"took {elapsed:.1f}s, limit 60s")
        _report(
            capsys,
            8,
            "end-to-end performance",
            failures,
            f"n=50, rank-1 hits {hits}/50, {elapsed:.1f}s",
        )
