import dataclasses
import math

import numpy as np
import pytest

from enexmatch import (
    BuildFeature,
    DimensionMismatchError,
    EmptyGalleryError,
    FeatureBundle,
    Gallery,
    HeightFeature,
    NoUsableFeatureError,
    UnfittedGalleryError,
    collective_confidence,
    confidence,
    match_probe,
    parse_match_report,
    rank_feature,
)
from helpers import enrolled_gallery, random_bundle


def ranking_reference(probe, class_sets):
    """Exhaustive pairwise distances, stable sort on (distance, order)."""
    rows = []
    for position, (label, samples) in enumerate(class_sets):
        best = min(
            math.sqrt(sum((a - b) ** 2 for a, b in zip(sample, probe)))
            for sample in samples
        )
        rows.append((best, position, label))
    rows.sort()
    return [label for _, _, label in rows]


class TestRankFeature:
    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(200)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 5))
            class_sets = [
                (f"c{i}", rng.normal(0, 1, (int(rng.integers(1, 5)), dim)))
                for i in range(n)
            ]
            probe = rng.normal(0, 1, dim)
            got = rank_feature(probe, class_sets, "clothing")
            assert list(got.labels) == ranking_reference(probe, class_sets)

    def test_distance_is_closest_sample(self):
        samples = np.array([[10.0], [2.0], [7.0]])
        got = rank_feature(np.array([0.0]), [("a", samples)], "height")
        assert got.distances == (2.0,)

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(201)
        class_sets = [(f"c{i}", rng.normal(0, 1, (3, 4))) for i in range(6)]
        got = rank_feature(rng.normal(0, 1, 4), class_sets, "clothing")
        assert list(got.distances) == sorted(got.distances)

    def test_tie_keeps_enrollment_order(self):
        class_sets = [
            ("late", np.array([[1.0, 0.0]])),
            ("early", np.array([[0.0, 1.0]])),
        ]
        got = rank_feature(np.zeros(2), class_sets, "build")
        assert got.labels == ("late", "early")

    def test_ranks_are_dense(self):
        rng = np.random.default_rng(202)
        class_sets = [(f"c{i}", rng.normal(0, 1, (2, 3))) for i in range(5)]
        got = rank_feature(rng.normal(0, 1, 3), class_sets, "clothing")
        assert sorted(got.rank_of(f"c{i}") for i in range(5)) == [1, 2, 3, 4, 5]

    def test_scale_invariance_of_order(self):
        rng = np.random.default_rng(203)
        class_sets = [(f"c{i}", rng.normal(0, 1, (2, 3))) for i in range(5)]
        probe = rng.normal(0, 1, 3)
        base = rank_feature(probe, class_sets, "clothing").labels
        scaled = [(label, samples * 100.0) for label, samples in class_sets]
        assert rank_feature(probe * 100.0, scaled, "clothing").labels == base

    def test_empty_gallery(self):
        with pytest.raises(EmptyGalleryError):
            rank_feature(np.zeros(2), [], "clothing")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rank_feature(np.zeros(2), [("a", np.zeros((1, 3)))], "clothing")

    def test_probe_must_be_a_vector(self):
        with pytest.raises(DimensionMismatchError):
            rank_feature(np.zeros((1, 2)), [("a", np.zeros((1, 2)))], "clothing")

    def test_class_without_samples(self):
        with pytest.raises(ValueError):
            rank_feature(np.zeros(2), [("a", np.zeros((0, 2)))], "clothing")

    def test_packed_block_ranks_like_pairs(self):
        rng = np.random.default_rng(204)
        gallery = enrolled_gallery(rng, n=7, samples=3).fit()
        block = gallery.projected_block("clothing")
        pairs = [(label, gallery.projected["clothing"][label]) for label in gallery.labels]
        probe = rng.normal(0, 1, block.rows.shape[1])
        assert rank_feature(probe, block, "clothing") == rank_feature(
            probe, pairs, "clothing"
        )

    def test_rank_and_distance_lookups(self):
        got = rank_feature(
            np.zeros(1), [("a", np.array([[3.0]])), ("b", np.array([[1.0]]))], "height"
        )
        assert (got.rank_of("b"), got.rank_of("a")) == (1, 2)
        assert (got.distance_of("b"), got.distance_of("a")) == (1.0, 3.0)
        with pytest.raises(ValueError):
            got.rank_of("c")


class TestConfidence:
    @pytest.mark.parametrize(
        "rank,n,expected",
        [(1, 4, 1.0), (2, 4, 0.75), (4, 4, 0.25), (1, 1, 1.0), (7, 10, 0.4)],
    )
    def test_values(self, rank, n, expected):
        assert confidence(rank, n) == pytest.approx(expected)

    def test_bounds(self):
        for n in (1, 3, 9):
            values = [confidence(r, n) for r in range(1, n + 1)]
            assert values[0] == 1.0
            assert values[-1] == pytest.approx(1 / n)
            assert all(0 < v <= 1 for v in values)

    def test_conservation(self):
        # One full dense ranking always spends the same confidence mass.
        for n in (1, 2, 5, 17):
            total = sum(confidence(r, n) for r in range(1, n + 1))
            assert total == pytest.approx((n + 1) / 2, abs=1e-12)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            confidence(0, 4)
        with pytest.raises(ValueError):
            confidence(5, 4)
        with pytest.raises(ValueError):
            confidence(1, 0)

    def test_collective_is_mean(self):
        assert collective_confidence([1.0, 0.5], 2) == pytest.approx(0.75)
        assert collective_confidence([0.25], 1) == 0.25

    def test_collective_rejects_empty(self):
        with pytest.raises(NoUsableFeatureError):
            collective_confidence([], 0)

    def test_collective_length_check(self):
        with pytest.raises(ValueError):
            collective_confidence([1.0], 2)

    def test_collective_range_check(self):
        with pytest.raises(ValueError):
            collective_confidence([0.0], 1)
        with pytest.raises(ValueError):
            collective_confidence([1.2], 1)
        with pytest.raises(ValueError):
            collective_confidence([np.array([0.5, 0.0])], 1)

    def test_collective_arrays_match_scalars_bit_for_bit(self):
        rng = np.random.default_rng(205)
        n = 997
        for count in (1, 2, 3, 4):
            columns = [(n - rng.permutation(n)) / n for _ in range(count)]
            fused = collective_confidence(columns, count)
            for i in range(n):
                values = [float(column[i]) for column in columns]
                assert fused[i] == collective_confidence(values, count)


def metric_bundle(height, build, label=None):
    return FeatureBundle(
        height=HeightFeature(height), build=BuildFeature(build), label=label
    )


def metric_gallery(rows):
    """rows: (label, height, build) with one sample per class."""
    gallery = Gallery()
    for label, height, build in rows:
        gallery = gallery.enroll(label, [metric_bundle(height, build, label)])
    return gallery.fit()


class TestMatchProbe:
    def test_uses_shared_features_only(self):
        rng = np.random.default_rng(210)
        gallery = enrolled_gallery(rng, n=4, samples=3).fit()
        probe = random_bundle(rng, features=("clothing", "height"))
        report = match_probe(probe, gallery)
        assert report.features_used == ("clothing", "height")

    def test_gallery_gaps_limit_coverage(self):
        rng = np.random.default_rng(211)
        gallery = Gallery()
        gallery = gallery.enroll("a", [random_bundle(rng)])
        gallery = gallery.enroll(
            "b", [random_bundle(rng, features=("clothing", "height"))]
        )
        gallery = gallery.fit()
        report = match_probe(random_bundle(rng), gallery)
        # Build and complexion cover only one of two classes, so they sit out.
        assert report.features_used == ("clothing", "height")

    def test_collective_is_mean_of_per_feature(self):
        rng = np.random.default_rng(212)
        gallery = enrolled_gallery(rng, n=5, samples=2).fit()
        report = match_probe(random_bundle(rng), gallery)
        for label in report.ranking:
            values = [report.confidences[fid][label] for fid in report.features_used]
            assert report.collective[label] == pytest.approx(
                sum(values) / len(values), abs=1e-12
            )

    def test_per_feature_conservation(self):
        rng = np.random.default_rng(213)
        gallery = enrolled_gallery(rng, n=6, samples=2).fit()
        report = match_probe(random_bundle(rng), gallery)
        n = gallery.n
        for fid in report.features_used:
            total = sum(report.confidences[fid].values())
            assert total == pytest.approx((n + 1) / 2, abs=1e-12)

    def test_ranking_sorted_by_collective(self):
        rng = np.random.default_rng(214)
        gallery = enrolled_gallery(rng, n=6, samples=2).fit()
        report = match_probe(random_bundle(rng), gallery)
        scores = [report.collective[label] for label in report.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_toy_ranking(self):
        gallery = metric_gallery(
            [("a", 0.20, 3.0), ("b", 0.40, 2.0), ("c", 0.80, 6.0)]
        )
        report = match_probe(metric_bundle(0.20, 2.0, label="probe1"), gallery)
        # Height ranks a,b,c; build ranks b,a,c. CF ties a and b at 5/6,
        # both hold a best rank of 1, so enrollment order puts a first.
        assert report.ranking == ("a", "b", "c")
        assert report.collective["a"] == pytest.approx(5 / 6)
        assert report.collective["b"] == pytest.approx(5 / 6)
        assert report.collective["c"] == pytest.approx(1 / 3)

    def test_cf_tie_falls_back_to_enrollment_order(self):
        swapped = metric_gallery(
            [("b", 0.40, 2.0), ("a", 0.20, 3.0), ("c", 0.80, 6.0)]
        )
        report = match_probe(metric_bundle(0.20, 2.0), swapped)
        assert report.ranking == ("b", "a", "c")

    def test_cf_tie_prefers_better_single_feature_rank(self):
        # b holds ranks 2 and 2, c holds ranks 3 and 1; both fuse to 0.75.
        # c's best single rank wins even though b enrolled earlier.
        gallery = metric_gallery(
            [
                ("a", 0.20, 6.00),
                ("b", 0.35, 2.20),
                ("c", 0.50, 2.00),
                ("d", 0.90, 4.00),
            ]
        )
        probe = metric_bundle(0.20, 2.05)
        report = match_probe(probe, gallery)
        assert report.collective["b"] == pytest.approx(0.75)
        assert report.collective["c"] == pytest.approx(0.75)
        assert report.ranking.index("c") < report.ranking.index("b")

    def test_enrollment_permutation_keeps_scores(self):
        rng = np.random.default_rng(215)
        bundles = {f"s{i}": [random_bundle(rng) for _ in range(2)] for i in range(5)}
        probe = random_bundle(rng)
        forward = Gallery()
        for label in sorted(bundles):
            forward = forward.enroll(label, bundles[label])
        backward = Gallery()
        for label in sorted(bundles, reverse=True):
            backward = backward.enroll(label, bundles[label])
        a = match_probe(probe, forward.fit())
        b = match_probe(probe, backward.fit())
        for label in bundles:
            assert a.collective[label] == pytest.approx(
                b.collective[label], abs=1e-9
            )

    def test_probe_id_carried(self):
        rng = np.random.default_rng(216)
        gallery = enrolled_gallery(rng).fit()
        report = match_probe(random_bundle(rng, label="exit17"), gallery)
        assert report.probe_id == "exit17"
        assert report.n == gallery.n

    def test_empty_gallery(self):
        rng = np.random.default_rng(217)
        with pytest.raises(EmptyGalleryError):
            match_probe(random_bundle(rng), Gallery())

    def test_unfitted_gallery(self):
        rng = np.random.default_rng(218)
        with pytest.raises(UnfittedGalleryError):
            match_probe(random_bundle(rng), enrolled_gallery(rng))

    def test_no_shared_feature(self):
        rng = np.random.default_rng(219)
        gallery = enrolled_gallery(rng, features=("height", "build")).fit()
        probe = random_bundle(rng, features=("clothing",))
        with pytest.raises(NoUsableFeatureError):
            match_probe(probe, gallery)

    def test_probe_dimension_mismatch(self):
        rng = np.random.default_rng(220)
        gallery = enrolled_gallery(rng, features=("clothing",)).fit()
        wide = random_bundle(rng, features=("clothing",))
        doubled = FeatureBundle(
            clothing=type(wide.clothing)(np.tile(wide.clothing.values, 2))
        )
        with pytest.raises(DimensionMismatchError):
            match_probe(doubled, gallery)


class TestReportSerialization:
    def test_text_round_trip(self):
        rng = np.random.default_rng(230)
        gallery = enrolled_gallery(rng, n=5, samples=2).fit()
        report = match_probe(random_bundle(rng, label="exit03"), gallery)
        assert parse_match_report(report.to_text()) == report.to_records()

    def test_anonymous_probe_round_trip(self):
        rng = np.random.default_rng(231)
        gallery = enrolled_gallery(rng, n=3, samples=2).fit()
        report = match_probe(random_bundle(rng), gallery)
        parsed = parse_match_report(report.to_text())
        assert parsed["probe_id"] is None
        assert parsed == report.to_records()

    def test_records_are_rank_ordered(self):
        rng = np.random.default_rng(232)
        gallery = enrolled_gallery(rng, n=4, samples=2).fit()
        records = match_probe(random_bundle(rng), gallery).to_records()
        assert [row["rank"] for row in records["classes"]] == [1, 2, 3, 4]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_match_report("")
        with pytest.raises(ValueError):
            parse_match_report("totally wrong\n")
        with pytest.raises(ValueError):
            parse_match_report("probe=- n=2 features=height\nbad line\n")


def naive_match(probe, gallery):
    """Per-class, per-sample loops over the gallery's public data.

    Per-vector arithmetic is the library's (a matrix-vector product, then
    the square root of a summed square), so distances agree bit for bit
    and exact ties resolve the same way.
    """
    labels = gallery.labels
    n = len(labels)
    traits = [
        fid
        for fid in ("clothing", "height", "build", "complexion")
        if fid in gallery.transforms
        and probe.feature_vector(fid) is not None
        and all(gallery.feature_samples(label, fid) is not None for label in labels)
    ]
    orders, distances, ranks = {}, {}, {}
    for fid in traits:
        matrix = gallery.transforms[fid].matrix
        target = matrix.T @ probe.feature_vector(fid)
        best = []
        for label in labels:
            closest = math.inf
            for row in gallery.feature_samples(label, fid):
                delta = matrix.T @ row - target
                closest = min(closest, float(np.sqrt((delta * delta).sum())))
            best.append(closest)
        order = sorted(range(n), key=lambda i: (best[i], i))
        orders[fid] = tuple(labels[i] for i in order)
        distances[fid] = tuple(best[i] for i in order)
        ranks[fid] = {labels[i]: r for r, i in enumerate(order, start=1)}
    collective, best_rank = {}, {}
    for label in labels:
        values = [(n - ranks[fid][label] + 1) / n for fid in traits]
        collective[label] = sum(values) / len(traits)
        best_rank[label] = min(ranks[fid][label] for fid in traits)
    final = sorted(
        range(n), key=lambda i: (-collective[labels[i]], best_rank[labels[i]], i)
    )
    return {
        "features": tuple(traits),
        "orders": orders,
        "distances": distances,
        "ranks": ranks,
        "collective": collective,
        "ranking": tuple(labels[i] for i in final),
    }


def integer_box_bundle(rng, label=None, features=("clothing", "height", "build", "complexion")):
    """Height from an integer box over a 200 px reference, so heights tie exactly."""
    bundle = random_bundle(rng, label=label, features=features)
    return dataclasses.replace(
        bundle, height=HeightFeature(int(rng.integers(100, 160)) / 200)
    )


class TestVectorizedOracle:
    def test_large_gallery_matches_naive_loops(self):
        # 320 classes of 1 to 6 samples, so the packed class boundaries
        # vary and single-sample classes occur; 60 distinct box heights
        # over 1000+ samples force exact height ties; one class without
        # complexion makes that trait sit out for every probe.
        rng = np.random.default_rng(240)
        gallery = Gallery()
        for i in range(320):
            label = f"c{i:03d}"
            features = ("clothing", "height", "build") if i == 17 else (
                "clothing", "height", "build", "complexion"
            )
            bundles = [
                integer_box_bundle(rng, label, features)
                for _ in range(int(rng.integers(1, 7)))
            ]
            gallery = gallery.enroll(label, bundles)
        gallery = gallery.fit()
        assert "complexion" in gallery.transforms
        assert "complexion" not in gallery.covered_features()
        sizes = [gallery.class_size(label) for label in gallery.labels]
        assert min(sizes) == 1 and max(sizes) == 6

        tied = 0
        for k in range(6):
            features = ("clothing", "height") if k % 2 else (
                "clothing", "height", "build", "complexion"
            )
            probe = integer_box_bundle(rng, f"x{k}", features)
            report = match_probe(probe, gallery)
            expected = naive_match(probe, gallery)
            assert report.features_used == expected["features"]
            for ranking in report.per_feature:
                fid = ranking.feature_id
                assert ranking.labels == expected["orders"][fid]
                assert ranking.distances == expected["distances"][fid]
                for label, rank in expected["ranks"][fid].items():
                    assert ranking.rank_of(label) == rank
            for label, value in expected["collective"].items():
                assert report.collective[label] == value
            assert report.ranking == expected["ranking"]
            height = expected["distances"]["height"]
            tied += sum(a == b for a, b in zip(height, height[1:]))

            records = report.to_records()
            assert type(records["n"]) is int
            for row in records["classes"]:
                assert type(row["rank"]) is int
                assert all(type(r) is int for r in row["ranks"])
                assert all(type(c) is float for c in row["cf"])
                assert type(row["CF"]) is float
            assert parse_match_report(report.to_text()) == records
        assert tied > 0
