import dataclasses
import math
import sys

import numpy as np
import pytest

from enexmatch import (
    BuildFeature,
    ClassBlock,
    DimensionMismatchError,
    EmptyGalleryError,
    FeatureBundle,
    Gallery,
    HeightFeature,
    NonFiniteInputError,
    NoUsableFeatureError,
    UnfittedGalleryError,
    collective_confidence,
    confidence,
    match_probe,
    parse_match_report,
    rank_feature,
)
from enexmatch.matching import _neumaier_sum
from helpers import class_block, enrolled_gallery, random_bundle


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
            got = rank_feature(probe, class_block(class_sets), "clothing")
            assert list(got.labels) == ranking_reference(probe, class_sets)

    def test_distance_is_closest_sample(self):
        samples = np.array([[10.0], [2.0], [7.0]])
        got = rank_feature(np.array([0.0]), class_block([("a", samples)]), "height")
        assert got.distances == (2.0,)

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(201)
        class_sets = [(f"c{i}", rng.normal(0, 1, (3, 4))) for i in range(6)]
        got = rank_feature(rng.normal(0, 1, 4), class_block(class_sets), "clothing")
        assert list(got.distances) == sorted(got.distances)

    def test_tie_keeps_enrollment_order(self):
        class_sets = [
            ("late", np.array([[1.0, 0.0]])),
            ("early", np.array([[0.0, 1.0]])),
        ]
        got = rank_feature(np.zeros(2), class_block(class_sets), "build")
        assert got.labels == ("late", "early")

    def test_ranks_are_dense(self):
        rng = np.random.default_rng(202)
        class_sets = [(f"c{i}", rng.normal(0, 1, (2, 3))) for i in range(5)]
        got = rank_feature(rng.normal(0, 1, 3), class_block(class_sets), "clothing")
        assert sorted(got.rank_of(f"c{i}") for i in range(5)) == [1, 2, 3, 4, 5]

    def test_scale_invariance_of_order(self):
        rng = np.random.default_rng(203)
        class_sets = [(f"c{i}", rng.normal(0, 1, (2, 3))) for i in range(5)]
        probe = rng.normal(0, 1, 3)
        base = rank_feature(probe, class_block(class_sets), "clothing").labels
        scaled = [(label, samples * 100.0) for label, samples in class_sets]
        assert rank_feature(probe * 100.0, class_block(scaled), "clothing").labels == base

    def test_block_of_no_classes_is_an_error(self):
        with pytest.raises(ValueError):
            ClassBlock((), [], np.zeros((0, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rank_feature(np.zeros(2), class_block([("a", np.zeros((1, 3)))]), "clothing")

    def test_probe_must_be_a_vector(self):
        with pytest.raises(DimensionMismatchError):
            rank_feature(np.zeros((1, 2)), class_block([("a", np.zeros((1, 2)))]), "clothing")

    def test_class_without_samples(self):
        with pytest.raises(ValueError):
            class_block([("a", np.zeros((0, 2)))])
        with pytest.raises(ValueError):
            ClassBlock(("a", "b"), [1, 2], np.zeros((2, 2)))

    def test_packed_block_ranks_like_pairs(self):
        rng = np.random.default_rng(204)
        gallery = enrolled_gallery(rng, n=7, samples=3).fit()
        block = gallery.projected_block("clothing")
        ends = [*block.starts[1:], len(block.rows)]
        pairs = [
            (label, block.rows[start:end])
            for label, start, end in zip(block.labels, block.starts, ends)
        ]
        probe = rng.normal(0, 1, block.rows.shape[1])
        got = rank_feature(probe, block, "clothing")
        assert got == rank_feature(probe, class_block(pairs), "clothing")
        assert list(got.labels) == ranking_reference(probe, pairs)

    def test_rank_and_distance_lookups(self):
        block = class_block([("a", np.array([[3.0]])), ("b", np.array([[1.0]]))])
        got = rank_feature(np.zeros(1), block, "height")
        assert (got.rank_of("b"), got.rank_of("a")) == (1, 2)
        assert (got.distance_of("b"), got.distance_of("a")) == (1.0, 3.0)
        with pytest.raises(ValueError):
            got.rank_of("c")

    def test_lookups_write_nothing_into_the_ranking(self):
        # The rank map is built on construction: an attribute written into
        # a built instance slows every later attribute read on it.
        got = rank_feature(np.zeros(1), class_block([("a", np.array([[3.0]]))]), "height")
        attributes = list(vars(got))
        assert got.rank_of("a") == 1
        assert list(vars(got)) == attributes

    def test_overflowing_distance_is_an_error(self):
        # Both squared distances overflow; neither class may win on inf.
        class_sets = [("a", np.array([[2e200]])), ("b", np.array([[1e200]]))]
        with pytest.raises(NonFiniteInputError, match="height distances overflow"):
            rank_feature(np.array([0.0]), class_block(class_sets), "height")


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
        fused = collective_confidence([np.array([1.0, 0.25]), np.array([0.5, 0.25])])
        assert fused.tolist() == pytest.approx([0.75, 0.25])
        assert collective_confidence([np.array([0.25])]).tolist() == [0.25]

    def test_collective_rejects_empty(self):
        with pytest.raises(NoUsableFeatureError):
            collective_confidence([])

    def test_collective_range_check(self):
        with pytest.raises(ValueError):
            collective_confidence([np.array([0.0])])
        with pytest.raises(ValueError):
            collective_confidence([np.array([1.2])])
        with pytest.raises(ValueError):
            collective_confidence([np.array([0.5, 0.0])])

    def test_collective_arrays_match_scalars_bit_for_bit(self):
        rng = np.random.default_rng(205)
        n = 997
        for count in (1, 2, 3, 4):
            columns = [(n - rng.permutation(n)) / n for _ in range(count)]
            fused = collective_confidence(columns)
            for i in range(n):
                values = [float(column[i]) for column in columns]
                assert fused[i] == sum(values) / count

    def test_neumaier_sum_rounds_as_cpython_312_sum(self):
        # The Python 3.12+ branch of the fused sum, checked on every
        # interpreter against CPython 3.12's float loop.
        rng = np.random.default_rng(206)
        rows = [[1.0, 1e-16, 1e-16, 1e-16], [1e-16, 1.0, -1.0, 1e-16]]
        for _ in range(2000):
            n = int(rng.integers(2, 1000))
            rows.append([(n - int(r) + 1) / n for r in rng.integers(1, n + 1, size=4)])
        columns = [np.array(column) for column in zip(*rows)]
        fused = _neumaier_sum(columns).tolist()
        assert fused == [cpython312_sum(row) for row in rows]
        # Rows where the compensation moved the result off the plain sum.
        compensated = sum(value != _left_to_right(row) for value, row in zip(fused, rows))
        assert compensated > 100
        if sys.version_info >= (3, 12):
            assert fused == [sum(row) for row in rows]


def _left_to_right(values):
    total = 0
    for x in values:
        total += x
    return total


def cpython312_sum(values):
    """CPython 3.12's builtin sum of floats with start 0, step for step."""
    total = 0 + values[0]
    compensation = 0.0
    for x in values[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


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
        classes = report.to_records()["classes"]
        assert [row["label"] for row in classes] == list(report.ranking)
        for row in classes:
            values = row["cf"]
            assert len(values) == len(report.features_used)
            assert report.collective[row["label"]] == pytest.approx(
                sum(values) / len(values), abs=1e-12
            )

    def test_per_feature_conservation(self):
        rng = np.random.default_rng(213)
        gallery = enrolled_gallery(rng, n=6, samples=2).fit()
        report = match_probe(random_bundle(rng), gallery)
        n = gallery.n
        classes = report.to_records()["classes"]
        for column in range(len(report.features_used)):
            total = sum(row["cf"][column] for row in classes)
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
        # A probe trait of another width than the fit sits out, as if absent.
        rng = np.random.default_rng(220)
        gallery = enrolled_gallery(rng, features=("clothing", "height")).fit()
        wide = random_bundle(rng, features=("clothing", "height"))
        doubled = dataclasses.replace(
            wide, clothing=type(wide.clothing)(np.tile(wide.clothing.values, 2))
        )
        report = match_probe(doubled, gallery)
        assert report.features_used == ("height",)
        height_only = dataclasses.replace(wide, clothing=None)
        assert report.to_text() == match_probe(height_only, gallery).to_text()
        expected = naive_match(doubled, gallery)
        assert expected["features"] == ("height",)
        assert report.ranking == expected["ranking"]
        with pytest.raises(NoUsableFeatureError):
            match_probe(dataclasses.replace(doubled, height=None), gallery)


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
        with pytest.raises(ValueError):
            parse_match_report("probe=- x=2 y=height\n")
        with pytest.raises(ValueError):
            parse_match_report("probe=- n=1 features=height\na x=1 cf=1.0 CF=1.0 rank=1\n")


def naive_text(report):
    """The report format written one repr per number, one line per class."""
    n = report.n
    lines = [
        f"probe={report.probe_id or '-'} n={n} "
        f"features={','.join(report.features_used)}"
    ]
    for position, label in enumerate(report.ranking, start=1):
        ranks = [ranking.rank_of(label) for ranking in report.per_feature]
        lines.append(
            f"{label} ranks={','.join(repr(r) for r in ranks)} "
            f"cf={','.join(repr(confidence(r, n)) for r in ranks)} "
            f"CF={report.collective[label]!r} rank={position!r}"
        )
    return "\n".join(lines) + "\n"


class TestReportText:
    def test_matches_naive_renderer_across_interleaved_sizes(self):
        # Sizes are matched in turn, so text cached for one gallery size
        # would show up in another size's report.
        rng = np.random.default_rng(233)
        galleries = [enrolled_gallery(rng, n=n, samples=2).fit() for n in (2, 7, 61)]
        probes = [
            random_bundle(rng, label="exit01"),
            random_bundle(rng, label="exit02", features=("clothing", "height", "build")),
            random_bundle(rng),
        ]
        seen = set()
        for _ in range(2):
            for gallery in galleries:
                for probe in probes:
                    report = match_probe(probe, gallery)
                    seen.add((report.n, len(report.features_used), report.probe_id))
                    assert report.to_text() == naive_text(report)
                    swapped = dataclasses.replace(
                        report, ranking=tuple(reversed(report.ranking))
                    )
                    assert swapped.to_text() == naive_text(swapped)
                    assert parse_match_report(swapped.to_text()) == swapped.to_records()
        assert {(n, f) for n, f, _ in seen} >= {(2, 3), (2, 4), (61, 3), (61, 4)}
        assert None in {probe_id for _, _, probe_id in seen}

    def test_cf_text_is_the_repr_of_each_value_on_galleries_sharing_a_size(self):
        # CF strings are memoized per gallery size: two galleries of 9
        # classes share one memo, and a 5-class gallery's reports come
        # between their reports.
        rng = np.random.default_rng(234)
        galleries = [enrolled_gallery(rng, n=n, samples=2).fit() for n in (9, 9, 5)]
        probes = [random_bundle(rng, label=f"exit{i}") for i in range(3)]
        for probe in probes:
            for gallery in galleries:
                report = match_probe(probe, gallery)
                assert report.to_text() == naive_text(report)
        # Two classes whose CFs differ in the last bit, as equal rank sums
        # often give: each keeps its own string.
        low = 0.43499999999999994
        high = float(np.nextafter(low, 1.0))
        first, second = report.ranking[:2]
        for a, b in ((low, high), (high, low)):
            twins = dataclasses.replace(
                report, collective={**report.collective, first: a, second: b}
            )
            text = twins.to_text()
            assert text == naive_text(twins)
            assert f"CF={a!r} " in text and f"CF={b!r} " in text


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
        and len(probe.feature_vector(fid)) == gallery.transforms[fid].input_dim
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
        sizes = [len(gallery.feature_samples(label, "clothing")) for label in gallery.labels]
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
