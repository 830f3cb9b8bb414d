import tracemalloc

import numpy as np
import pytest

from enexmatch import (
    BuildFeature,
    DegenerateProblemError,
    DimensionMismatchError,
    FeatureBundle,
    Gallery,
    NonFiniteInputError,
    default_ridge,
    fit_transform,
    project,
    scatter_statistics,
)
from enexmatch import discriminant as discriminant_module
from helpers import class_block, enrolled_gallery, forged_body, random_bundle, with_body


def within_reference(classes):
    """Sum of outer products, one sample at a time."""
    dim = classes[0][1].shape[1]
    total = np.zeros((dim, dim))
    for _, samples in classes:
        mean = samples.mean(axis=0)
        for s in samples:
            total += np.outer(s - mean, s - mean)
    return total


def between_reference(classes):
    counts = [len(samples) for _, samples in classes]
    means = [samples.mean(axis=0) for _, samples in classes]
    grand = sum(m * mu for m, mu in zip(counts, means)) / sum(counts)
    dim = classes[0][1].shape[1]
    total = np.zeros((dim, dim))
    for m, mu in zip(counts, means):
        total += m * np.outer(mu - grand, mu - grand)
    return total


def make_classes(rng, n_classes=3, dim=5, count=6, spread=1.0):
    """(label, samples) pairs of classes around random centers."""
    classes = []
    for i in range(n_classes):
        center = rng.normal(0.0, 4.0, size=dim)
        samples = center + rng.normal(0.0, spread, size=(count, dim))
        classes.append((f"c{i}", samples))
    return classes


class TestScatter:
    def test_within_matches_reference(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            classes = make_classes(rng)
            total, _ = scatter_statistics(class_block(classes))
            assert np.allclose(total, within_reference(classes), rtol=1e-12, atol=1e-12)

    def test_between_matches_reference(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            classes = make_classes(rng, count=4)
            _, got = scatter_statistics(class_block(classes))
            assert np.allclose(got, between_reference(classes), rtol=1e-12, atol=1e-12)

    def test_unbalanced_counts_weighted_by_size(self):
        rng = np.random.default_rng(102)
        classes = [
            ("a", rng.normal(0, 1, (2, 3))),
            ("b", rng.normal(3, 1, (9, 3))),
        ]
        _, got = scatter_statistics(class_block(classes))
        assert np.allclose(got, between_reference(classes), rtol=1e-12, atol=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            for matrix in scatter_statistics(class_block(make_classes(rng))):
                scale = max(float(np.abs(matrix).max()), 1.0)
                assert np.allclose(matrix, matrix.T, rtol=0, atol=1e-12 * scale)
                assert np.linalg.eigvalsh(matrix).min() > -1e-10 * scale

    def test_within_plus_between_is_total(self):
        rng = np.random.default_rng(104)
        for _ in range(5):
            classes = make_classes(rng)
            within, between = scatter_statistics(class_block(classes))
            stacked = np.vstack([samples for _, samples in classes])
            centered = stacked - stacked.mean(axis=0)
            total = centered.T @ centered
            assert np.allclose(within + between, total, rtol=1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(105)
        base = [
            (f"c{i}", rng.integers(0, 100, (4, 5)).astype(np.float64)) for i in range(4)
        ]
        shift = np.array([7.0, -3.0, 11.0, 0.0, 2.0])
        moved = class_block([(label, samples + shift) for label, samples in base])
        for got, want in zip(scatter_statistics(class_block(base)), scatter_statistics(moved)):
            assert np.array_equal(got, want)

    def test_single_sample_classes_have_zero_within(self):
        classes = [
            ("a", np.array([[1.0, 2.0]])),
            ("b", np.array([[5.0, 0.0]])),
        ]
        total, _ = scatter_statistics(class_block(classes))
        assert np.all(total == 0.0)

    def test_non_finite_rejected(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteInputError):
            scatter_statistics(class_block([("a", bad), ("b", np.ones((2, 3)))]))

    def test_between_needs_two_classes(self):
        with pytest.raises(DegenerateProblemError):
            scatter_statistics(class_block([("a", np.ones((3, 2)))]))


def frozen_statistics(classes):
    """Within and between scatter by the per-class loops ``scatter_statistics``
    replaced, over (label, samples) pairs."""
    dim = classes[0][1].shape[1]
    within = np.zeros((dim, dim), dtype=np.float64)
    for _, samples in classes:
        centered = samples.astype(np.float64) - samples.mean(axis=0)
        within += centered.T @ centered
    counts = np.array([len(samples) for _, samples in classes], dtype=np.float64)
    means = np.stack([samples.mean(axis=0) for _, samples in classes])
    grand = (counts[:, None] * means).sum(axis=0) / counts.sum()
    between = np.zeros_like(within)
    for m, diff in zip(counts, means - grand):
        between += m * np.outer(diff, diff)
    return within, between


def frozen_fit(classes):
    """The former ``fit_transform`` with the default ridge, on the frozen loops."""
    within, between = frozen_statistics(classes)
    dim = within.shape[0]
    ridge = default_ridge(within)
    chol = np.linalg.cholesky(within + ridge * np.eye(dim))
    half = np.linalg.solve(chol, between)
    whitened = np.linalg.solve(chol, half.T).T
    whitened = (whitened + whitened.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(whitened)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    vectors = np.linalg.solve(chol.T, eigvecs[:, order])
    vectors /= np.linalg.norm(vectors, axis=0)
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    discriminative = float(np.trace(between)) > discriminant_module.EIGENVALUE_CUTOFF * (
        float(np.trace(within)) + float(np.trace(between))
    )
    if not discriminative:
        return vectors[:, :1], np.zeros(1), ridge, False
    keep = eigvals > discriminant_module.RANK_CUTOFF * eigvals[0]
    keep[0] = True
    return vectors[:, keep] * eigvals[keep], eigvals[keep], ridge, True


def mixed_classes(rng, n_classes, dim):
    """Classes of 1 to 20 samples, each scaled by 1e-3 to 1e3, with one
    zero-spread class and one of integer samples among them."""
    classes = []
    for i in range(n_classes):
        count = int(rng.integers(1, 21))
        scale = 10.0 ** rng.uniform(-3, 3)
        samples = rng.normal(0.0, 4.0, dim) + scale * rng.normal(size=(count, dim))
        if i == 1:
            samples = np.repeat(samples[:1], max(count, 2), axis=0)
        if i == 2:
            samples = rng.integers(-50, 50, size=(count, dim))
        classes.append((f"c{i}", samples))
    return classes


def same_bytes(got, want):
    """Equal dtype, shape and bytes, so that 0.0 and -0.0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


def assert_same_statistics(classes):
    """``scatter_statistics`` against the frozen loops: byte for byte at width
    1, and wider to 1e-12 of the largest entry (2.1e-15 was the worst seen
    over 100 seeds of ``TestFrozenLoopOracle.CASES``)."""
    got = scatter_statistics(class_block(classes))
    for got_scatter, want in zip(got, frozen_statistics(classes), strict=True):
        if want.shape == (1, 1):
            assert same_bytes(got_scatter, want)
        else:
            assert got_scatter.shape == want.shape
            assert np.abs(got_scatter - want).max() <= 1e-12 * np.abs(want).max()


def assert_same_transform(transform, classes):
    """A fitted transform against ``frozen_fit``: byte for byte at width 1.
    Wider, the kept rank, the flag and the ridge (to 1e-12) match, the
    eigenvalues to 1e-8 of the largest and each column to 1e-6 of its norm.
    The worst seen over 100 seeds of each wide ``TestFrozenLoopOracle.CASES``
    entry, whose classes are scaled from 1e-3 to 1e3, were 2.1e-9 at
    d = 192 and 3.6e-8 at d = 24."""
    matrix, eigenvalues, ridge, discriminative = frozen_fit(classes)
    assert transform.discriminative == discriminative
    if matrix.shape == (1, 1):
        assert same_bytes(transform.matrix, matrix)
        assert same_bytes(transform.eigenvalues, eigenvalues)
        assert transform.regularization == ridge
        return
    assert transform.matrix.shape == matrix.shape
    assert transform.regularization == pytest.approx(ridge, rel=1e-12)
    assert np.abs(transform.eigenvalues - eigenvalues).max() <= 1e-8 * eigenvalues[0]
    errors = np.linalg.norm(transform.matrix - matrix, axis=0)
    assert (errors <= 1e-6 * np.linalg.norm(matrix, axis=0)).all()


class TestFrozenLoopOracle:
    """The scatter code against the per-class loops it replaced. A 1-wide
    trait keeps their sums byte for byte; the cases include the shapes where
    a reordered sum shows: many classes, and classes of 8 or more samples,
    where numpy's pairwise summation differs from a loop. A wider trait
    takes two matrix products, so the tests named byte-identical compare it
    at the tolerances of ``assert_same_statistics`` and
    ``assert_same_transform``."""

    # A discriminative trait with fewer classes than dimensions is solved in
    # the span of its class-mean offsets; (24, 23), (192, 12), (192, 2) and
    # (300, 8) take that path, (24, 24) and (24, 25) sit at its edge.
    CASES = [
        (1, 300), (1, 12), (2, 80), (3, 60), (24, 23), (24, 24), (24, 25),
        (96, 45), (192, 12), (192, 2), (300, 8),
    ]

    @pytest.mark.parametrize("dim, n_classes", CASES)
    def test_statistics_are_byte_identical(self, dim, n_classes):
        rng = np.random.default_rng(130 + dim + n_classes)
        for _ in range(3):
            assert_same_statistics(mixed_classes(rng, n_classes, dim))

    @pytest.mark.parametrize("dim, n_classes", CASES)
    def test_transform_is_byte_identical(self, dim, n_classes):
        rng = np.random.default_rng(140 + dim + n_classes)
        classes = mixed_classes(rng, n_classes, dim)
        assert_same_transform(fit_transform(class_block(classes)), classes)

    def test_long_one_dimensional_classes(self):
        # Classes of 8 to 40 samples: their own means are pairwise sums.
        rng = np.random.default_rng(150)
        classes = [
            (f"c{i}", rng.normal(0, 10.0 ** rng.uniform(-3, 3), (int(k), 1)))
            for i, k in enumerate(rng.integers(8, 41, size=40))
        ]
        assert_same_statistics(classes)

    def test_chunks_of_one_row_count_then_mixed_counts(self):
        # Classes of 5 rows, then of mixed counts, then of 3 rows. At d = 96
        # a chunk holds 341 rows, so the chunk edges fall inside classes.
        rng = np.random.default_rng(153)
        classes = [(f"a{i}", rng.normal(size=(5, 96))) for i in range(28)]
        classes += mixed_classes(rng, 28, 96)
        classes += [(f"b{i}", rng.normal(size=(3, 96))) for i in range(20)]
        assert_same_statistics(classes)
        assert_same_transform(fit_transform(class_block(classes)), classes)

    def test_all_integer_samples(self):
        rng = np.random.default_rng(151)
        for dim in (1, 3):
            classes = [
                (f"c{i}", rng.integers(0, 1000, size=(int(k), dim)))
                for i, k in enumerate(rng.integers(1, 21, size=20))
            ]
            assert_same_statistics(classes)

    def test_first_bad_class_in_enrollment_order_is_named(self):
        # c3 and c5 are non-finite and sit in different size groups.
        samples = [np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 3)),
                   np.ones((4, 3)), np.ones((2, 3)), np.ones((2, 3))]
        samples[5][1, 2] = np.inf
        samples[3][0, 0] = np.nan
        classes = class_block([(f"c{i}", x) for i, x in enumerate(samples)])
        with pytest.raises(NonFiniteInputError, match="'c3'"):
            scatter_statistics(classes)

    def test_peak_memory_stays_small(self):
        # The per-class loop held an n x d x d list: 29 MB here.
        rng = np.random.default_rng(152)
        classes = [(f"c{i}", rng.normal(size=(5, 96))) for i in range(400)]
        tracemalloc.start()
        try:
            scatter_statistics(class_block(classes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestGalleryBlockPath:
    """``Gallery.fit`` hands each trait's packed block to ``fit_transform``;
    the transforms are those of the frozen per-class loops, byte for byte
    for 1-wide traits."""

    def assert_same_transforms(self, gallery):
        fitted = gallery.fit()
        assert fitted.transforms
        for fid, transform in fitted.transforms.items():
            classes = [
                (label, samples)
                for label in gallery.labels
                if (samples := gallery.feature_samples(label, fid)) is not None
            ]
            assert_same_transform(transform, classes)
        return fitted

    def test_enrolled_classes_of_one_to_six_rows(self):
        # Complexion is held by every third class only.
        rng = np.random.default_rng(160)
        gallery = Gallery()
        for i in range(60):
            traits = ("clothing", "height", "build") + (
                ("complexion",) if i % 3 == 0 else ()
            )
            bundles = [random_bundle(rng, features=traits) for _ in range(i % 6 + 1)]
            gallery = gallery.enroll(f"c{i}", bundles)
        fitted = self.assert_same_transforms(gallery)
        assert set(fitted.transforms) == {"clothing", "height", "build", "complexion"}

    def test_equal_row_counts(self):
        self.assert_same_transforms(enrolled_gallery(np.random.default_rng(161), n=40))

    def test_integer_valued_samples(self, tmp_path):
        rng = np.random.default_rng(162)
        classes = []
        for i, count in enumerate(rng.integers(1, 7, size=30).tolist()):
            features = [
                ("height", rng.integers(0, 1000, size=(count, 1))),
                ("complexion", rng.integers(-50, 50, size=(count, 4)).astype(np.float64)),
            ]
            classes.append((f"c{i}", features))
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body(classes)))
        self.assert_same_transforms(Gallery.load(path))


class TestFitTransform:
    def test_scalar_case_matches_closed_form(self):
        # 1-D: within 0.01, between 1.0 and a ridge of 1e-6 * 0.01, so the
        # fitted scale is 1 / (0.01 + 1e-8).
        classes = [
            ("a", np.array([[-0.55], [-0.45]])),
            ("b", np.array([[0.45], [0.55]])),
        ]
        transform = fit_transform(class_block(classes))
        assert transform.regularization == pytest.approx(1e-8, rel=1e-9)
        assert transform.matrix.shape == (1, 1)
        assert transform.matrix[0, 0] == pytest.approx(1 / (0.01 + 1e-8), rel=1e-9)
        assert transform.eigenvalues[0] == pytest.approx(1 / (0.01 + 1e-8), rel=1e-9)
        assert transform.discriminative

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(110)
        for _ in range(5):
            transform = fit_transform(class_block(make_classes(rng, n_classes=4, dim=6)))
            eigvals = transform.eigenvalues
            assert np.all(eigvals[:-1] >= eigvals[1:])
            assert eigvals[0] > 0

    def test_rank_bounded_by_classes_minus_one(self):
        rng = np.random.default_rng(111)
        for n_classes in (2, 3, 4):
            transform = fit_transform(
                class_block(make_classes(rng, n_classes=n_classes, dim=8, spread=0.5))
            )
            assert 1 <= transform.rank <= n_classes - 1

    def test_identical_means_not_discriminative(self):
        rng = np.random.default_rng(112)
        spread = rng.normal(0, 1, (6, 4))
        spread -= spread.mean(axis=0)
        classes = [
            ("a", spread),
            ("b", spread * 2.0),
        ]
        transform = fit_transform(class_block(classes))
        assert not transform.discriminative
        assert transform.rank == 1
        assert np.linalg.norm(transform.matrix[:, 0]) == pytest.approx(1.0)
        assert transform.eigenvalues.tolist() == [0.0]

    def test_separation_not_worse_than_identity(self):
        # Ratio of between to within trace, measured in the projected space,
        # must hold up against the unprojected ratio.
        rng = np.random.default_rng(113)
        for _ in range(10):
            classes = class_block(make_classes(rng, n_classes=3, dim=6, spread=1.5))
            within, between = scatter_statistics(classes)
            baseline = np.trace(between) / np.trace(within)
            transform = fit_transform(classes)
            w = transform.matrix
            projected_between = float(np.trace(w.T @ between @ w))
            projected_within = float(np.trace(w.T @ within @ w))
            ratio = projected_between / projected_within
            assert ratio >= baseline * (1.0 - 1e-8)

    def test_ridge_scales_with_problem(self):
        small = default_ridge(np.eye(3) * 1e-12)
        large = default_ridge(np.eye(3) * 100.0)
        assert small == 1e-9
        assert large == pytest.approx(1e-4)

    def test_epsilon_choice_does_not_reorder_scalar_projections(self, monkeypatch):
        classes = [
            ("a", np.array([[0.0], [0.2]])),
            ("b", np.array([[1.0], [1.2]])),
            ("c", np.array([[2.4], [2.6]])),
        ]
        probes = np.array([0.1, 0.9, 2.5, 1.7])
        orders = []
        for ridge in (1e-9, 1e-6, 1e-3):
            monkeypatch.setattr(discriminant_module, "default_ridge", lambda within: ridge)
            transform = fit_transform(class_block(classes))
            assert transform.regularization == ridge
            values = [project(transform, np.array([p]))[0] for p in probes]
            orders.append(np.argsort(values).tolist())
        assert orders[0] == orders[1] == orders[2]

    def test_needs_two_classes(self):
        with pytest.raises(DegenerateProblemError):
            fit_transform(class_block([("a", np.ones((4, 2)))]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("blocks, n_classes", [(4, 100), (8, 60)])
    def test_histogram_block_sums_are_not_kept(self, seed, blocks, n_classes):
        # Every 24-bin block of a clothing row sums to 1, so neither scatter
        # has a component along a block's sum. Whitened, their rounding noise
        # there reaches about 2e-10 of the strongest eigenvalue; it is no
        # direction. The kept rank is the classes less one, or d less one
        # per block.
        rng = np.random.default_rng(170 + seed)
        x = rng.random((n_classes, 1, blocks, 24)) + 0.05 * rng.random((n_classes, 5, blocks, 24))
        x /= x.sum(axis=3, keepdims=True)
        classes = [(f"c{i}", samples.reshape(5, -1)) for i, samples in enumerate(x)]
        transform = fit_transform(class_block(classes))
        assert transform.rank == min(n_classes - 1, 23 * blocks)
        assert transform.eigenvalues[-1] > 1e-6 * transform.eigenvalues[0]

    def test_ridge_too_small_for_a_singular_within_scatter(self, monkeypatch):
        # The two columns are equal and every centred entry is exactly +-1,
        # so the within scatter is exactly singular and a ridge of 1e-20
        # vanishes beside its entries; the default ridge lifts it.
        x = np.array([[0.0], [2.0], [5.0], [7.0]])
        classes = class_block([("a", np.hstack([x[:2]] * 2)), ("b", np.hstack([x[2:]] * 2))])
        assert fit_transform(classes).rank == 1
        monkeypatch.setattr(discriminant_module, "default_ridge", lambda within: 1e-20)
        with pytest.raises(DegenerateProblemError, match="clothing.*ridge 1e-20"):
            fit_transform(classes, feature_id="clothing")

    @pytest.mark.parametrize(
        "rows, overflowing",
        [
            pytest.param([[1e160], [-1e160]] * 2, "scatter", id="within"),
            pytest.param([[1e154]] * 2 + [[-1e154]] * 2, "scatter", id="between"),
            pytest.param([[1e308]] * 4, "scatter", id="means"),
            # Each diagonal entry is finite, their sum is not.
            pytest.param([[6e153, 6e153]] * 2 + [[-6e153, -6e153]] * 2, "scatter", id="trace"),
            # A between scatter of 4e300 over the ridge floor of 1e-9.
            pytest.param([[1e150]] * 2 + [[-1e150]] * 2, "whitened scatter", id="whitened"),
            pytest.param(
                [[1e150, 0.0]] * 2 + [[-1e150, 1.0]] * 2, "whitened scatter", id="whitened-2d"
            ),
            # Two classes of width 3: solved in the span of the class means.
            pytest.param(
                [[1e150, 0.0, 0.0]] * 2 + [[-1e150, 1.0, 0.0]] * 2,
                "whitened scatter",
                id="whitened-offset-span",
            ),
        ],
    )
    def test_overflowing_scatter_is_an_error_not_a_warning(self, rows, overflowing):
        # Finite rows whose scatter squares past float64: two classes of
        # two rows. Warnings are errors in this suite.
        classes = class_block([("a", np.array(rows[:2])), ("b", np.array(rows[2:]))])
        with pytest.raises(NonFiniteInputError, match=f"^build: {overflowing} overflows float64$"):
            fit_transform(classes, feature_id="build")

    def test_direction_whose_square_overflows_is_still_fitted(self):
        # Two classes of width 3, solved in the span of the class means: the
        # eigenvalue, 4e301, is finite, but the unscaled direction has an
        # entry of about 1e156, whose square is not.
        rows = np.array([[1e146, 0.0, 0.0]] * 2 + [[-1e146, 1.0, 0.0]] * 2)
        transform = fit_transform(class_block([("a", rows[:2]), ("b", rows[2:])]))
        assert transform.rank == 1
        assert transform.eigenvalues[0] == pytest.approx(4e301, rel=1e-9)
        assert np.isfinite(transform.matrix).all()
        assert transform.matrix[0, 0] == pytest.approx(4e301, rel=1e-9)

    def test_gallery_fit_names_the_overflowing_trait(self):
        gallery = Gallery()
        for label, value in (("a", 1e200), ("b", 1.0)):
            bundles = [FeatureBundle(build=BuildFeature(value))] * 2
            gallery = gallery.enroll(label, bundles)
        with pytest.raises(NonFiniteInputError, match="^build: scatter overflows float64$"):
            gallery.fit()

    def test_feature_id_recorded(self):
        rng = np.random.default_rng(115)
        transform = fit_transform(class_block(make_classes(rng)), feature_id="height")
        assert transform.feature_id == "height"


class TestFewerClassesThanDimensions:
    """A discriminative trait with c classes and d > c dimensions is solved
    in the span of its class-mean offsets: ``eigh`` sees a c x c matrix,
    and no d x d one. Any other trait is still whitened d wide."""

    @staticmethod
    def record_eigh_shapes(monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return shapes

    def test_fifty_classes_192_wide_decompose_nothing_wider_than_fifty(self, monkeypatch):
        rng = np.random.default_rng(180)
        classes = class_block([(f"c{i}", rng.random((20, 192))) for i in range(50)])
        shapes = self.record_eigh_shapes(monkeypatch)
        tracemalloc.start()
        try:
            transform = fit_transform(classes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shapes and max(max(shape) for shape in shapes) <= 50, shapes
        assert transform.rank == 49
        # The 192-wide whitening peaked at 2.82 MiB; this path at 1.68 MiB.
        assert peak < 2.2 * 2**20, peak

    @pytest.mark.parametrize("n_classes, count, dim", [(600, 5, 96), (40, 3, 1)])
    def test_any_other_trait_is_whitened_full_width(self, monkeypatch, n_classes, count, dim):
        rng = np.random.default_rng(181)
        classes = class_block([(f"c{i}", rng.random((count, dim))) for i in range(n_classes)])
        shapes = self.record_eigh_shapes(monkeypatch)
        assert fit_transform(classes).rank == dim
        assert shapes == [(dim, dim)]


class TestProject:
    def test_projection_is_linear(self):
        rng = np.random.default_rng(120)
        transform = fit_transform(class_block(make_classes(rng, dim=5)))
        u = rng.normal(0, 1, 5)
        v = rng.normal(0, 1, 5)
        lhs = project(transform, 2.0 * u - 3.0 * v)
        rhs = 2.0 * project(transform, u) - 3.0 * project(transform, v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_output_dimension_is_rank(self):
        rng = np.random.default_rng(121)
        transform = fit_transform(class_block(make_classes(rng, n_classes=3, dim=7)))
        out = project(transform, np.zeros(7))
        assert out.shape == (transform.rank,)

    def test_wrong_dimension(self):
        rng = np.random.default_rng(122)
        transform = fit_transform(class_block(make_classes(rng, dim=5)))
        with pytest.raises(DimensionMismatchError):
            project(transform, np.zeros(4))

    def test_non_finite(self):
        rng = np.random.default_rng(123)
        transform = fit_transform(class_block(make_classes(rng, dim=5)))
        with pytest.raises(NonFiniteInputError):
            project(transform, np.array([np.inf, 0, 0, 0, 0]))

    def test_stacked_rows_match_single_vectors_bit_for_bit(self):
        rng = np.random.default_rng(124)
        for n_classes, dim in ((4, 1), (6, 5), (40, 30)):
            transform = fit_transform(class_block(make_classes(rng, n_classes=n_classes, dim=dim)))
            rows = rng.normal(0, 1, (25, dim))
            stacked = project(transform, rows)
            assert stacked.shape == (25, transform.rank)
            for row, out in zip(rows, stacked):
                assert np.array_equal(out, project(transform, row))
                assert np.array_equal(out, transform.matrix.T @ row)

    def test_stack_shape_checked(self):
        rng = np.random.default_rng(125)
        transform = fit_transform(class_block(make_classes(rng, dim=5)))
        with pytest.raises(DimensionMismatchError):
            project(transform, np.zeros((3, 4)))
        with pytest.raises(DimensionMismatchError):
            project(transform, np.zeros((2, 3, 5)))
        with pytest.raises(NonFiniteInputError):
            project(transform, np.array([np.zeros(5), [0, 0, np.nan, 0, 0]]))

    def test_overflow_is_an_error_not_a_warning(self):
        rng = np.random.default_rng(126)
        transform = fit_transform(class_block(make_classes(rng, dim=5)))
        huge = np.full((2, 5), np.finfo(np.float64).max)
        with pytest.raises(NonFiniteInputError):
            project(transform, huge)
