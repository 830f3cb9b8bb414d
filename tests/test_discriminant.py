import numpy as np
import pytest

from enexmatch import (
    ClassSamples,
    DegenerateProblemError,
    DimensionMismatchError,
    NonFiniteInputError,
    between_scatter,
    default_ridge,
    fit_transform,
    project,
    scatter_statistics,
    within_scatter,
)


def within_reference(classes):
    """Sum of outer products, one sample at a time."""
    dim = classes[0].dim
    total = np.zeros((dim, dim))
    for c in classes:
        mean = c.samples.mean(axis=0)
        for s in c.samples:
            total += np.outer(s - mean, s - mean)
    return total


def between_reference(classes):
    counts = [c.count for c in classes]
    means = [c.samples.mean(axis=0) for c in classes]
    grand = sum(m * mu for m, mu in zip(counts, means)) / sum(counts)
    dim = classes[0].dim
    total = np.zeros((dim, dim))
    for m, mu in zip(counts, means):
        total += m * np.outer(mu - grand, mu - grand)
    return total


def make_classes(rng, n_classes=3, dim=5, count=6, spread=1.0):
    classes = []
    for i in range(n_classes):
        center = rng.normal(0.0, 4.0, size=dim)
        samples = center + rng.normal(0.0, spread, size=(count, dim))
        classes.append(ClassSamples(label=f"c{i}", samples=samples))
    return classes


class TestScatter:
    def test_within_matches_reference(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            classes = make_classes(rng)
            _, total = within_scatter(classes)
            assert np.allclose(total, within_reference(classes), rtol=1e-12, atol=1e-12)

    def test_between_matches_reference(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            classes = make_classes(rng, count=4)
            got = between_scatter(classes)
            assert np.allclose(got, between_reference(classes), rtol=1e-12, atol=1e-12)

    def test_unbalanced_counts_weighted_by_size(self):
        rng = np.random.default_rng(102)
        classes = [
            ClassSamples("a", rng.normal(0, 1, (2, 3))),
            ClassSamples("b", rng.normal(3, 1, (9, 3))),
        ]
        got = between_scatter(classes)
        assert np.allclose(got, between_reference(classes), rtol=1e-12, atol=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            classes = make_classes(rng)
            stats = scatter_statistics(classes)
            for matrix in (stats.within, stats.between):
                scale = max(float(np.abs(matrix).max()), 1.0)
                assert np.allclose(matrix, matrix.T, rtol=0, atol=1e-12 * scale)
                assert np.linalg.eigvalsh(matrix).min() > -1e-10 * scale

    def test_within_plus_between_is_total(self):
        rng = np.random.default_rng(104)
        for _ in range(5):
            classes = make_classes(rng)
            stats = scatter_statistics(classes)
            stacked = np.vstack([c.samples for c in classes])
            centered = stacked - stats.grand_mean
            total = centered.T @ centered
            assert np.allclose(stats.within + stats.between, total, rtol=1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(105)
        base = [
            ClassSamples(f"c{i}", rng.integers(0, 100, (4, 5)).astype(np.float64))
            for i in range(4)
        ]
        shift = np.array([7.0, -3.0, 11.0, 0.0, 2.0])
        moved = [ClassSamples(c.label, c.samples + shift) for c in base]
        _, w0 = within_scatter(base)
        _, w1 = within_scatter(moved)
        assert np.array_equal(w0, w1)
        assert np.array_equal(between_scatter(base), between_scatter(moved))

    def test_single_sample_classes_have_zero_within(self):
        classes = [
            ClassSamples("a", np.array([[1.0, 2.0]])),
            ClassSamples("b", np.array([[5.0, 0.0]])),
        ]
        _, total = within_scatter(classes)
        assert np.all(total == 0.0)

    def test_dimension_mismatch(self):
        classes = [
            ClassSamples("a", np.ones((2, 3))),
            ClassSamples("b", np.ones((2, 4))),
        ]
        with pytest.raises(DimensionMismatchError):
            within_scatter(classes)

    def test_non_finite_rejected(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteInputError):
            within_scatter([ClassSamples("a", bad), ClassSamples("b", np.ones((2, 3)))])

    def test_between_needs_two_classes(self):
        with pytest.raises(DegenerateProblemError):
            between_scatter([ClassSamples("a", np.ones((3, 2)))])

    def test_no_classes(self):
        with pytest.raises(DegenerateProblemError):
            within_scatter([])


class TestFitTransform:
    def test_scalar_case_matches_closed_form(self):
        # 1-D: within 0.01, between 1.0, so the fitted scale is near 100.
        classes = [
            ClassSamples("a", np.array([[-0.55], [-0.45]])),
            ClassSamples("b", np.array([[0.45], [0.55]])),
        ]
        transform = fit_transform(classes, epsilon=1e-9)
        assert transform.matrix.shape == (1, 1)
        assert transform.matrix[0, 0] == pytest.approx(100.0, rel=1e-6)
        assert transform.eigenvalues[0] == pytest.approx(100.0, rel=1e-6)
        assert transform.discriminative

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(110)
        for _ in range(5):
            transform = fit_transform(make_classes(rng, n_classes=4, dim=6))
            eigvals = transform.eigenvalues
            assert np.all(eigvals[:-1] >= eigvals[1:])
            assert eigvals[0] > 0

    def test_rank_bounded_by_classes_minus_one(self):
        rng = np.random.default_rng(111)
        for n_classes in (2, 3, 4):
            transform = fit_transform(
                make_classes(rng, n_classes=n_classes, dim=8, spread=0.5)
            )
            assert 1 <= transform.rank <= n_classes - 1

    def test_identical_means_not_discriminative(self):
        rng = np.random.default_rng(112)
        spread = rng.normal(0, 1, (6, 4))
        spread -= spread.mean(axis=0)
        classes = [
            ClassSamples("a", spread),
            ClassSamples("b", spread * 2.0),
        ]
        transform = fit_transform(classes)
        assert not transform.discriminative
        assert transform.rank == 1
        assert np.linalg.norm(transform.matrix[:, 0]) == pytest.approx(1.0)
        assert transform.eigenvalues.tolist() == [0.0]

    def test_separation_not_worse_than_identity(self):
        # Ratio of between to within trace, measured in the projected space,
        # must hold up against the unprojected ratio.
        rng = np.random.default_rng(113)
        for _ in range(10):
            classes = make_classes(rng, n_classes=3, dim=6, spread=1.5)
            stats = scatter_statistics(classes)
            baseline = np.trace(stats.between) / np.trace(stats.within)
            transform = fit_transform(classes)
            w = transform.matrix
            projected_between = float(np.trace(w.T @ stats.between @ w))
            projected_within = float(np.trace(w.T @ stats.within @ w))
            ratio = projected_between / projected_within
            assert ratio >= baseline * (1.0 - 1e-8)

    def test_ridge_scales_with_problem(self):
        small = default_ridge(np.eye(3) * 1e-12)
        large = default_ridge(np.eye(3) * 100.0)
        assert small == 1e-9
        assert large == pytest.approx(1e-4)

    def test_epsilon_choice_does_not_reorder_scalar_projections(self):
        classes = [
            ClassSamples("a", np.array([[0.0], [0.2]])),
            ClassSamples("b", np.array([[1.0], [1.2]])),
            ClassSamples("c", np.array([[2.4], [2.6]])),
        ]
        probes = np.array([0.1, 0.9, 2.5, 1.7])
        orders = []
        for epsilon in (1e-9, 1e-6, 1e-3):
            transform = fit_transform(classes, epsilon=epsilon)
            values = [project(transform, np.array([p]))[0] for p in probes]
            orders.append(np.argsort(values).tolist())
        assert orders[0] == orders[1] == orders[2]

    def test_needs_two_classes(self):
        with pytest.raises(DegenerateProblemError):
            fit_transform([ClassSamples("a", np.ones((4, 2)))])

    def test_rejects_bad_epsilon(self):
        rng = np.random.default_rng(114)
        classes = make_classes(rng)
        for epsilon in (0.0, -1e-3):
            with pytest.raises(ValueError):
                fit_transform(classes, epsilon=epsilon)

    def test_feature_id_recorded(self):
        rng = np.random.default_rng(115)
        transform = fit_transform(make_classes(rng), feature_id="height")
        assert transform.feature_id == "height"


class TestProject:
    def test_projection_is_linear(self):
        rng = np.random.default_rng(120)
        transform = fit_transform(make_classes(rng, dim=5))
        u = rng.normal(0, 1, 5)
        v = rng.normal(0, 1, 5)
        lhs = project(transform, 2.0 * u - 3.0 * v)
        rhs = 2.0 * project(transform, u) - 3.0 * project(transform, v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_output_dimension_is_rank(self):
        rng = np.random.default_rng(121)
        transform = fit_transform(make_classes(rng, n_classes=3, dim=7))
        out = project(transform, np.zeros(7))
        assert out.shape == (transform.rank,)

    def test_wrong_dimension(self):
        rng = np.random.default_rng(122)
        transform = fit_transform(make_classes(rng, dim=5))
        with pytest.raises(DimensionMismatchError):
            project(transform, np.zeros(4))

    def test_non_finite(self):
        rng = np.random.default_rng(123)
        transform = fit_transform(make_classes(rng, dim=5))
        with pytest.raises(NonFiniteInputError):
            project(transform, np.array([np.inf, 0, 0, 0, 0]))

    def test_stacked_rows_match_single_vectors_bit_for_bit(self):
        rng = np.random.default_rng(124)
        for n_classes, dim in ((4, 1), (6, 5), (40, 30)):
            transform = fit_transform(make_classes(rng, n_classes=n_classes, dim=dim))
            rows = rng.normal(0, 1, (25, dim))
            stacked = project(transform, rows)
            assert stacked.shape == (25, transform.rank)
            for row, out in zip(rows, stacked):
                assert np.array_equal(out, project(transform, row))
                assert np.array_equal(out, transform.matrix.T @ row)

    def test_stack_shape_checked(self):
        rng = np.random.default_rng(125)
        transform = fit_transform(make_classes(rng, dim=5))
        with pytest.raises(DimensionMismatchError):
            project(transform, np.zeros((3, 4)))
        with pytest.raises(DimensionMismatchError):
            project(transform, np.zeros((2, 3, 5)))
        with pytest.raises(NonFiniteInputError):
            project(transform, np.array([np.zeros(5), [0, 0, np.nan, 0, 0]]))

    def test_overflow_is_an_error_not_a_warning(self):
        rng = np.random.default_rng(126)
        transform = fit_transform(make_classes(rng, dim=5))
        huge = np.full((2, 5), np.finfo(np.float64).max)
        with pytest.raises(NonFiniteInputError):
            project(transform, huge)
