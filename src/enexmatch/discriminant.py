"""Supervised linear transforms that sharpen class separation.

Per feature, a transform is learned whose directions maximize the ratio
of between-class to within-class scatter. The within-class scatter is
ridge-regularized before inversion so degenerate features (constant
values, fewer samples than dimensions) stay solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateProblemError,
    DimensionMismatchError,
    NonFiniteInputError,
)

# Scale-aware ridge: RIDGE_FACTOR * mean diagonal of the within scatter,
# but never below RIDGE_FLOOR.
RIDGE_FACTOR = 1e-6
RIDGE_FLOOR = 1e-9

# Eigenvalues this far below the largest carry no usable separation.
EIGENVALUE_CUTOFF = 1e-12


@dataclass(frozen=True)
class ClassSamples:
    """Feature vectors of one enrolled class, one row per sample."""

    label: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        s = self.samples
        if not isinstance(s, np.ndarray) or s.ndim != 2:
            raise ValueError("samples must be a 2-D array")
        if s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError("need at least one sample of positive dimension")

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ScatterStatistics:
    """Within and between scatter plus the means they were built from."""

    within: np.ndarray
    between: np.ndarray
    class_means: np.ndarray
    grand_mean: np.ndarray


@dataclass(frozen=True)
class FeatureTransform:
    """Learned projection for one feature.

    Columns are unit eigenvectors of the regularized scatter quotient,
    scaled by their eigenvalues, strongest first. ``discriminative`` is
    false when the classes showed no mean separation at all, in which
    case a single arbitrary unit direction is kept.
    """

    feature_id: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    regularization: float
    discriminative: bool

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


def _validate(classes: Sequence[ClassSamples]) -> int:
    if len(classes) == 0:
        raise DegenerateProblemError("no classes given")
    dim = classes[0].dim
    for c in classes:
        if c.dim != dim:
            raise DimensionMismatchError(
                f"class {c.label!r} has dimension {c.dim}, expected {dim}"
            )
        if not np.all(np.isfinite(c.samples)):
            raise NonFiniteInputError(f"class {c.label!r} has non-finite samples")
    return dim


def within_scatter(
    classes: Sequence[ClassSamples],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-class scatter around each class mean, and their sum."""
    dim = _validate(classes)
    per_class = []
    total = np.zeros((dim, dim), dtype=np.float64)
    for c in classes:
        centered = c.samples.astype(np.float64) - c.samples.mean(axis=0)
        scatter = centered.T @ centered
        per_class.append(scatter)
        total += scatter
    return per_class, total


def between_scatter(classes: Sequence[ClassSamples]) -> np.ndarray:
    """Scatter of class means around the pooled mean, sample-count weighted."""
    return scatter_statistics(classes).between


def scatter_statistics(classes: Sequence[ClassSamples]) -> ScatterStatistics:
    if len(classes) < 2:
        raise DegenerateProblemError("scatter statistics need at least two classes")
    _, within = within_scatter(classes)
    counts = np.array([c.count for c in classes], dtype=np.float64)
    means = np.stack([c.samples.mean(axis=0) for c in classes])
    grand = (counts[:, None] * means).sum(axis=0) / counts.sum()
    between = np.zeros_like(within)
    for m, diff in zip(counts, means - grand):
        between += m * np.outer(diff, diff)
    return ScatterStatistics(
        within=within, between=between, class_means=means, grand_mean=grand
    )


def default_ridge(within: np.ndarray) -> float:
    """Ridge proportional to the mean within-scatter diagonal."""
    dim = within.shape[0]
    return max(RIDGE_FACTOR * float(np.trace(within)) / dim, RIDGE_FLOOR)


def fit_transform(
    classes: Sequence[ClassSamples],
    epsilon: float | None = None,
    feature_id: str = "feature",
) -> FeatureTransform:
    """Fit the separation-maximizing transform for one feature.

    Directions solve the eigenproblem of inv(within + epsilon*I) @ between
    through a Cholesky whitening of the regularized within scatter, which
    keeps the computation symmetric and stable. All directions whose
    eigenvalue exceeds a small fraction of the strongest are retained.
    """
    if len(classes) < 2:
        raise DegenerateProblemError("fitting needs at least two classes")
    stats = scatter_statistics(classes)
    within, between = stats.within, stats.between
    if epsilon is None:
        epsilon = default_ridge(within)
    elif epsilon <= 0.0:
        raise ValueError("epsilon must be positive")

    dim = within.shape[0]
    regularized = within + epsilon * np.eye(dim)
    chol = np.linalg.cholesky(regularized)
    half = np.linalg.solve(chol, between)
    whitened = np.linalg.solve(chol, half.T).T
    whitened = (whitened + whitened.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(whitened)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    vectors = np.linalg.solve(chol.T, eigvecs[:, order])
    vectors /= np.linalg.norm(vectors, axis=0)
    # Deterministic sign: strongest component of each direction positive.
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]

    discriminative = float(np.trace(between)) > EIGENVALUE_CUTOFF * (
        float(np.trace(within)) + float(np.trace(between))
    )
    if not discriminative:
        return FeatureTransform(
            feature_id=feature_id,
            matrix=np.ascontiguousarray(vectors[:, :1]),
            eigenvalues=np.zeros(1, dtype=np.float64),
            regularization=float(epsilon),
            discriminative=False,
        )
    keep = eigvals > EIGENVALUE_CUTOFF * eigvals[0]
    keep[0] = True
    matrix = vectors[:, keep] * eigvals[keep]
    return FeatureTransform(
        feature_id=feature_id,
        matrix=np.ascontiguousarray(matrix),
        eigenvalues=eigvals[keep].copy(),
        regularization=float(epsilon),
        discriminative=True,
    )


def project(transform: FeatureTransform, vectors: np.ndarray) -> np.ndarray:
    """Map one feature vector, or a stack of them, into the ranked subspace.

    Each vector goes through its own matrix-vector product, so a row of a
    stacked call rounds exactly as that vector projected alone.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != transform.input_dim:
        raise DimensionMismatchError(
            f"expected vectors of dimension {transform.input_dim}"
        )
    if not np.isfinite(v).all():
        raise NonFiniteInputError("cannot project non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (transform.matrix.T @ v[..., None])[..., 0]
    if not np.isfinite(out).all():
        raise NonFiniteInputError("projection overflows float64")
    return out
