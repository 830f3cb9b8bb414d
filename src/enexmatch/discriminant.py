"""Supervised linear transforms that sharpen class separation.

Per feature, a transform is learned whose directions maximize the ratio
of between-class to within-class scatter. The within-class scatter is
ridge-regularized before inversion so degenerate features (constant
values, fewer samples than dimensions) stay solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

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

# Per-class d x d scatters are built about this many bytes at a time.
_CHUNK_BYTES = 1 << 20


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


def _stack_groups(
    classes: Sequence[ClassSamples],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Check the classes and stack them once, grouped by sample count and dtype.

    Returns, per group, the members' enrollment indices (ascending) and
    their samples as one (members, count, dim) array. An error names the
    first bad class in enrollment order, as a one-class-at-a-time scan
    would.
    """
    if len(classes) == 0:
        raise DegenerateProblemError("no classes given")
    dim = classes[0].dim
    members: dict[tuple[int, np.dtype], list[int]] = {}
    mismatch = None
    for i, c in enumerate(classes):
        if c.dim != dim:
            mismatch = c
            break
        members.setdefault((c.count, c.samples.dtype), []).append(i)
    groups = []
    first_bad = len(classes)
    for indices in members.values():
        stack = np.stack([classes[i].samples for i in indices])
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            first_bad = min(first_bad, indices[int(np.argmin(finite))])
        groups.append((np.array(indices, dtype=np.intp), stack))
    if first_bad < len(classes):
        label = classes[first_bad].label
        raise NonFiniteInputError(f"class {label!r} has non-finite samples")
    if mismatch is not None:
        raise DimensionMismatchError(
            f"class {mismatch.label!r} has dimension {mismatch.dim}, expected {dim}"
        )
    return groups


def _centered_groups(
    classes: Sequence[ClassSamples],
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Class means in enrollment order, and per size group the members'
    indices with their float64 samples centered on each class's mean.

    ``stack.mean(axis=1)`` and the subtraction round each class exactly
    as ``samples.mean(axis=0)`` and ``samples.astype(float64) - mean`` do.
    """
    groups = _stack_groups(classes)
    group_means = [stack.mean(axis=1) for _, stack in groups]
    means = np.empty(
        (len(classes), classes[0].dim), dtype=np.result_type(*group_means)
    )
    centered = []
    for (indices, stack), mean in zip(groups, group_means):
        means[indices] = mean
        centered.append(
            (indices, np.subtract(stack, mean[:, None, :], dtype=np.float64))
        )
    return means, centered


def _add_in_order(terms: np.ndarray, out: np.ndarray) -> None:
    """Set ``out`` to ``((terms[0] + terms[1]) + terms[2]) + ...``.

    That is the rounding of a loop of ``+=``. An axis-0 reduce keeps it
    for d x d terms, but over (k, 1, 1) terms numpy switches to a pairwise
    sum, so 1-D traits accumulate instead.
    """
    if terms.shape[1] == 1:
        out[...] = np.add.accumulate(terms[:, 0, 0])[-1]
    else:
        np.add.reduce(terms, axis=0, out=out)


def _sum_in_order(
    n: int,
    dim: int,
    fill: Callable[[np.ndarray, int, int], None],
    per_class: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Sum n per-class d x d terms as a ``+=`` loop from zeros would.

    ``fill(terms, start, stop)`` writes the terms of classes start up to
    stop. They are built a chunk of about ``_CHUNK_BYTES`` at a time, in
    enrollment order, into one reused buffer whose slot 0 carries the
    running total. Each term is also appended to ``per_class`` if given.
    """
    chunk = min(n, max(1, _CHUNK_BYTES // (8 * dim * dim)))
    buffer = np.empty((chunk + 1, dim, dim), dtype=np.float64)
    total = np.zeros((dim, dim), dtype=np.float64)
    for start in range(0, n, chunk):
        used = buffer[: min(chunk, n - start) + 1]
        used[0] = total
        fill(used[1:], start, start + len(used) - 1)
        if per_class is not None:
            per_class.extend(used[1:].copy())
        _add_in_order(used, total)
    return total


def _within_terms(
    groups: list[tuple[np.ndarray, np.ndarray]],
    terms: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """``centered.T @ centered`` of classes start up to stop, into ``terms``.

    One batched matmul per size group: numpy makes the same BLAS call for
    each matrix of a batch as for a single product, so each scatter keeps
    its bytes.
    """
    for indices, centered in groups:
        lo, hi = np.searchsorted(indices, (start, stop))
        if lo == hi:
            continue
        block = centered[lo:hi]
        if hi - lo == stop - start:
            np.matmul(block.transpose(0, 2, 1), block, out=terms)
        else:
            terms[indices[lo:hi] - start] = np.matmul(block.transpose(0, 2, 1), block)


def within_scatter(
    classes: Sequence[ClassSamples],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-class scatter around each class mean, and their sum."""
    means, groups = _centered_groups(classes)
    per_class: list[np.ndarray] = []
    total = _sum_in_order(*means.shape, partial(_within_terms, groups), per_class)
    return per_class, total


def between_scatter(classes: Sequence[ClassSamples]) -> np.ndarray:
    """Scatter of class means around the pooled mean, sample-count weighted."""
    return scatter_statistics(classes).between


def scatter_statistics(classes: Sequence[ClassSamples]) -> ScatterStatistics:
    if len(classes) < 2:
        raise DegenerateProblemError("scatter statistics need at least two classes")
    means, groups = _centered_groups(classes)
    within = _sum_in_order(*means.shape, partial(_within_terms, groups))
    counts = np.array([c.count for c in classes], dtype=np.float64)
    grand = (counts[:, None] * means).sum(axis=0) / counts.sum()
    diffs = means - grand

    def between_terms(terms: np.ndarray, start: int, stop: int) -> None:
        # count * outer(diff, diff). einsum forms each product once, as
        # np.outer does, in about half the time of a broadcast multiply.
        d = diffs[start:stop]
        np.einsum("ni,nj->nij", d, d, out=terms)
        terms *= counts[start:stop, None, None]

    between = _sum_in_order(*means.shape, between_terms)
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
    if epsilon is not None and not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    stats = scatter_statistics(classes)
    within, between = stats.within, stats.between
    if epsilon is None:
        epsilon = default_ridge(within)

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
    # Deterministic sign: strongest component of each direction positive
    # (the first one, on a tie in magnitude).
    strongest = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[strongest, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] = -vectors[:, flip]

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
