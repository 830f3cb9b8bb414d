"""Supervised linear transforms that sharpen class separation.

Per feature, a transform is learned whose directions maximize the ratio
of between-class to within-class scatter. The within-class scatter is
ridge-regularized before inversion so degenerate features (constant
values, fewer samples than dimensions) stay solvable. Each trait's
eigenproblem is reduced to one symmetric matrix and decomposed once: in
the span of the class-mean offsets when there are fewer classes than
dimensions, else by whitening with the regularized within scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# Classes whose between trace is this far below the total trace show no
# mean separation at all.
EIGENVALUE_CUTOFF = 1e-12

# Rounding noise in a direction the between scatter lacks (the sum of a
# histogram block, say) whitens to up to about eps / RIDGE_FACTOR
# (2.2e-10) of the strongest eigenvalue; a direction is kept only above
# a few times that.
RANK_CUTOFF = 1e-9

# Centred rows of a wide trait are multiplied about this many bytes at a time.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class ClassBlock:
    """Rows of several classes of one width, packed in enrollment order.

    Class ``labels[i]`` owns the ``counts[i]`` rows (at least one) of the
    (sum(counts) x d) float64 ``rows`` from ``starts[i]`` on. The rows
    are raw samples of a trait or their projections. ``starts`` is a
    read-only intp array derived from the counts on construction.
    """

    labels: tuple[str, ...]
    counts: Sequence[int]
    rows: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = self.rows
        if not isinstance(r, np.ndarray) or r.ndim != 2 or r.dtype != np.float64:
            raise ValueError("rows must be a 2-D float64 array")
        if len(self.labels) != len(self.counts):
            raise ValueError(f"{len(self.labels)} labels for {len(self.counts)} row counts")
        if min(self.counts, default=0) < 1 or sum(self.counts) != len(r) or r.shape[1] < 1:
            raise ValueError(
                f"{r.shape[0]}x{r.shape[1]} rows for row counts {list(self.counts)}"
            )
        # Derived here, not cached on first read: a value written into a
        # built instance's __dict__, as functools.cached_property writes
        # it, slows every later attribute read on that instance.
        starts = np.zeros(len(self.counts), dtype=np.intp)
        np.cumsum(self.counts[:-1], out=starts[1:])
        starts.flags.writeable = False
        object.__setattr__(self, "starts", starts)

    def __len__(self) -> int:
        return len(self.labels)


def _check_finite(classes: ClassBlock) -> None:
    """Raise naming the first class, in enrollment order, with a non-finite sample."""
    if np.isfinite(classes.rows).all():
        return
    bad_row = int(np.argmin(np.isfinite(classes.rows).all(axis=1)))
    bad = int(np.searchsorted(classes.starts, bad_row, side="right")) - 1
    raise NonFiniteInputError(f"class {classes.labels[bad]!r} has non-finite samples")


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


def _scalar_statistics(classes: ClassBlock) -> tuple[np.ndarray, np.ndarray]:
    """``scatter_statistics`` of a 1-wide block, rounded as the per-class
    loops of ``+=`` round it.

    The classes of one row count c are read as one (members, c, 1)
    stack; ``stack.mean(axis=1)``, the subtraction and the batched matmul
    round each class exactly as ``samples.mean(axis=0)``,
    ``samples - mean`` and ``centered.T @ centered`` do, since numpy makes
    the same BLAS call for each matrix of a batch as for a single product.
    ``add.accumulate`` sums the terms in enrollment order, where
    ``add.reduce`` would sum them pairwise.
    """
    rows, starts = classes.rows, classes.starts
    counts = np.asarray(classes.counts, dtype=np.intp)
    weights = counts.astype(np.float64)
    means = np.empty((len(counts), 1), dtype=np.float64)
    terms = np.empty(len(counts), dtype=np.float64)
    for size in set(classes.counts):
        members = np.flatnonzero(counts == size)
        stack = rows[starts[members, None] + np.arange(size)]
        means[members] = stack.mean(axis=1)
        centered = stack - means[members, None, :]
        terms[members] = np.matmul(centered.transpose(0, 2, 1), centered)[:, 0, 0]
    grand = (weights[:, None] * means).sum(axis=0) / weights.sum()
    offsets = (means - grand)[:, 0]
    within = np.add.accumulate(terms)[-1:, None]
    between = np.add.accumulate(weights * (offsets * offsets))[-1:, None]
    return within, between


def _class_offsets(classes: ClassBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row counts as float64, class means and their offsets from the pooled mean."""
    weights = np.asarray(classes.counts, dtype=np.float64)
    means = np.add.reduceat(classes.rows, classes.starts, axis=0) / weights[:, None]
    return weights, means, means - weights @ means / weights.sum()


def scatter_statistics(classes: ClassBlock) -> tuple[np.ndarray, np.ndarray]:
    """Within and between scatter of a block of at least two classes.

    Within is the sum of each class's scatter around its own mean; between
    is the scatter of the class means around the pooled mean, weighted by
    row count.

    A trait wider than 1 takes each as matrix products: within is
    ``C.T @ C`` over the centred rows, about ``_CHUNK_BYTES`` of them at a
    time, and between is ``(D * counts).T @ D`` over the class-mean
    offsets D. A 1-wide trait sums its terms class by class in enrollment
    order instead, as a loop of ``+=`` would, since the last bit of a
    1 x 1 transform can reorder a match report.
    """
    if len(classes) < 2:
        raise DegenerateProblemError("scatter statistics need at least two classes")
    _check_finite(classes)
    rows = classes.rows
    dim = rows.shape[1]
    if dim == 1:
        return _scalar_statistics(classes)
    weights, means, offsets = _class_offsets(classes)
    owner = np.repeat(np.arange(len(weights)), classes.counts)
    step = max(1, _CHUNK_BYTES // (8 * dim))
    within = np.zeros((dim, dim), dtype=np.float64)
    for start in range(0, len(rows), step):
        centered = rows[start : start + step] - means[owner[start : start + step]]
        within += centered.T @ centered
    between = (offsets.T * weights) @ offsets
    return within, between


def default_ridge(within: np.ndarray) -> float:
    """Ridge proportional to the mean within-scatter diagonal."""
    dim = within.shape[0]
    return max(RIDGE_FACTOR * float(np.trace(within)) / dim, RIDGE_FLOOR)


def _unit_columns(vectors: np.ndarray) -> np.ndarray:
    """Scale each column to unit length, in place, and turn it so that its
    strongest component is positive (the first one, on a tie in magnitude)."""
    vectors /= np.linalg.norm(vectors, axis=0)
    strongest = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[strongest, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] = -vectors[:, flip]
    return vectors


def fit_transform(classes: ClassBlock, feature_id: str = "feature") -> FeatureTransform:
    """Fit the separation-maximizing transform for one feature.

    Directions solve the eigenproblem of inv(R) @ between, R being the
    within scatter plus the ridge of ``default_ridge``; every direction
    whose eigenvalue exceeds ``RANK_CUTOFF`` of the strongest is kept.
    The Cholesky factor L of R checks that R is positive definite.

    The problem is reduced to one symmetric matrix, in one of two ways,
    and decomposed by one ``eigh``. A discriminative trait with fewer
    classes c than dimensions d has at most c - 1 directions, all in the
    span of its class-mean offsets A (each row scaled by the square root
    of its row count, so between = A.T @ A): with Y = inv(R) @ A.T, the
    c x c A @ Y has the nonzero eigenvalues of inv(R) @ between, and its
    eigenvector p maps to the direction Y @ p. Any other trait, every
    1-wide one included, is whitened to inv(L) @ between @ inv(L).T, whose
    eigenvector q maps to the direction inv(L).T @ q.
    """
    if len(classes) < 2:
        raise DegenerateProblemError("fitting needs at least two classes")
    # Finite rows can still square past float64, and a finite within
    # scatter can pass it once the ridge is added; that is reported below,
    # not warned about here.
    with np.errstate(over="ignore", invalid="ignore"):
        within, between = scatter_statistics(classes)
        total = float(np.trace(within)) + float(np.trace(between))
        ridge = default_ridge(within)
        dim = within.shape[0]
        regularized = within + ridge * np.eye(dim)
    if not (np.isfinite(total) and np.isfinite(regularized).all() and np.isfinite(between).all()):
        raise NonFiniteInputError(f"{feature_id}: scatter overflows float64")
    try:
        chol = np.linalg.cholesky(regularized)
    except np.linalg.LinAlgError:
        raise DegenerateProblemError(
            f"{feature_id}: within scatter plus ridge {ridge!r} is not positive definite"
        ) from None
    discriminative = float(np.trace(between)) > EIGENVALUE_CUTOFF * total

    span = None
    # A finite between scatter over a near-zero within scatter can still
    # reduce past float64; that is reported below, not warned about here.
    with np.errstate(over="ignore", invalid="ignore"):
        if discriminative and len(classes) < dim:
            weights, _, offsets = _class_offsets(classes)
            scaled = offsets * np.sqrt(weights)[:, None]
            span = np.linalg.solve(regularized, scaled.T)
            reduced = scaled @ span
        else:
            reduced = np.linalg.solve(chol, np.linalg.solve(chol, between).T).T
        reduced = (reduced + reduced.T) / 2.0
    if not np.isfinite(reduced).all():
        raise NonFiniteInputError(f"{feature_id}: whitened scatter overflows float64")
    eigvals, eigvecs = np.linalg.eigh(reduced)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    # A trait without mean separation keeps one arbitrary direction.
    keep = discriminative & (eigvals > RANK_CUTOFF * eigvals[0])
    keep[0] = True

    if span is None:
        vectors = _unit_columns(np.linalg.solve(chol.T, eigvecs[:, order]))[:, keep]
    else:
        # Only kept columns are scaled, as a direction without between
        # scatter can map to an exact zero; each is first divided by its
        # largest entry, whose square can overflow where the eigenvalue
        # does not.
        vectors = span @ eigvecs[:, order[keep]]
        vectors = _unit_columns(vectors / np.abs(vectors).max(axis=0))
    eigenvalues = eigvals[keep] if discriminative else np.zeros(1, dtype=np.float64)
    return FeatureTransform(
        feature_id=feature_id,
        matrix=np.ascontiguousarray(vectors * eigenvalues if discriminative else vectors),
        eigenvalues=eigenvalues,
        regularization=ridge,
        discriminative=discriminative,
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
