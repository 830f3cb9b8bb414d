"""Naive-loop reference for one match, rebuilt from a gallery's public data.

Everything is recomputed from ``Gallery.transforms`` and
``Gallery.feature_samples`` one class and one sample at a time: each
sample is projected and compared on its own, the way the paper states
the rule, with none of the library's stacked arrays. Per-vector
arithmetic is the library's (a matrix-vector product, then the square
root of a summed square), so distances agree bit for bit and exact ties
resolve the same way.
"""

from __future__ import annotations

import math

import numpy as np

from enexmatch.features import FEATURE_IDS


def oracle_match(probe, gallery) -> dict:
    """Traits used, per-trait class order, collective confidence, final order.

    A trait takes part when the gallery fitted it, every enrolled class
    holds samples of it, and the probe extracted it; otherwise it sits
    out. Per trait, a class's distance is its closest sample's Euclidean
    distance to the probe; ties keep the earlier-enrolled class first.
    The final order is by descending collective confidence, then best
    single-trait rank, then enrollment position.
    """
    labels = gallery.labels
    n = len(labels)
    transforms = gallery.transforms
    traits = []
    for fid in FEATURE_IDS:
        if fid not in transforms or probe.feature_vector(fid) is None:
            continue
        if any(gallery.feature_samples(label, fid) is None for label in labels):
            continue
        traits.append(fid)

    orders: dict[str, tuple[str, ...]] = {}
    ranks: dict[str, dict[str, int]] = {}
    for fid in traits:
        matrix = transforms[fid].matrix
        target = matrix.T @ np.asarray(probe.feature_vector(fid), dtype=np.float64)
        distances = []
        for label in labels:
            best = math.inf
            for row in gallery.feature_samples(label, fid):
                delta = matrix.T @ row - target
                best = min(best, float(np.sqrt((delta * delta).sum())))
            distances.append(best)
        order = sorted(range(n), key=lambda i: (distances[i], i))
        orders[fid] = tuple(labels[i] for i in order)
        ranks[fid] = {labels[i]: r for r, i in enumerate(order, start=1)}

    collective = {}
    best_rank = {}
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
        "collective": collective,
        "ranking": tuple(labels[i] for i in final),
    }


def disagreements(report, expected: dict) -> list[str]:
    """Ways a MatchReport differs from the oracle; empty when they agree."""
    problems = []
    if tuple(report.features_used) != expected["features"]:
        problems.append(
            f"traits {report.features_used} != oracle {expected['features']}"
        )
        return problems
    for ranking in report.per_feature:
        if ranking.labels != expected["orders"][ranking.feature_id]:
            problems.append(f"{ranking.feature_id} order differs from the oracle")
    for label, value in expected["collective"].items():
        if report.collective[label] != value:
            problems.append(f"CF of {label} differs from the oracle")
            break
    if tuple(report.ranking) != expected["ranking"]:
        problems.append("fused order differs from the oracle")
    return problems
