"""Per-feature ranking and collective-confidence fusion.

Each feature ranks every enrolled class by its distance to the probe;
ranks become confidences, confidences average across the features both
sides share, and the averaged score orders the final candidate list.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGalleryError,
    NoUsableFeatureError,
    UnfittedGalleryError,
)
from .discriminant import project
from .features import FeatureBundle
from .gallery import ProjectedBlock

if TYPE_CHECKING:  # pragma: no cover
    from .gallery import Gallery


@dataclass(frozen=True)
class PerFeatureRanking:
    """Gallery classes ordered by one feature, closest first."""

    feature_id: str
    labels: tuple[str, ...]
    distances: tuple[float, ...]
    _ranks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.distances):
            raise ValueError("labels and distances must align")
        if len(self.labels) == 0:
            raise ValueError("ranking cannot be empty")
        ranks = dict(zip(self.labels, range(1, len(self.labels) + 1)))
        object.__setattr__(self, "_ranks", ranks)

    def rank_of(self, label: str) -> int:
        try:
            return self._ranks[label]
        except KeyError:
            raise ValueError(f"{label!r} is not in the ranking") from None

    def distance_of(self, label: str) -> float:
        return self.distances[self.rank_of(label) - 1]


class _ReprMemo(dict):
    """repr of numbers, computed once per distinct nonzero value."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:  # 0.0 == -0.0, but their reprs differ
            self[value] = text
        return text


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Everything the matcher concluded about one probe."""

    probe_id: str | None
    n: int
    features_used: tuple[str, ...]
    per_feature: tuple[PerFeatureRanking, ...]
    confidences: Mapping[str, Mapping[str, float]]
    collective: Mapping[str, float]
    ranking: tuple[str, ...]

    def _columns(self) -> tuple[list[tuple], list[tuple], list[float]]:
        """Per class in final order: its ranks, its cf values and its CF."""
        labels = self.ranking
        ranks = zip(*[list(map(pf.rank_of, labels)) for pf in self.per_feature])
        cf = zip(
            *[
                list(map(self.confidences[fid].__getitem__, labels))
                for fid in self.features_used
            ]
        )
        return list(ranks), list(cf), list(map(self.collective.__getitem__, labels))

    def to_records(self) -> dict:
        """Plain-data view, the same shape parse_match_report returns."""
        ranks, cf, collective = self._columns()
        classes = [
            {"label": label, "ranks": r, "cf": c, "CF": v, "rank": position}
            for position, label, r, c, v in zip(
                range(1, len(self.ranking) + 1), self.ranking, ranks, cf, collective
            )
        ]
        return {
            "probe_id": self.probe_id,
            "n": self.n,
            "features": self.features_used,
            "classes": classes,
        }

    def to_text(self) -> str:
        """Serialize to the line-oriented record format.

        Line 1:   probe=<id> n=<n> features=<fid>,<fid>,...
        Then one line per class in final order:
                  <label> ranks=<r>,... cf=<c>,... CF=<v> rank=<k>
        Numbers are written with repr so parsing recovers them exactly;
        a missing probe id is written as "-".
        """
        ranks, cf, collective = self._columns()
        # Every feature ranks the same n classes, so its ranks and cf
        # values repeat across features: each distinct number is written
        # once and looked up after that.
        rank_text, cf_text = _ReprMemo(), _ReprMemo()
        lines = [
            "probe={} n={} features={}".format(
                self.probe_id if self.probe_id else "-",
                self.n,
                ",".join(self.features_used),
            )
        ]
        lines.extend(
            map(
                "{} ranks={} cf={} CF={!r} rank={}".format,
                self.ranking,
                (",".join(map(rank_text.__getitem__, r)) for r in ranks),
                (",".join(map(cf_text.__getitem__, c)) for c in cf),
                collective,
                range(1, len(self.ranking) + 1),
            )
        )
        return "\n".join(lines) + "\n"


def parse_match_report(text: str) -> dict:
    """Parse to_text output back into its plain-data form."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty report")
    head = lines[0].split()
    if len(head) != 3 or not head[0].startswith("probe="):
        raise ValueError("bad report header")
    fields = {}
    for token in head:
        key, _, value = token.partition("=")
        fields[key] = value
    probe_id = None if fields["probe"] == "-" else fields["probe"]
    features = tuple(f for f in fields["features"].split(",") if f)
    classes = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"bad class line: {line!r}")
        label = parts[0]
        row = {}
        for token in parts[1:]:
            key, _, value = token.partition("=")
            row[key] = value
        classes.append(
            {
                "label": label,
                "ranks": tuple(int(r) for r in row["ranks"].split(",")),
                "cf": tuple(float(c) for c in row["cf"].split(",")),
                "CF": float(row["CF"]),
                "rank": int(row["rank"]),
            }
        )
    return {
        "probe_id": probe_id,
        "n": int(fields["n"]),
        "features": features,
        "classes": classes,
    }


def _pack_class_sets(
    class_sets: Sequence[tuple[str, np.ndarray]], dim: int
) -> ProjectedBlock:
    labels, parts = [], []
    for label, samples in class_sets:
        s = np.asarray(samples, dtype=np.float64)
        if s.ndim != 2 or s.shape[1] != dim:
            raise DimensionMismatchError(
                f"class {label!r} samples do not match the probe dimension"
            )
        if s.shape[0] == 0:
            raise ValueError(f"class {label!r} has no samples")
        labels.append(label)
        parts.append(s)
    return ProjectedBlock.pack(
        labels, np.concatenate(parts), [part.shape[0] for part in parts]
    )


def rank_feature(
    probe: np.ndarray,
    class_sets: Sequence[tuple[str, np.ndarray]] | ProjectedBlock,
    feature_id: str,
) -> PerFeatureRanking:
    """Order classes by their closest sample to the probe.

    ``class_sets`` is a gallery trait's packed block, or (label, samples)
    pairs in enrollment order, which are packed first. Class distance is
    the minimum Euclidean distance from the probe to any sample of the
    class. Distance ties keep the earlier-enrolled class first; ranks
    are always a dense 1..n.
    """
    if len(class_sets) == 0:
        raise EmptyGalleryError("no classes to rank")
    v = np.asarray(probe, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError("the probe must be a vector")
    if isinstance(class_sets, ProjectedBlock):
        block = class_sets
    else:
        block = _pack_class_sets(class_sets, v.shape[0])
    if block.rows.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"{feature_id} samples do not match the probe dimension"
        )
    # The direct difference, squared and summed row by row, rounds each
    # sample's distance exactly as a lone vector would.
    deltas = block.rows - v
    np.multiply(deltas, deltas, out=deltas)
    distances = np.minimum.reduceat(np.sqrt(deltas.sum(axis=1)), block.starts)
    order = np.argsort(distances, kind="stable")
    return PerFeatureRanking(
        feature_id=feature_id,
        labels=tuple([block.labels[i] for i in order.tolist()]),
        distances=tuple(distances[order].tolist()),
    )


def confidence(rank: int, n: int) -> float:
    """Map a dense rank among n classes to a score in (0, 1]."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in 1..{n}")
    return (n - rank + 1) / n


def _ordered_sum(values: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum in the given order, rounded as the builtin sum rounds.

    From Python 3.12 the builtin sum of floats carries a Neumaier
    compensation term; before, it adds left to right.
    """
    if sys.version_info < (3, 12):
        return sum(values)
    total = values[0]
    compensation = np.zeros_like(total)
    for x in values[1:]:
        t = total + x
        compensation += np.where(
            np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total
        )
        total = t
    return np.where(compensation != 0.0, total + compensation, total)


def collective_confidence(
    values: Sequence[float] | Sequence[np.ndarray], feature_count: int
) -> float | np.ndarray:
    """Mean per-feature confidence for one class.

    Given one array per feature, fuses every class at once; each element
    equals the mean of that class's values as plain floats, bit for bit.
    """
    if feature_count < 1:
        raise NoUsableFeatureError("no features to fuse")
    if len(values) != feature_count:
        raise ValueError("need exactly one confidence per feature")
    for v in values:
        v = np.asarray(v)
        if not ((v > 0.0) & (v <= 1.0)).all():
            raise ValueError("confidences must lie in (0, 1]")
    if isinstance(values[0], np.ndarray):
        return _ordered_sum(values) / feature_count
    return sum(values) / feature_count


def match_probe(bundle: FeatureBundle, gallery: "Gallery") -> MatchReport:
    """Rank every enrolled class against one probe bundle.

    Only features available on both sides take part: the probe must have
    extracted the feature, and the fitted gallery must hold a transform
    plus samples of it for every class. The final order is by collective
    confidence, ties broken by the best single-feature rank and then by
    enrollment order.
    """
    if gallery.n == 0:
        raise EmptyGalleryError("gallery has no enrolled classes")
    if not gallery.fitted:
        raise UnfittedGalleryError("fit the gallery before matching")

    transforms = gallery.transforms
    usable = []
    for fid in gallery.covered_features():
        vector = bundle.feature_vector(fid)
        if vector is None:
            continue
        if vector.shape[0] != transforms[fid].input_dim:
            raise DimensionMismatchError(
                f"probe {fid} dimension {vector.shape[0]} does not match "
                f"the gallery fit ({transforms[fid].input_dim})"
            )
        usable.append(fid)
    if not usable:
        raise NoUsableFeatureError(
            "probe and gallery share no feature that can be ranked"
        )

    labels = gallery.labels
    n = gallery.n
    rankings = []
    for fid in usable:
        projected_probe = project(transforms[fid], bundle.feature_vector(fid))
        rankings.append(
            rank_feature(projected_probe, gallery.projected_block(fid), fid)
        )
    # ranks[f, i]: rank of enrolled class i under usable feature f.
    ranks = np.array(
        [list(map(ranking._ranks.__getitem__, labels)) for ranking in rankings],
        dtype=np.intp,
    )
    confidences = (n - ranks + 1) / n
    collective = collective_confidence(list(confidences), len(usable))
    final = np.lexsort((np.arange(n), ranks.min(axis=0), -collective))
    return MatchReport(
        probe_id=bundle.label,
        n=n,
        features_used=tuple(usable),
        per_feature=tuple(rankings),
        confidences={
            fid: dict(zip(labels, row.tolist()))
            for fid, row in zip(usable, confidences)
        },
        collective=dict(zip(labels, collective.tolist())),
        ranking=tuple([labels[i] for i in final.tolist()]),
    )
