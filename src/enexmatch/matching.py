"""Per-feature ranking and collective-confidence fusion.

Each feature ranks every enrolled class by its distance to the probe;
ranks become confidences, confidences average across the features both
sides share, and the averaged score orders the final candidate list.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGalleryError,
    NonFiniteInputError,
    NoUsableFeatureError,
    UnfittedGalleryError,
)
from .discriminant import ClassBlock, project
from .features import FeatureBundle

if TYPE_CHECKING:  # pragma: no cover
    from .gallery import Gallery


@dataclass(frozen=True)
class PerFeatureRanking:
    """Gallery classes ordered by one feature, closest first."""

    feature_id: str
    labels: tuple[str, ...]
    distances: tuple[float, ...]
    # Enrollment position of each class in rank order, set by rank_feature.
    _positions: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Rank of each label, set on construction: a value written into a built
    # instance's __dict__ slows every later attribute read on it.
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


class _Repr(dict):
    """float -> its repr, filled on first lookup."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text


@lru_cache(maxsize=8)
def _text_tables(n: int) -> tuple[np.ndarray, np.ndarray, _Repr]:
    """Read-only text of each rank among n classes and of its cf, by rank,
    and a memo of the CF strings written so far on a gallery of n classes.

    A rank r always has the confidence (n - r + 1)/n, so a gallery size
    has only n distinct cf strings. Index 0 is no rank and holds "". A CF
    is a mean of such values, and lies in (0, 1], so float equality
    keys one string per value.
    """
    ranks = range(1, n + 1)
    rank_text = np.array(["", *map(str, ranks)], dtype=object)
    cf_text = np.array(["", *[repr(confidence(r, n)) for r in ranks]], dtype=object)
    rank_text.flags.writeable = cf_text.flags.writeable = False
    return rank_text, cf_text, _Repr()


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Everything the matcher concluded about one probe."""

    probe_id: str | None
    n: int
    features_used: tuple[str, ...]
    per_feature: tuple[PerFeatureRanking, ...]
    collective: dict[str, float]
    ranking: tuple[str, ...]

    def _rank_columns(self) -> list[list[int]]:
        """Per feature, the rank of each class in final order."""
        return [list(map(pf.rank_of, self.ranking)) for pf in self.per_feature]

    def to_records(self) -> dict:
        """Plain-data view, the same shape parse_match_report returns."""
        n = self.n
        classes = [
            {
                "label": label,
                "ranks": ranks,
                "cf": tuple([confidence(r, n) for r in ranks]),
                "CF": self.collective[label],
                "rank": position,
            }
            for position, label, ranks in zip(
                range(1, n + 1), self.ranking, zip(*self._rank_columns())
            )
        ]
        return {
            "probe_id": self.probe_id,
            "n": n,
            "features": self.features_used,
            "classes": classes,
        }

    def to_text(self) -> str:
        """Serialize to the line-oriented record format.

        Line 1:   probe=<id> n=<n> features=<fid>,<fid>,...
        Then one line per class in final order:
                  <label> ranks=<r>,... cf=<c>,... CF=<v> rank=<k>
        Numbers are written with repr so parsing recovers them exactly;
        a missing probe id is written as "-". Rank, cf and CF strings come
        from tables shared by every report on a gallery of n classes.
        """
        rank_text, cf_text, cf_memo = _text_tables(self.n)
        # ranks[f, k]: rank under feature f of the class in final place k.
        ranks = np.array(self._rank_columns(), dtype=np.intp)
        slots = ",".join(["%s"] * len(ranks))
        line = f"%s ranks={slots} cf={slots} CF=%s rank=%s"
        rows = zip(
            self.ranking,
            *rank_text[ranks].tolist(),
            *cf_text[ranks].tolist(),
            map(cf_memo.__getitem__, map(self.collective.__getitem__, self.ranking)),
            rank_text[1:].tolist(),  # final places 1..n, written as ranks are
        )
        head = "probe={} n={} features={}".format(
            "-" if self.probe_id is None else self.probe_id,
            self.n,
            ",".join(self.features_used),
        )
        return "\n".join([head, *map(line.__mod__, rows)]) + "\n"


# The header and a class line of the report format, as ``to_text`` writes
# them; any run of whitespace separates two fields.
_HEAD_LINE = re.compile(r"\s*probe=(\S*)\s+n=(\S*)\s+features=(\S*)\s*")
_CLASS_LINE = re.compile(r"\s*(\S+)\s+ranks=(\S*)\s+cf=(\S*)\s+CF=(\S*)\s+rank=(\S*)\s*")


def _fields(pattern: re.Pattern, line: str) -> tuple[str, ...]:
    """The fields ``pattern`` captures from the whole of one report line."""
    match = pattern.fullmatch(line)
    if match is None:
        raise ValueError(f"bad report line: {line!r}")
    return match.groups()


def parse_match_report(text: str) -> dict:
    """Parse to_text output back into its plain-data form."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty report")
    probe, n, features = _fields(_HEAD_LINE, lines[0])
    classes = []
    for line in lines[1:]:
        label, ranks, cf, collective, rank = _fields(_CLASS_LINE, line)
        classes.append(
            {
                "label": label,
                "ranks": tuple(int(r) for r in ranks.split(",")),
                "cf": tuple(float(c) for c in cf.split(",")),
                "CF": float(collective),
                "rank": int(rank),
            }
        )
    return {
        "probe_id": None if probe == "-" else probe,
        "n": int(n),
        "features": tuple(f for f in features.split(",") if f),
        "classes": classes,
    }


def rank_feature(
    probe: np.ndarray, block: ClassBlock, feature_id: str
) -> PerFeatureRanking:
    """Order a packed block's classes by their closest sample to the probe.

    Class distance is the minimum Euclidean distance from the probe to
    any sample of the class. Distance ties keep the earlier-enrolled
    class first; ranks are always a dense 1..n.
    """
    v = np.asarray(probe, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError("the probe must be a vector")
    if block.rows.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"{feature_id} samples do not match the probe dimension"
        )
    # The direct difference, squared and summed row by row, rounds each
    # sample's distance exactly as a lone vector would.
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = block.rows - v
        np.multiply(deltas, deltas, out=deltas)
        distances = np.minimum.reduceat(np.sqrt(deltas.sum(axis=1)), block.starts)
    if not np.isfinite(distances).all():
        raise NonFiniteInputError(f"{feature_id} distances overflow float64")
    order = np.argsort(distances, kind="stable")
    ranking = PerFeatureRanking(
        feature_id=feature_id,
        labels=tuple([block.labels[i] for i in order.tolist()]),
        distances=tuple(distances[order].tolist()),
    )
    object.__setattr__(ranking, "_positions", order)
    return ranking


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
    return _neumaier_sum(values)


def _neumaier_sum(values: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum rounded as Python 3.12's builtin sum of floats."""
    total = values[0]
    compensation = np.zeros_like(total)
    for x in values[1:]:
        t = total + x
        compensation += np.where(
            np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total
        )
        total = t
    return np.where(compensation != 0.0, total + compensation, total)


def collective_confidence(values: Sequence[np.ndarray]) -> np.ndarray:
    """Mean confidence of every class over the features, one array per feature.

    Each element equals the mean of that class's values as plain floats,
    bit for bit.
    """
    if len(values) == 0:
        raise NoUsableFeatureError("no features to fuse")
    for v in values:
        if not ((v > 0.0) & (v <= 1.0)).all():
            raise ValueError("confidences must lie in (0, 1]")
    return _ordered_sum(values) / len(values)


def match_probe(bundle: FeatureBundle, gallery: "Gallery") -> MatchReport:
    """Rank every enrolled class against one probe bundle.

    Only features available on both sides take part: the probe must have
    extracted the feature, and the fitted gallery must hold a transform
    plus samples of it for every class. A probe feature whose width
    differs from the gallery's fit, such as one camera's clothing against
    a two-camera gallery, cannot be compared and sits out too. The final
    order is by collective confidence, ties broken by the best
    single-feature rank and then by enrollment order.
    """
    if gallery.n == 0:
        raise EmptyGalleryError("gallery has no enrolled classes")
    if not gallery.fitted:
        raise UnfittedGalleryError("fit the gallery before matching")

    transforms = gallery.transforms
    # The probe vector of each usable feature, read once.
    usable = {
        fid: vector
        for fid in gallery.covered_features()
        if (vector := bundle.feature_vector(fid)) is not None
        and vector.shape[0] == transforms[fid].input_dim
    }
    if not usable:
        raise NoUsableFeatureError(
            "probe and gallery share no feature that can be ranked"
        )

    labels = gallery.labels
    n = gallery.n
    steps = np.arange(1, n + 1)
    rankings = []
    # ranks[f, i]: rank of enrolled class i under usable feature f.
    ranks = np.empty((len(usable), n), dtype=np.intp)
    for (fid, vector), row in zip(usable.items(), ranks):
        projected_probe = project(transforms[fid], vector)
        ranking = rank_feature(projected_probe, gallery.projected_block(fid), fid)
        row[ranking._positions] = steps
        rankings.append(ranking)
    confidences = (n - ranks + 1) / n
    collective = collective_confidence(list(confidences))
    final = np.lexsort((steps, ranks.min(axis=0), -collective))
    return MatchReport(
        probe_id=bundle.label,
        n=n,
        features_used=tuple(usable),
        per_feature=tuple(rankings),
        collective=dict(zip(labels, collective.tolist())),
        ranking=tuple([labels[i] for i in final.tolist()]),
    )
