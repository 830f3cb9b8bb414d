"""Dataset ingestion, synthetic data generation, and closed-set scoring.

A dataset is a CSV manifest plus the raster files it references. Every
probe label must also be enrolled (closed set), so the cumulative match
curve always reaches 1.0 at rank n.
"""

from __future__ import annotations

import csv
import os
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from multiprocessing import get_all_start_methods, get_context
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ExtractionWorkerError, ManifestError, UnknownLabelError
from .features import (
    FeatureBundle,
    SubjectSample,
    check_label,
    extract_bundle,
    fuse_bundles,
)
from .gallery import Gallery
from .imaging import (
    MAX_PIXELS,
    Image,
    SilhouetteMask,
    band_boundaries,
    load_image,
    load_mask,
    save_image,
    save_mask,
)
from .matching import match_probe

MANIFEST_NAME = "manifest.csv"
ROLES = ("gallery", "probe")
VIEWS = frozenset({"front", "back", "lateral", "oblique", "unknown"})


@dataclass(frozen=True)
class ManifestEntry:
    """One camera's row for one observation, under the manifest's row
    rules wherever it is built."""

    label: str
    role: str
    image: str
    mask: str | None = None
    bbox_height: int | None = None
    bbox_width: int | None = None
    entrance_ref_height: int | None = None
    camera_id: str = "c1"
    view: str = "front"

    def __post_init__(self) -> None:
        try:
            check_label(self.label)
        except ValueError as exc:
            raise ManifestError(str(exc)) from None
        if self.role not in ROLES:
            raise ManifestError(f"bad role {self.role!r}")
        if self.view not in VIEWS:
            raise ManifestError(f"bad view {self.view!r}")
        if not self.image:
            raise ManifestError("empty image path")
        # A manifest cell cannot tell "" from no mask or the default camera.
        if self.mask == "":
            raise ManifestError("empty mask path")
        if not self.camera_id:
            raise ManifestError("empty camera id")
        if "\0" in self.image + (self.mask or ""):
            raise ManifestError("a path holds a NUL byte")


MANIFEST_COLUMNS = tuple(f.name for f in fields(ManifestEntry))


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest; file paths are relative to ``root``.

    Cameras pair up row by row in file order, so every camera must give
    a label the same number of rows of a role. Construction checks that
    before any image is read, and keeps each role's observations: (label,
    one row per camera in camera order), grouped by label in first-seen
    order.
    """

    root: Path
    entries: tuple[ManifestEntry, ...]
    _paired: dict[str, list[tuple[str, tuple[ManifestEntry, ...]]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        grouped: dict[tuple[str, str], dict[str, list[ManifestEntry]]] = {}
        for e in self.entries:
            grouped.setdefault((e.label, e.role), {}).setdefault(e.camera_id, []).append(e)
        paired = {role: [] for role in ROLES}
        for (label, role), per_camera in grouped.items():
            cameras = sorted(per_camera)
            if len({len(per_camera[cid]) for cid in cameras}) != 1:
                counts = ", ".join(f"{cid} {len(per_camera[cid])}" for cid in cameras)
                raise ManifestError(
                    f"label {label!r} ({role}): cameras disagree on observation count "
                    f"({counts})"
                )
            paired[role].extend(
                (label, rows) for rows in zip(*(per_camera[cid] for cid in cameras))
            )
        object.__setattr__(self, "_paired", paired)


_DIGITS = re.compile(r"[0-9]+")


def _parse_metric(raw: str, column: str, where: str) -> int | None:
    """An empty cell, or a pixel count of at least 1 written the way
    ``write_manifest`` writes one."""
    if raw == "":
        return None
    if not _DIGITS.fullmatch(raw):
        raise ManifestError(f"{where}: {column} must be an integer in digits 0-9, got {raw!r}")
    if int(raw) < 1:
        raise ManifestError(f"{where}: {column} must be at least 1, got {raw!r}")
    return int(raw)


def read_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a dataset manifest CSV."""
    path = Path(path)
    try:
        # newline="" hands the reader each line break untranslated, so a
        # quoted field keeps its breaks and only "\r" or "\n" ends a line.
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            # Each record with the line it ends on.
            rows = [(row, reader.line_num) for row in reader]
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise ManifestError(f"{path}: {exc}") from None
    if not rows or tuple(rows[0][0]) != MANIFEST_COLUMNS:
        raise ManifestError(
            f"{path}: first line must be {','.join(MANIFEST_COLUMNS)}"
        )
    entries = []
    for (_, previous_end), (row, _) in zip(rows, rows[1:]):
        where = f"{path} line {previous_end + 1}"
        if len(row) != len(MANIFEST_COLUMNS):
            raise ManifestError(f"{where}: expected {len(MANIFEST_COLUMNS)} fields")
        record = dict(zip(MANIFEST_COLUMNS, row))
        for column in MANIFEST_COLUMNS[4:7]:
            record[column] = _parse_metric(record[column], column, where)
        box, door = record["bbox_height"], record["entrance_ref_height"]
        if box is not None and door is not None and box > door:
            raise ManifestError(f"{where}: bbox_height {box} exceeds entrance_ref_height {door}")
        record["mask"] = record["mask"] or None
        record["camera_id"] = record["camera_id"] or "c1"
        try:
            entries.append(ManifestEntry(**record))
        except ManifestError as exc:
            raise ManifestError(f"{where}: {exc}") from None
    return DatasetManifest(root=path.parent, entries=tuple(entries))


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest that ``read_manifest`` reads back entry for entry."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        # The default "\r\n" line end makes the writer quote every field
        # that holds a "\r" or a "\n", so no path breaks its record; None
        # is written as an empty field.
        writer = csv.writer(handle)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(map(attrgetter(*MANIFEST_COLUMNS), manifest.entries))


def load_sample(entry: ManifestEntry, root: str | Path) -> SubjectSample:
    """Materialize one manifest row into an observation."""
    root = Path(root)
    try:
        image = load_image(root / entry.image)
        mask = load_mask(root / entry.mask) if entry.mask else None
    except OSError as exc:
        raise ManifestError(f"cannot read {entry.image!r}: {exc}") from exc
    try:
        return SubjectSample(
            image=image,
            mask=mask,
            bbox_height=entry.bbox_height,
            entrance_ref_height=entry.entrance_ref_height,
        )
    except ValueError as exc:
        raise ManifestError(f"bad row for {entry.image!r}: {exc}") from exc


# Observations per task when extraction runs in worker processes.
_CHUNK = 64


def _extract(
    root: Path, observations: Sequence[tuple[str, tuple[ManifestEntry, ...]]]
) -> list[FeatureBundle]:
    """One fused bundle per (label, one row per camera) observation, in order."""
    bundles = []
    for label, rows in observations:
        extracted = {row.camera_id: extract_bundle(load_sample(row, root)) for row in rows}
        bundles.append(fuse_bundles(extracted, label=label))
    return bundles


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _observations(manifest: DatasetManifest, role: str) -> list[FeatureBundle]:
    """Extract one fused bundle per observation of the given role, in the
    manifest's observation order.

    When the observations span more than one chunk and more than one CPU
    is usable, forked workers extract the chunks; the bundles and the
    first error, in manifest order, are the same as in-process. A worker
    that dies is an ``ExtractionWorkerError``. No worker outlives the call.
    """
    observations = manifest._paired[role]
    chunks = [observations[i : i + _CHUNK] for i in range(0, len(observations), _CHUNK)]
    workers = min(_usable_cpus(), len(chunks))
    if workers < 2 or "fork" not in get_all_start_methods():
        return _extract(manifest.root, observations)
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        parts = pool.map(_extract, [manifest.root] * len(chunks), chunks)
        return [bundle for part in parts for bundle in part]
    except BrokenProcessPool:
        raise ExtractionWorkerError(
            f"a worker extracting {role} observations ended without a result"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)


def gallery_bundles(
    manifest: DatasetManifest | str | Path,
) -> dict[str, list[FeatureBundle]]:
    """Extract only the gallery-role observations of a dataset, as
    label -> bundles in first-seen order."""
    if not isinstance(manifest, DatasetManifest):
        manifest = read_manifest(manifest)
    gallery_map: dict[str, list[FeatureBundle]] = {}
    for bundle in _observations(manifest, "gallery"):
        gallery_map.setdefault(bundle.label, []).append(bundle)
    return gallery_map


def probe_bundles(manifest: DatasetManifest | str | Path) -> list[FeatureBundle]:
    """Extract only the probe-role observations of a dataset."""
    if not isinstance(manifest, DatasetManifest):
        manifest = read_manifest(manifest)
    return _observations(manifest, "probe")


def ingest(
    manifest: DatasetManifest | str | Path,
) -> tuple[dict[str, list[FeatureBundle]], list[FeatureBundle]]:
    """Extract gallery and probe bundles from a dataset.

    Returns the gallery as label -> bundles in first-seen order and the
    probe bundles carrying their true label. Probe labels missing from
    the gallery violate the closed-set protocol and fail here, before any
    image is read.
    """
    if not isinstance(manifest, DatasetManifest):
        manifest = read_manifest(manifest)
    labels = {role: {label for label, _ in manifest._paired[role]} for role in ROLES}
    missing = sorted(labels["probe"] - labels["gallery"])
    if missing:
        raise ManifestError(f"probe labels missing from the gallery: {missing}")
    return gallery_bundles(manifest), probe_bundles(manifest)


@dataclass(frozen=True)
class CMCCurve:
    """Cumulative match accuracy at every rank from 1 to n."""

    accuracies: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.accuracies) == 0:
            raise ValueError("curve cannot be empty")
        previous = 0.0
        for a in self.accuracies:
            if not 0.0 <= a <= 1.0:
                raise ValueError("accuracies must lie in [0, 1]")
            if a < previous:
                raise ValueError("accuracies must be non-decreasing")
            previous = a
        if self.accuracies[-1] != 1.0:
            raise ValueError("closed-set curve must end at 1.0")

    def accuracy(self, k: int) -> float:
        if k < 1:
            raise ValueError("rank must be at least 1")
        return self.accuracies[min(k, len(self.accuracies)) - 1]


def evaluate(
    gallery_map: Mapping[str, Sequence[FeatureBundle]],
    probes: Sequence[FeatureBundle],
    features: Sequence[str] | None = None,
) -> CMCCurve:
    """Enroll, fit, match every probe, and return the cumulative match
    curve, one accuracy per enrolled class.

    ``features`` restricts both sides to a subset of traits, which is how
    single-trait ablations are run.
    """
    if len(probes) == 0:
        raise ValueError("no probes to evaluate")
    for probe in probes:
        if probe.label is None or probe.label not in gallery_map:
            raise UnknownLabelError(f"probe label {probe.label!r} is not enrolled")
    gallery = Gallery()
    for label, bundles in gallery_map.items():
        if features is not None:
            bundles = [b.restrict(features) for b in bundles]
        gallery = gallery.enroll(label, bundles)
    gallery = gallery.fit()
    hits = np.zeros(gallery.n, dtype=np.int64)
    for probe in probes:
        if features is not None:
            probe = probe.restrict(features)
        report = match_probe(probe, gallery)
        rank = report.ranking.index(probe.label) + 1
        hits[rank - 1] += 1
    cumulative = np.cumsum(hits) / len(probes)
    return CMCCurve(tuple(float(a) for a in cumulative))


def emit_report(
    rows: Sequence[tuple[str, Mapping[int, float]]],
    ks: Sequence[int] = (1, 5, 10),
) -> str:
    """Fixed-width matching-rate table, three decimals per cell."""
    if not rows:
        raise ValueError("no rows to report")
    name_width = max(20, max(len(name) for name, _ in rows) + 2)
    lines = [
        "Rank".ljust(name_width) + "  ".join(f"{k:>5d}" for k in ks)
    ]
    for name, accuracies in rows:
        cells = "  ".join(f"{accuracies[k]:.3f}" for k in ks)
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> list[tuple[str, dict[int, float]]]:
    """Invert emit_report, recovering names and the printed accuracies."""
    lines = [line for line in text.splitlines() if line.strip()]
    head = lines[0].split() if lines else []
    if len(head) < 2 or head[0] != "Rank":
        raise ValueError("bad report header")
    ks = [int(tok) for tok in head[1:]]
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) < len(ks) + 1:
            raise ValueError(f"bad report row: {line!r}")
        values = tokens[-len(ks):]
        name = " ".join(tokens[: -len(ks)])
        rows.append((name, {k: float(v) for k, v in zip(ks, values)}))
    return rows


def cmc_csv(curve: CMCCurve) -> str:
    """Curve as a two-column CSV for external plotting."""
    lines = ["k,accuracy"]
    for k, accuracy in enumerate(curve.accuracies, start=1):
        lines.append(f"{k},{accuracy:.6f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic entry-exit dataset generator.

    Each subject gets stable latent attributes (clothing chroma, skin
    chroma, relative height, torso width); observations are flat-shaded
    band renderings of those attributes plus the configured noise.
    Probes may redraw their clothing colors (simulating a change of
    clothes between entry and exit) and may face away from the camera,
    which hides all skin pixels.
    """

    subjects: int
    samples_per_subject: int = 30
    metric_samples: int = 5
    probes_per_subject: int = 1
    clothing_change_prob: float = 0.0
    back_view_prob: float = 0.0
    pixel_noise: float = 0.0
    height_noise: float = 0.0
    build_noise: float = 0.0
    chroma_noise: float = 0.0
    cameras: int = 1
    image_height: int = 128
    image_width: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.subjects < 2:
            raise ValueError("need at least two subjects")
        if self.samples_per_subject < 1 or self.probes_per_subject < 1:
            raise ValueError("need at least one sample and one probe per subject")
        if not 0 <= self.metric_samples <= self.samples_per_subject:
            raise ValueError("metric_samples must not exceed samples_per_subject")
        for name in ("clothing_change_prob", "back_view_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("pixel_noise", "height_noise", "build_noise", "chroma_noise"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} cannot be negative")
        if self.cameras not in (1, 2):
            raise ValueError("cameras must be 1 or 2")
        if self.image_height < 12 or self.image_width < 16:
            raise ValueError("images must be at least 12x16")
        if self.image_height * self.image_width > MAX_PIXELS:
            raise ValueError(f"images must not exceed the {MAX_PIXELS} pixel budget")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")


# Chroma sampling boxes. Clothing stays inside the RGB gamut at mid
# luma; skin stays inside the detector's box with margin for jitter,
# and the away-facing head color sits far outside it.
_CLOTHING_CB = (70.0, 186.0)
_CLOTHING_CR = (70.0, 186.0)
_SKIN_CB = (87.0, 117.0)
_SKIN_CR = (143.0, 163.0)
_SKIN_CB_CLIP = (80.0, 124.0)
_SKIN_CR_CLIP = (136.0, 170.0)
_BACK_HEAD_CHROMA = (110.0, 100.0)
_HEAD_LUMA = 150.0
_CLOTHING_LUMA = 128.0
_BACK_HEAD_LUMA = 60.0
_ARM_HEIGHT_FRACTION = 0.3
_ARM_COLUMNS = 2
# The doorway's pixel height, which every row with box metrics reports.
_ENTRANCE_REF_HEIGHT = 200


@dataclass(frozen=True)
class _SubjectLatents:
    torso_chroma: tuple[float, float]
    leg_chroma: tuple[float, float]
    skin_chroma: tuple[float, float]
    height_ratio: float
    torso_fraction: float


def _ycbcr_to_rgb(y: float, cb: float, cr: float) -> np.ndarray:
    return np.array(
        [
            y + 1.402 * (cr - 128.0),
            y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0),
            y + 1.772 * (cb - 128.0),
        ],
        dtype=np.float64,
    )


def _jitter_chroma(
    rng: np.random.Generator,
    chroma: tuple[float, float],
    scale: float,
    cb_clip: tuple[float, float],
    cr_clip: tuple[float, float],
) -> tuple[float, float]:
    if scale <= 0.0:
        return chroma
    cb, cr = chroma + rng.normal(0.0, scale, 2)
    return (
        float(np.clip(cb, *cb_clip)),
        float(np.clip(cr, *cr_clip)),
    )


def _render_frame(
    rng: np.random.Generator,
    config: SyntheticConfig,
    head: tuple[float, float, float],
    torso: tuple[float, float],
    legs: tuple[float, float],
) -> Image:
    h, w = config.image_height, config.image_width
    head_end, torso_end = band_boundaries(h)
    frame = np.empty((h, w, 3), dtype=np.float64)
    frame[:head_end] = _ycbcr_to_rgb(*head)
    frame[head_end:torso_end] = _ycbcr_to_rgb(_CLOTHING_LUMA, *torso)
    frame[torso_end:] = _ycbcr_to_rgb(_CLOTHING_LUMA, *legs)
    if config.pixel_noise > 0.0:
        frame = frame + rng.normal(0.0, config.pixel_noise, frame.shape)
    return Image(np.clip(np.floor(frame + 0.5), 0, 255).astype(np.uint8))


def _render_mask(config: SyntheticConfig, torso_columns: int) -> SilhouetteMask:
    h, w = config.image_height, config.image_width
    bits = np.zeros((h, w), dtype=np.bool_)
    start = (w - torso_columns) // 2
    bits[:, start : start + torso_columns] = True
    arm_height = max(1, round(_ARM_HEIGHT_FRACTION * h))
    arm_top = h // 6
    arm_rows = slice(arm_top, min(arm_top + arm_height, h))
    bits[arm_rows, max(0, start - _ARM_COLUMNS) : start] = True
    bits[arm_rows, start + torso_columns : start + torso_columns + _ARM_COLUMNS] = True
    return SilhouetteMask(bits)


def _torso_columns(rng: np.random.Generator, config: SyntheticConfig, fraction: float) -> int:
    width = fraction * config.image_width
    if config.build_noise > 0.0:
        width += rng.normal(0.0, config.build_noise)
    return int(np.clip(round(width), 3, config.image_width - 2 * _ARM_COLUMNS))


def _bbox_height(rng: np.random.Generator, config: SyntheticConfig, ratio: float) -> int:
    height = ratio * _ENTRANCE_REF_HEIGHT
    if config.height_noise > 0.0:
        height += rng.normal(0.0, config.height_noise)
    return int(np.clip(round(height), 1, _ENTRANCE_REF_HEIGHT))


def generate_synthetic(config: SyntheticConfig, out_dir: str | Path) -> DatasetManifest:
    """Materialize a synthetic dataset and its manifest under ``out_dir``.

    Output is a pure function of the configuration: the same settings
    always produce byte-identical files.
    """
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    latents = []
    for _ in range(config.subjects):
        latents.append(
            _SubjectLatents(
                torso_chroma=tuple(rng.uniform(*_CLOTHING_CB, 2)),
                leg_chroma=tuple(rng.uniform(*_CLOTHING_CB, 2)),
                skin_chroma=(
                    float(rng.uniform(*_SKIN_CB)),
                    float(rng.uniform(*_SKIN_CR)),
                ),
                height_ratio=float(rng.uniform(0.55, 0.95)),
                torso_fraction=float(rng.uniform(0.35, 0.85)),
            )
        )

    entries: list[ManifestEntry] = []
    camera_ids = [f"c{i + 1}" for i in range(config.cameras)]

    def render_observation(
        subject: int,
        role: str,
        index: int,
        torso: tuple[float, float],
        legs: tuple[float, float],
        back_view: bool,
        with_metrics: bool,
    ) -> None:
        label = f"s{subject + 1:03d}"
        lat = latents[subject]
        for camera_index, camera_id in enumerate(camera_ids):
            if back_view:
                head = (_BACK_HEAD_LUMA, *_BACK_HEAD_CHROMA)
            else:
                skin = _jitter_chroma(
                    rng, lat.skin_chroma, config.chroma_noise, _SKIN_CB_CLIP, _SKIN_CR_CLIP
                )
                head = (_HEAD_LUMA, *skin)
            torso_c = _jitter_chroma(
                rng, torso, config.chroma_noise, _CLOTHING_CB, _CLOTHING_CR
            )
            legs_c = _jitter_chroma(
                rng, legs, config.chroma_noise, _CLOTHING_CB, _CLOTHING_CR
            )
            frame = _render_frame(rng, config, head, torso_c, legs_c)
            stem = f"{label}_{role[0]}{index:03d}_{camera_id}"
            image_path = f"images/{stem}.ppm"
            save_image(frame, out / image_path)
            mask_path = None
            bbox_height = bbox_width = ref_height = None
            # Entrance metrics come from the first camera only.
            if with_metrics and camera_index == 0:
                columns = _torso_columns(rng, config, lat.torso_fraction)
                save_mask(_render_mask(config, columns), out / f"masks/{stem}.pgm")
                mask_path = f"masks/{stem}.pgm"
                bbox_height = _bbox_height(rng, config, lat.height_ratio)
                bbox_width = columns
                ref_height = _ENTRANCE_REF_HEIGHT
            entries.append(
                ManifestEntry(
                    label=label,
                    role=role,
                    image=image_path,
                    mask=mask_path,
                    bbox_height=bbox_height,
                    bbox_width=bbox_width,
                    entrance_ref_height=ref_height,
                    camera_id=camera_id,
                    view="back" if back_view else "front",
                )
            )

    for subject in range(config.subjects):
        lat = latents[subject]
        for index in range(config.samples_per_subject):
            render_observation(
                subject,
                "gallery",
                index,
                lat.torso_chroma,
                lat.leg_chroma,
                back_view=False,
                with_metrics=index < config.metric_samples,
            )

    for subject in range(config.subjects):
        lat = latents[subject]
        for index in range(config.probes_per_subject):
            torso, legs = lat.torso_chroma, lat.leg_chroma
            if rng.random() < config.clothing_change_prob:
                torso = tuple(rng.uniform(*_CLOTHING_CB, 2))
                legs = tuple(rng.uniform(*_CLOTHING_CB, 2))
            back_view = rng.random() < config.back_view_prob
            render_observation(
                subject, "probe", index, torso, legs, back_view, with_metrics=True
            )

    manifest = DatasetManifest(root=out, entries=tuple(entries))
    write_manifest(manifest, out / MANIFEST_NAME)
    return manifest
