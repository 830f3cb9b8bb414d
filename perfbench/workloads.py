"""Workloads, their seeded datasets, and the operations the benchmark times.

Every workload runs the same three operations, so every end-to-end
metric exists on every workload; the workloads differ in their data,
which moves the cost between layers:

- enroll job: the ``enexmatch enroll`` command through the library,
  ``read_manifest`` -> ``ingest`` -> ``Gallery.enroll`` per class ->
  ``fit`` -> ``save``;
- probe request: ``load_sample`` per camera row -> ``extract_bundle`` ->
  ``fuse_bundles`` -> ``match_probe`` against the loaded snapshot ->
  ``to_text``;
- churn round: ``Gallery.load`` -> match and render the probes of the
  longest-present subjects -> ``retire`` them -> ``enroll`` as many
  waiting subjects -> ``fit`` -> ``save``. Retired subjects join the back
  of the waiting queue, so the gallery size never changes and any number
  of rounds can run.

Library functions are always looked up through their module at call
time (``ev.ingest``, not a name imported once), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import enexmatch.evaluation as ev
import enexmatch.features as ft
import enexmatch.gallery as gl
import enexmatch.matching as mt

# Noise shared by every workload: moderate sensor noise, one probe in
# five changes clothes and one in five faces away (no skin visible).
NOISE = dict(
    pixel_noise=6.0,
    height_noise=3.0,
    build_noise=1.5,
    chroma_noise=4.0,
    clothing_change_prob=0.2,
    back_view_prob=0.2,
)

# Set-up generates each dataset as this many equal generator calls, and
# setup_s scales their median; one slow call cannot move the figure.
SHARDS = 3


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    subjects: int  # generated in total, SHARDS equal parts
    initial: int  # enrolled by the enroll job; the rest wait to arrive
    per_round: int  # subjects retired and enrolled in each churn round
    probes_per_round: int  # probe requests before each round
    min_rounds: int
    enroll_jobs: int  # enroll_s is their median
    frames: dict = field(default_factory=dict)  # other SyntheticConfig fields

    def smoke(self) -> "Workload":
        """A few-second version with the same code paths, for correctness only."""
        return replace(
            self,
            subjects=4 * SHARDS,
            initial=4 * SHARDS - 2,
            per_round=2,
            probes_per_round=2,
            min_rounds=3,
            frames=dict(self.frames, samples_per_subject=4, metric_samples=2),
        )


_SMALL_FRAMES = dict(samples_per_subject=5, metric_samples=2, probes_per_subject=1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="extract",
            subjects=57,
            initial=50,
            per_round=5,
            probes_per_round=12,
            min_rounds=30,
            enroll_jobs=1,
            frames=dict(
                samples_per_subject=20,
                metric_samples=5,
                probes_per_subject=4,
                cameras=2,
                image_height=256,
                image_width=128,
            ),
        ),
        Workload(
            name="gallery",
            subjects=612,
            initial=600,
            per_round=2,
            probes_per_round=14,
            min_rounds=12,
            enroll_jobs=1,
            frames=_SMALL_FRAMES,
        ),
        Workload(
            name="churn",
            subjects=600,
            initial=400,
            per_round=10,
            probes_per_round=5,
            min_rounds=20,
            enroll_jobs=3,
            frames=_SMALL_FRAMES,
        ),
    )
}


def shard_seed(seed: int, shard: int) -> int:
    return int(np.random.SeedSequence([seed, shard]).generate_state(1)[0])


@dataclass
class Dataset:
    """Generated files plus what set-up extracted from them, untimed."""

    root: Path
    enroll_manifest: Path  # gallery rows of the initially enrolled subjects
    labels: tuple[str, ...]  # every subject, in enrollment order
    probe_rows: dict  # label -> list of {camera: ManifestEntry}
    probe_bundles: dict  # label -> list of fused probe bundles
    pool_bundles: dict  # label -> gallery bundles of each waiting subject
    shard_seconds: list
    prepare_seconds: float


def _relabel(entry, shard: int):
    prefix = f"part{shard}/"
    return replace(
        entry,
        label=f"p{shard}{entry.label}",
        image=prefix + entry.image,
        mask=None if entry.mask is None else prefix + entry.mask,
    )


def _probe_rows(entries) -> dict:
    """Probe rows grouped into observations, paired per camera in file order."""
    grouped: dict[str, dict[str, list]] = {}
    for e in entries:
        if e.role == "probe":
            grouped.setdefault(e.label, {}).setdefault(e.camera_id, []).append(e)
    out = {}
    for label, per_camera in grouped.items():
        count = len(next(iter(per_camera.values())))
        out[label] = [{cid: rows[i] for cid, rows in per_camera.items()} for i in range(count)]
    return out


def build_dataset(workload: Workload, seed: int, root: Path) -> Dataset:
    """Generate the workload's files under ``root`` and pre-extract probes.

    Subjects from shard ``i`` get the label prefix ``p<i>``. The first
    ``workload.initial`` subjects form the enroll job's manifest; the
    rest are extracted now so that churn rounds can enroll them.
    """
    per_shard = workload.subjects // SHARDS
    entries = []
    shard_seconds = []
    for shard in range(SHARDS):
        config = ev.SyntheticConfig(
            subjects=per_shard, seed=shard_seed(seed, shard), **NOISE, **workload.frames
        )
        start = time.perf_counter()
        part = ev.generate_synthetic(config, root / f"part{shard}")
        shard_seconds.append(time.perf_counter() - start)
        entries.extend(_relabel(e, shard) for e in part.entries)

    start = time.perf_counter()
    labels = tuple(dict.fromkeys(e.label for e in entries if e.role == "gallery"))
    initial = set(labels[: workload.initial])
    enroll_manifest = root / "enroll.csv"
    ev.write_manifest(
        ev.DatasetManifest(
            root, tuple(e for e in entries if e.role == "gallery" and e.label in initial)
        ),
        enroll_manifest,
    )
    probes = ev.probe_bundles(ev.DatasetManifest(root, tuple(entries)))
    probe_bundles: dict[str, list] = {}
    for bundle in probes:
        probe_bundles.setdefault(bundle.label, []).append(bundle)
    pool_rows = tuple(
        e for e in entries if e.role == "gallery" and e.label not in initial
    )
    pool_bundles, _ = ev.ingest(ev.DatasetManifest(root, pool_rows))
    return Dataset(
        root=root,
        enroll_manifest=enroll_manifest,
        labels=labels,
        probe_rows=_probe_rows(entries),
        probe_bundles=probe_bundles,
        pool_bundles=pool_bundles,
        shard_seconds=shard_seconds,
        prepare_seconds=time.perf_counter() - start,
    )


def warm_up(ds: Dataset, path: Path) -> None:
    """Pay first-call costs (LAPACK set-up, code paths) before timing."""
    gallery = gl.Gallery()
    for label, bundles in ds.pool_bundles.items():
        gallery = gallery.enroll(label, bundles)
    gallery = gallery.fit()
    gallery.save(path)
    gallery = gl.Gallery.load(path)
    label = next(iter(ds.pool_bundles))
    mt.match_probe(ds.probe_bundles[label][0], gallery).to_text()
    path.unlink()


# -- timed operations ---------------------------------------------------


def enroll_job(manifest_path: Path, snapshot: Path):
    """Enroll every class of a manifest, fit, save; returns (gallery, bundles)."""
    manifest = ev.read_manifest(manifest_path)
    gallery_map, _ = ev.ingest(manifest)
    gallery = gl.Gallery()
    for label, bundles in gallery_map.items():
        gallery = gallery.enroll(label, bundles)
    gallery = gallery.fit()
    gallery.save(snapshot)
    return gallery, gallery_map


def probe_request(label: str, rows: dict, root: Path, gallery):
    """One exit observation from its files to a rendered report."""
    extracted = {
        cid: ft.extract_bundle(ev.load_sample(rows[cid], root)) for cid in sorted(rows)
    }
    bundle = ft.fuse_bundles(extracted, label=label)
    report = mt.match_probe(bundle, gallery)
    return bundle, report, report.to_text()


def churn_round(snapshot: Path, waiting: deque, bundles: dict, probes: dict, k: int):
    """One round; returns (loaded, saved, [(probe, report, text), ...]).

    Mutates ``waiting``: the k arrivals leave its front and the k
    retired subjects join its back.
    """
    loaded = gl.Gallery.load(snapshot)
    leaving = loaded.labels[:k]
    matched = []
    for label in leaving:
        for probe in probes[label]:
            report = mt.match_probe(probe, loaded)
            matched.append((probe, report, report.to_text()))
    gallery = loaded
    for label in leaving:
        gallery = gallery.retire(label)
    for _ in range(k):
        label = waiting.popleft()
        gallery = gallery.enroll(label, bundles[label])
    gallery = gallery.fit()
    gallery.save(snapshot)
    waiting.extend(leaving)
    return loaded, gallery, matched


def probe_order(ds: Dataset, seed: int) -> list[tuple[str, int]]:
    """Seeded order of every subject's probe observations."""
    keys = [(label, i) for label in ds.labels for i in range(len(ds.probe_rows[label]))]
    random.Random(seed).shuffle(keys)
    return keys
