"""Command line front end.

One binary, four subcommands:

  generate   write a synthetic dataset and its manifest
  enroll     extract gallery features from a manifest into a snapshot
  match      rank enrolled subjects against probe observations
  evaluate   run the closed-set protocol and print a matching-rate table

Exit codes: 0 success, 1 runtime failure, 2 usage error. Reports go to
stdout, diagnostics to stderr. The snapshot path can also come from the
ENEXMATCH_SNAPSHOT environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .errors import DuplicateLabelError, EnexError, ManifestError
from .evaluation import (
    SyntheticConfig,
    cmc_csv,
    emit_report,
    evaluate,
    gallery_bundles,
    generate_synthetic,
    ingest,
    probe_bundles,
    read_manifest,
)
from .features import FEATURE_IDS, SubjectSample, extract_bundle
from .gallery import Gallery
from .imaging import load_image, load_mask
from .matching import match_probe

EXIT_SUCCESS = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SNAPSHOT_ENV = "ENEXMATCH_SNAPSHOT"

# The options of `generate` after --subjects, in --help order: each sets the
# SyntheticConfig field it names and takes that field's default.
_GENERATE_OPTIONS = (
    ("--samples", "samples_per_subject", "gallery samples per subject"),
    (
        "--metric-samples",
        "metric_samples",
        "gallery samples per subject that carry box metrics and a mask",
    ),
    ("--probes", "probes_per_subject", "probe images per subject"),
    ("--clothing-change", "clothing_change_prob", "probability a probe wears new clothing colors"),
    ("--back-view", "back_view_prob", "probability a probe faces away from the camera"),
    ("--pixel-noise", "pixel_noise", "per-pixel noise sigma"),
    ("--height-noise", "height_noise", "box height noise sigma"),
    ("--build-noise", "build_noise", "torso width noise sigma"),
    ("--chroma-noise", "chroma_noise", "per-frame chroma jitter sigma"),
    ("--cameras", "cameras", "cameras per observation, 1 or 2"),
    ("--image-height", "image_height", "rendered frame height"),
    ("--image-width", "image_width", "rendered frame width"),
    ("--seed", "seed", "random seed"),
)


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        fields = {name: getattr(args, name) for _, name, _ in _GENERATE_OPTIONS}
        config = SyntheticConfig(subjects=args.subjects, **fields)
    except ValueError as exc:
        return _usage(str(exc))
    manifest = generate_synthetic(config, args.out)
    gallery_rows = sum(1 for e in manifest.entries if e.role == "gallery")
    probe_rows = len(manifest.entries) - gallery_rows
    print(
        f"wrote {config.subjects} subjects to {args.out}: "
        f"{gallery_rows} gallery rows, {probe_rows} probe rows, seed {config.seed}"
    )
    return EXIT_SUCCESS


def cmd_enroll(args: argparse.Namespace) -> int:
    if not args.snapshot:
        return _usage(f"snapshot path required (--snapshot or {SNAPSHOT_ENV})")
    snapshot = Path(args.snapshot)
    manifest = read_manifest(args.manifest)
    labels = [e.label for e in manifest.entries if e.role == "gallery"]
    if not labels:
        raise ManifestError("manifest has no gallery rows")
    # A bad snapshot or an enrolled label fails before any image is decoded.
    gallery = Gallery.load(snapshot) if snapshot.exists() else Gallery()
    enrolled = set(gallery.labels)
    held = next((label for label in labels if label in enrolled), None)
    if held is not None:
        raise DuplicateLabelError(f"label {held!r} is already enrolled")
    gallery_map = gallery_bundles(manifest)
    for label, bundles in gallery_map.items():
        gallery = gallery.enroll(label, bundles)
    gallery = gallery.fit()
    gallery.save(snapshot)
    print(
        f"enrolled {len(gallery_map)} classes (gallery now holds {gallery.n}), "
        f"fitted on features: {', '.join(gallery.covered_features()) or 'none'}, "
        f"saved to {snapshot}"
    )
    return EXIT_SUCCESS


def _single_probe(args: argparse.Namespace):
    image = load_image(args.image)
    mask = load_mask(args.mask) if args.mask else None
    sample = SubjectSample(
        image=image,
        mask=mask,
        bbox_height=args.bbox_height,
        entrance_ref_height=args.entrance_ref,
    )
    return [extract_bundle(sample)]


def cmd_match(args: argparse.Namespace) -> int:
    if not args.snapshot:
        return _usage(f"snapshot path required (--snapshot or {SNAPSHOT_ENV})")
    snapshot = Path(args.snapshot)
    if (args.manifest is None) == (args.image is None):
        return _usage("give exactly one probe source: --manifest or --image")
    if args.top < 1:
        return _usage("--top must be at least 1")
    gallery = Gallery.load(snapshot)
    if args.manifest is not None:
        probes = probe_bundles(args.manifest)
        if not probes:
            raise ManifestError("manifest has no probe rows")
    else:
        try:
            probes = _single_probe(args)
        except ValueError as exc:
            return _usage(str(exc))
    blocks = []
    for index, probe in enumerate(probes):
        report = match_probe(probe, gallery)
        shown = report.ranking[: args.top]
        summary = ", ".join(
            f"{label} ({report.collective[label]:.3f})" for label in shown
        )
        name = report.probe_id if report.probe_id else f"#{index + 1}"
        blocks.append(f"top-{len(shown)} for probe {name}: {summary}\n" + report.to_text())
    print("\n".join(blocks), end="")
    return EXIT_SUCCESS


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        ks = tuple(int(tok) for tok in args.ranks.split(","))
    except ValueError:
        return _usage("--ranks must be comma-separated integers")
    if not ks or any(k < 1 for k in ks):
        return _usage("--ranks must be positive")
    features = None
    if args.features is not None:
        features = tuple(tok for tok in args.features.split(",") if tok)
        if not features:
            return _usage("--features names no trait")
        unknown = set(features) - set(FEATURE_IDS)
        if unknown:
            return _usage(f"unknown features: {', '.join(sorted(unknown))}")
    manifest = read_manifest(args.manifest)
    # A manifest without probes fails before any image is decoded.
    if not any(e.role == "probe" for e in manifest.entries):
        raise ManifestError("manifest has no probe rows")
    gallery_map, probes = ingest(manifest)
    curve = evaluate(gallery_map, probes, features=features)
    name = ",".join(features) if features else "all-features"
    print(emit_report([(name, {k: curve.accuracy(k) for k in ks})], ks), end="")
    if args.cmc_csv:
        Path(args.cmc_csv).write_text(cmc_csv(curve), encoding="utf-8")
    print(
        f"evaluated {len(probes)} probes against {len(curve.accuracies)} classes",
        file=sys.stderr,
    )
    return EXIT_SUCCESS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enexmatch",
        description="Match exiting subjects to enrolled entries using "
        "clothing color, height, body build, and skin complexion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    # Options that several subcommands share.
    snapshot_opt = argparse.ArgumentParser(add_help=False)
    snapshot_opt.add_argument(
        "--snapshot",
        default=os.environ.get(SNAPSHOT_ENV),
        help=f"snapshot file (default: ${SNAPSHOT_ENV})",
    )

    p = sub.add_parser("generate", help="write a synthetic dataset", formatter_class=fmt)
    p.add_argument("--subjects", type=int, required=True, help="number of subjects")
    synthetic = {f.name: f.default for f in dataclasses.fields(SyntheticConfig)}
    for option, name, text in _GENERATE_OPTIONS:
        p.add_argument(
            option,
            dest=name,
            metavar=option[2:].replace("-", "_").upper(),
            type=type(synthetic[name]),
            default=synthetic[name],
            help=text,
        )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "enroll",
        help="extract gallery features into a snapshot",
        formatter_class=fmt,
        parents=[snapshot_opt],
    )
    p.add_argument("--manifest", required=True, help="dataset manifest CSV")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser(
        "match",
        help="rank enrolled subjects for probes",
        formatter_class=fmt,
        parents=[snapshot_opt],
    )
    p.add_argument("--manifest", default=None, help="manifest whose probe rows are matched")
    p.add_argument("--image", default=None, help="single probe image (P6)")
    p.add_argument("--mask", default=None, help="silhouette mask for the probe (P5)")
    p.add_argument("--bbox-height", type=int, default=None, help="probe box height, pixels")
    p.add_argument("--entrance-ref", type=int, default=None, help="entrance reference height")
    p.add_argument("--top", type=int, default=3, help="candidates in the summary line")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser(
        "evaluate",
        help="closed-set protocol with a matching-rate table",
        formatter_class=fmt,
    )
    p.add_argument("--manifest", required=True, help="dataset manifest CSV")
    p.add_argument("--ranks", default="1,5,10", help="comma-separated ranks to tabulate")
    p.add_argument(
        "--features",
        default=None,
        help="comma-separated feature subset (default: all four)",
    )
    p.add_argument("--cmc-csv", default=None, help="also write the full curve to this CSV")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_SUCCESS
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (EnexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
