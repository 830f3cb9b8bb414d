"""Spans recorded around the library's public functions, from outside it.

The traced run replaces each public function at every module attribute
the library calls it through (``enexmatch.gallery.project`` as well as
``enexmatch.matching.project``), and each public method on its class, by
a wrapper that records a span: name, start, end, parent span and the id
of the operation (probe request, enroll job, churn round) it belongs to.
Spans stay in memory until the run writes them out.

Functions called once per class or per sample (``rank_of``, ``project``,
``collective_confidence``) would add a span per call, millions in a
run; their calls and time are folded into the enclosing span instead,
so the number of spans stays bounded while self times remain exact.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import enexmatch  # noqa: F401  (loads every submodule before wrapping)

# (span name, owning module, attribute, class name or None, folded).
# Span names are <layer>.<function>; the layer is the library module.
TARGETS: tuple[tuple[str, str, str, str | None, bool], ...] = (
    ("imaging.load_image", "imaging", "load_image", None, False),
    ("imaging.load_mask", "imaging", "load_mask", None, False),
    ("imaging.normalize_size", "imaging", "normalize_size", None, False),
    ("imaging.rgb_to_ycbcr", "imaging", "rgb_to_ycbcr", None, False),
    ("features.extract_bundle", "features", "extract_bundle", None, False),
    ("features.clothing_histogram", "features", "clothing_histogram", None, False),
    ("features.complexion", "features", "complexion", None, False),
    ("features.build_ratio", "features", "build_ratio", None, False),
    ("features.fuse_bundles", "features", "fuse_bundles", None, False),
    ("evaluation.read_manifest", "evaluation", "read_manifest", None, False),
    ("evaluation.ingest", "evaluation", "ingest", None, False),
    ("evaluation.load_sample", "evaluation", "load_sample", None, False),
    ("discriminant.scatter_statistics", "discriminant", "scatter_statistics", None, False),
    ("discriminant.fit_transform", "discriminant", "fit_transform", None, False),
    ("discriminant.project", "discriminant", "project", None, True),
    ("gallery.enroll", "gallery", "enroll", "Gallery", False),
    ("gallery.retire", "gallery", "retire", "Gallery", False),
    ("gallery.fit", "gallery", "fit", "Gallery", False),
    ("gallery.save", "gallery", "save", "Gallery", False),
    ("gallery.load", "gallery", "load", "Gallery", False),
    ("matching.match_probe", "matching", "match_probe", None, False),
    ("matching.rank_feature", "matching", "rank_feature", None, False),
    ("matching.rank_of", "matching", "rank_of", "PerFeatureRanking", True),
    ("matching.collective_confidence", "matching", "collective_confidence", None, True),
    ("matching.to_text", "matching", "to_text", "MatchReport", False),
)


@dataclass
class Span:
    name: str
    op: str | None
    parent: int
    start: float
    end: float = 0.0
    child: float = 0.0
    folded: dict[str, list] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: str | None = None
        self._paused = False
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def _fold(self, name: str, seconds: float) -> None:
        # Traced calls all happen inside an operation's root span.
        span = self.spans[self._stack[-1]]
        span.child += seconds
        total = span.folded.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += seconds

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def operation(self, kind: str, index: int) -> Iterator[None]:
        """Root span ``bench.<kind>`` of one operation, id ``<kind>:<index>``.

        Every span opened inside shares the id.
        """
        previous = self._op
        self._op = f"{kind}:{index}"
        span = self._open(f"bench.{kind}")
        try:
            yield
        finally:
            self._close(span)
            self._op = previous

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Let wrapped calls through unrecorded, e.g. while checking results."""
        previous = self._paused
        self._paused = True
        try:
            yield
        finally:
            self._paused = previous

    def wrap(self, name: str, fn: Callable, folded: bool) -> Callable:
        if folded:

            def wrapper(*args, **kwargs):
                if self._paused:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._fold(name, time.perf_counter() - start)

        else:

            def wrapper(*args, **kwargs):
                if self._paused:
                    return fn(*args, **kwargs)
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                observe = _OBSERVERS.get(name)
                if observe is not None:
                    observe(self, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding the library holds."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "enexmatch" or key.startswith("enexmatch."))
        ]
        for name, module_name, attr, class_name, folded in TARGETS:
            home = sys.modules[f"enexmatch.{module_name}"]
            if class_name is not None:
                cls = getattr(home, class_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, folded))
                else:
                    replacement = self.wrap(name, original, folded)
                self._installed.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, folded)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of install."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += span.end - span.start
            row["self_s"] += span.end - span.start - span.child
            for name, (calls, seconds) in span.folded.items():
                row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["s"] += seconds
                row["self_s"] += seconds
        return out

    def layer_shares(self, kind: str) -> dict[str, float]:
        """Share of the time of ``kind`` operations spent in each layer.

        A layer's share is the self time of its spans, plus the calls
        folded into spans, over the operations' total time. The root
        spans' own self time is benchmark glue, reported as ``bench``.
        """
        shares: dict[str, float] = {}
        total = 0.0
        for span in self.spans:
            if span.op is None or span.op.split(":", 1)[0] != kind:
                continue
            if span.parent < 0:
                total += span.end - span.start
            layer = span.name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + span.end - span.start - span.child
            for name, (_, seconds) in span.folded.items():
                fold_layer = name.split(".", 1)[0]
                shares[fold_layer] = shares.get(fold_layer, 0.0) + seconds
        return {k: v / total for k, v in sorted(shares.items())} if total else {}

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self": s.end - s.start - s.child,
                            "folded": s.folded,
                        }
                    )
                    + "\n"
                )
        os.replace(tmp, path)


def _observe_complexion(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("features.complexion.valid", 1.0 if result.valid else 0.0)


def _observe_match(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("matching.traits_used", len(result.features_used))


def _observe_save(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("gallery.snapshot_bytes", os.path.getsize(args[1]))


_OBSERVERS = {
    "features.complexion": _observe_complexion,
    "matching.match_probe": _observe_match,
    "gallery.save": _observe_save,
}
