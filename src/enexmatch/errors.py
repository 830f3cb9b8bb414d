"""Exception types raised by the matching pipeline.

Every domain failure maps to a distinct class so callers can react to
specific conditions instead of parsing messages.
"""


class EnexError(Exception):
    """Base class for all library errors."""


class ImageFormatError(EnexError):
    """Image file has a bad magic number, header, or maxval."""


class ImagePayloadError(EnexError):
    """Pixel payload does not match the declared dimensions."""


class DimensionOverflowError(EnexError):
    """Declared image dimensions exceed the supported pixel budget."""


class DegenerateImageError(EnexError):
    """Image is too small to split into head, torso, and leg bands."""


class FeatureUnavailableError(EnexError):
    """A feature cannot be computed from the given observation."""


class DimensionMismatchError(EnexError):
    """Vectors that must share a dimension do not."""


class NonFiniteInputError(EnexError):
    """Input contains NaN or infinity."""


class DegenerateProblemError(EnexError):
    """Statistical fit requested with too few classes."""


class EmptyGalleryError(EnexError):
    """Operation requires at least one enrolled class."""


class DuplicateLabelError(EnexError):
    """Label is already enrolled."""


class UnknownLabelError(EnexError):
    """Label is not enrolled."""


class UnfittedGalleryError(EnexError):
    """Matching requested before the gallery was fitted."""


class NoUsableFeatureError(EnexError):
    """Probe and gallery share no feature that can be ranked."""


class SnapshotFormatError(EnexError):
    """Snapshot has an unknown magic or structural damage."""


class SnapshotChecksumError(EnexError):
    """Snapshot checksum does not match its payload."""


class SnapshotTruncatedError(EnexError):
    """Snapshot ends before the declared payload length."""


class ManifestError(EnexError):
    """Dataset manifest is malformed or references missing files."""


class ExtractionWorkerError(EnexError):
    """A worker process extracting observations ended without a result."""
