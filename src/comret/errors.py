"""Exception hierarchy shared across the package.

Every error raised on a user-facing path derives from ComretError so the
CLI can map any failure to a nonzero exit with a one-line message. Every
one of them pickles, so it can cross a process boundary intact.
"""

from __future__ import annotations

from collections.abc import Iterable


def _rebuild(cls: type[ComretError], args: tuple) -> ComretError:
    """An instance of ``cls`` holding ``args``, made without ``cls.__init__``."""
    return cls.__new__(cls, *args)


class ComretError(Exception):
    """Base class for all comret errors."""

    def __reduce__(self):
        # Exception's own reduce calls type(self)(*self.args), which a
        # subclass __init__ that builds its message from other arguments
        # rejects or wraps a second time.
        return _rebuild, (type(self), self.args), self.__dict__


class MalformedLine(ComretError):
    """A line of an input file could not be parsed."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DimMismatch(ComretError):
    """Vector dimensions disagree (within a file, or query vs index)."""

    def __init__(self, expected: int, got: int, where: str = ""):
        prefix = f"{where}: " if where else ""
        super().__init__(f"{prefix}expected dim {expected}, got {got}")
        self.expected = expected
        self.got = got


class NonFiniteValue(ComretError):
    """An embedding contains NaN or infinity."""

    def __init__(self, where: str):
        super().__init__(f"non-finite value in {where}")
        self.where = where


class DuplicateId(ComretError):
    """The same id occurs twice where ids must be unique."""

    def __init__(self, dup_id: str):
        super().__init__(f"duplicate id {dup_id!r}")
        self.dup_id = dup_id


class IdSetMismatch(ComretError):
    """Image and text embedding files do not cover the same id set."""

    def __init__(self, missing_ids: Iterable[str]):
        self.missing_ids = sorted(missing_ids)
        shown = ", ".join(self.missing_ids[:5])
        more = "" if len(self.missing_ids) <= 5 else f" (+{len(self.missing_ids) - 5} more)"
        super().__init__(f"ids present on one side only: {shown}{more}")


class ZeroVectorOnNormalize(ComretError):
    """L2 normalization requested for an all-zero row."""

    def __init__(self, row_id: str):
        super().__init__(f"cannot L2-normalize zero vector for id {row_id!r}")
        self.row_id = row_id


class BadMagic(ComretError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersion(ComretError):
    """File carries a format version this build cannot read."""

    def __init__(self, version: int):
        super().__init__(f"unsupported format version {version}")
        self.version = version


class TruncatedFile(ComretError):
    """File ended before the declared payload was complete."""


class LengthMismatch(ComretError):
    """Two score sequences that must align have different lengths."""

    def __init__(self, left: int, right: int):
        super().__init__(f"score lengths differ: {left} vs {right}")


class MissingChannel(ComretError):
    """The fusion mode requires a query channel that is absent."""

    def __init__(self, mode: str, channel: str):
        super().__init__(f"mode {mode!r} requires query channel {channel!r}")
        self.mode = mode
        self.channel = channel


class EmptyGold(ComretError):
    """A query has no relevant pages; metrics are undefined."""


class UnknownQueryInRun(ComretError):
    """A run file references a query that is not in the qrels."""

    def __init__(self, query_id: str):
        super().__init__(f"run contains query {query_id!r} absent from qrels")
        self.query_id = query_id


class MalformedRunLine(ComretError):
    """A run-file line does not match the expected TSV layout."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"run line {line_no}: {reason}")
        self.line_no = line_no


class UnknownMetric(ComretError):
    """Metric spec string is not one of the supported metrics."""

    def __init__(self, spec: str):
        super().__init__(f"unknown metric spec {spec!r}")
        self.spec = spec


class BadRange(ComretError):
    """Histogram bin count or value range is invalid."""


class BinMismatch(ComretError):
    """KL divergence requested for histograms with different bins."""


class EmptyInput(ComretError):
    """An operation requiring at least one value received none."""
