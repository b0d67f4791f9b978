"""The package's one error type.

Every failure on a user-facing path raises ComretError with a one-line
message, which the CLI prints as ``error: ...`` before exiting 1. It
pickles as a plain Exception, so it crosses ingest's process boundary
intact.
"""


class ComretError(Exception):
    """A comret failure; its message says what went wrong."""
