"""Shared exceptions, the dense-size guard, the held-entries rule, the
sparse-state bound and the check on q."""

import os
from math import isfinite

DEFAULT_MAX_DIM = 4096
MAX_SPARSE_WORDS = 10 ** 6
# dense matrices held at once: their entries <= this * max_dense_dim()^2
HELD_BLOCKS_MULTIPLE = 3


class BraidlabError(Exception):
    """Base class for all braidlab errors."""


class ValidationError(BraidlabError):
    """Bad input: malformed tables, out-of-range indices, broken invariants."""


class SizeGuardError(BraidlabError):
    """Requested computation exceeds the configured size guard."""


def max_dense_dim() -> int:
    """Dense-solver dimension cap; BRAIDLAB_MAX_DIM overrides the default."""
    raw = os.environ.get("BRAIDLAB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"BRAIDLAB_MAX_DIM must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError("BRAIDLAB_MAX_DIM must be positive")
    return value


def check_dense_dim(dim: int, context: str) -> None:
    limit = max_dense_dim()
    if dim > limit:
        raise SizeGuardError(f"{context}: dimension {dim} exceeds guard {limit} "
                             f"(set BRAIDLAB_MAX_DIM to raise it)")


def check_held_entries(entries: int, context: str) -> None:
    """Refuse dense matrices held at once whose entries, summed, pass
    HELD_BLOCKS_MULTIPLE = 3 times max_dense_dim()^2: 384 MiB of float64 at
    the default 4096.  check_dense_dim bounds each matrix's order; this
    bounds their number as well, and is checked before any is allocated."""
    limit = max_dense_dim()
    if entries > HELD_BLOCKS_MULTIPLE * limit ** 2:
        raise SizeGuardError(
            f"{context} hold {entries} entries ({entries * 8 / 2 ** 20:.0f} MiB), past the "
            f"guard {HELD_BLOCKS_MULTIPLE} x {limit}^2 (set BRAIDLAB_MAX_DIM to raise it)")


def check_sparse_words(count: int, context: str) -> None:
    """Refuse a sparse computation whose states would hold more than
    MAX_SPARSE_WORDS words."""
    if count > MAX_SPARSE_WORDS:
        raise SizeGuardError(f"{context}: {count} words exceed the sparse-state "
                             f"bound {MAX_SPARSE_WORDS}")


def _check_q(q) -> None:
    """Refuse q = 0 and non-finite q, where the Hecke and ladder operators
    divide by zero or lose words and amplitudes to inf and NaN."""
    if q == 0 or not isfinite(q):
        raise ValidationError("q must be nonzero and finite")
