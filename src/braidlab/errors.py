"""Shared exceptions, the dense-size guard and the sparse-state bound."""

import os

DEFAULT_MAX_DIM = 4096
MAX_SPARSE_WORDS = 10 ** 6


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


def check_sparse_words(count: int, context: str) -> None:
    """Refuse a sparse computation whose states would hold more than
    MAX_SPARSE_WORDS words."""
    if count > MAX_SPARSE_WORDS:
        raise SizeGuardError(f"{context}: {count} words exceed the sparse-state "
                             f"bound {MAX_SPARSE_WORDS}")
