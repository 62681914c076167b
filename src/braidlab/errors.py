"""Shared exceptions, the dense-size guard, the held-entries rule, the
sparse-state bound and the q-range rule."""

import os
import sys
from math import isfinite

DEFAULT_MAX_DIM = 4096
MAX_SPARSE_WORDS = 10 ** 6
FLOAT_MAX = sys.float_info.max  # the q rule's limit (check_q)
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


def check_q(q, low, high, terms: int = 1, positive: bool = False) -> None:
    """The one q rule of every public call that takes q: refuse q outside
    its domain, nonzero and finite (with positive, as for the chain and the
    q-Dicke states, positive and finite), or so far from 1 that a power of
    q the call forms overflows.

    low <= 0 <= high are the least and the greatest power of q the call
    forms from its sizes, and terms the number of such powers it sums (or
    multiplies out of sums): q is refused when terms |q|^high (|q| > 1) or
    terms |q|^low (|q| < 1) passes the largest float.  Every power of q the
    call forms is then finite, so no interior site handles an overflow; an
    operator applied over and over (ladders over rungs, word sums,
    commutators) can still overflow its result."""
    if not isfinite(q) or (q <= 0 if positive else q == 0):
        raise ValidationError(f"q must be {'positive' if positive else 'nonzero'} and finite")
    size = abs(float(q))
    power = high if size >= 1 else low
    try:
        if terms * size ** power <= FLOAT_MAX:
            return
    except OverflowError:       # the float power, or a count past the float range
        pass
    count = f"{terms} x " if terms > 1 else ""
    raise ValidationError(f"q = {float(q)!r} is too {'large' if size >= 1 else 'small'}: "
                          f"{count}q^{power:g} overflows")
