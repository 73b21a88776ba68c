"""Deterministic search order for integer coefficient vectors.

The witness-search oracle okmodules.witnesses scans a coefficient box
outward shell by shell in this order.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator


def shells(dim: int, max_norm: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors with max-norm <= max_norm, by increasing max-norm.

    Within one shell the order is lexicographic, so the overall order is
    total and reproducible.
    """
    yield (0,) * dim
    for radius in range(1, max_norm + 1):
        for vec in product(range(-radius, radius + 1), repeat=dim):
            if max(abs(c) for c in vec) == radius:
                yield vec
