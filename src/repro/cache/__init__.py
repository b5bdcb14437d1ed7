"""Shared embedding-cache machinery (serving + training).

* :mod:`repro.cache.lru` — the degree-aware LRU row cache the serving
  layer queries per vertex;
* :mod:`repro.cache.policy` — bounded-staleness / byte-budget policy;
* :mod:`repro.cache.training` — the training-time remote-tile cache
  that intercepts the staged broadcast SpMM (CaPGNN-style).
"""

from repro.cache.lru import CacheStats, EmbeddingCache, pin_by_degree
from repro.cache.policy import CachePolicy
from repro.cache.training import (
    REFRESH,
    SERVE,
    CacheEpochCounters,
    TrainingTileCache,
)

__all__ = [
    "CachePolicy",
    "CacheStats",
    "CacheEpochCounters",
    "EmbeddingCache",
    "REFRESH",
    "SERVE",
    "TrainingTileCache",
    "pin_by_degree",
]
