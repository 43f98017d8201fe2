"""Memory-hierarchy substrate: caches, replacement policies, main memory."""

from repro.mem.cache import (
    FILL_ALLOCATE,
    FILL_BYPASS,
    FILL_DISTANT,
    CacheLine,
    CacheListener,
    SetAssocCache,
)
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.mainmem import MainMemory
from repro.mem.replacement import (
    LruPolicy,
    ReplacementPolicy,
    SrripPolicy,
    make_policy,
)

__all__ = [
    "FILL_ALLOCATE",
    "FILL_BYPASS",
    "FILL_DISTANT",
    "CacheLine",
    "CacheListener",
    "SetAssocCache",
    "CacheHierarchy",
    "MainMemory",
    "LruPolicy",
    "ReplacementPolicy",
    "SrripPolicy",
    "make_policy",
]
