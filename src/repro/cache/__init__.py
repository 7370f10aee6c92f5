"""Persistent substrate cache + cross-run incremental analysis.

Enabled with ``--cache <dir>`` (or the ``REPRO_CACHE`` environment
variable) on every command that runs the pipeline (``analyze``,
``corpus-analyze``, ``serve``, ...). See
``docs/performance.md`` ("Persistent substrate cache") for the key scheme,
the invalidation story, and measured cold/warm numbers.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional

#: environment variable naming the default cache directory
CACHE_ENV = "REPRO_CACHE"

#: the on-disk store and what builds on it load on first access
#: (module-level ``__getattr__``): a run without ``--cache`` needs none
_LAZY_NAMES = {
    "CACHE_VERSION": "store",
    "SubstrateStore": "store",
    "corrupt_store_for_testing": "store",
    "SubstrateCache": "substrate",
    "CacheOutcome": "substrate",
    "RefutationMemo": "memo",
}

__all__ = [
    "CACHE_ENV",
    "CACHE_VERSION",
    "CacheOutcome",
    "RefutationMemo",
    "SubstrateCache",
    "SubstrateStore",
    "cache_dir_from_env",
    "corrupt_store_for_testing",
]


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        module = importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cache_dir_from_env(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the cache directory: explicit flag wins, then $REPRO_CACHE,
    then None (caching disabled)."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_ENV) or None
