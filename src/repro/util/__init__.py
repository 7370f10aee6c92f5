"""Shared utilities: graph primitives, deterministic identifiers and RNG.

These helpers are deliberately dependency-free so every layer of the
reproduction (IR, analyses, SHBG, corpus generator) can build on them.
"""

from repro.util.graph import Digraph
from repro.util.ids import qualified_name

__all__ = [
    "Digraph",
    "qualified_name",
]
