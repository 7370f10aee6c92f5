"""Identifier helpers: Java-style qualified member names."""

from __future__ import annotations


def qualified_name(class_name: str, member: str) -> str:
    """Java-style ``pkg.Class.member`` qualified name."""
    return f"{class_name}.{member}"
