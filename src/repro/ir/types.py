"""The IR's small type system.

Real SIERRA analyzes Dalvik bytecode, whose type system we reduce to the
pieces the analyses actually consult: primitives (for the symbolic executor's
constant reasoning and EventRacer's "race coverage" filter, which only
understands primitive guards), class types (for dispatch and points-to), and
arrays (handled index-insensitively, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass


class Type:
    """Base class for IR types."""

    def is_reference(self) -> bool:
        return isinstance(self, (ClassType, ArrayType))


@dataclass(frozen=True)
class PrimitiveType(Type):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassType(Type):
    class_name: str

    def __repr__(self) -> str:
        return self.class_name


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type

    def __repr__(self) -> str:
        return f"{self.element!r}[]"


INT = PrimitiveType("int")
LONG = PrimitiveType("long")
BOOL = PrimitiveType("boolean")
FLOAT = PrimitiveType("float")
VOID = PrimitiveType("void")

STRING = ClassType("java.lang.String")
OBJECT = ClassType("java.lang.Object")


def class_type(name: str) -> ClassType:
    """Intern-style helper so call sites read ``class_type("a.b.C")``."""
    return ClassType(name)
