"""Name helpers."""

from repro.util.ids import qualified_name


def test_qualified_name():
    assert qualified_name("a.b.C", "run") == "a.b.C.run"
