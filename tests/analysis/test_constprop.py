"""On-demand constant propagation for Message fields (§5)."""

from repro.analysis.constprop import constant_message_fields
from repro.android.framework import install_framework
from repro.ir.builder import ProgramBuilder


def sender(emit):
    pb = ProgramBuilder()
    install_framework(pb.program)
    mb = pb.new_class("t.C").method("send")
    send_site = emit(mb)
    mb.ret()
    return mb.method, send_site


class TestMessageConstants:
    def test_direct_constant_store(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            mb.call_static("android.os.Message.obtain", dst="msg")
            mb.store("msg", "what", 3)
            return mb.call("h", "sendMessage", "msg")

        method, site = sender(emit)
        assert constant_message_fields(method, site) == {"what": 3}

    def test_constant_through_register(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            mb.call_static("android.os.Message.obtain", dst="msg")
            mb.const("w", 7)
            mb.store("msg", "what", "w")
            return mb.call("h", "sendMessage", "msg")

        method, site = sender(emit)
        assert constant_message_fields(method, site) == {"what": 7}

    def test_conflicting_stores_not_constant(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            mb.call_static("android.os.Message.obtain", dst="msg")
            mb.store("msg", "what", 1)
            mb.store("msg", "what", 2)
            return mb.call("h", "sendMessage", "msg")

        method, site = sender(emit)
        assert "what" not in constant_message_fields(method, site)

    def test_alias_tracked(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            mb.call_static("android.os.Message.obtain", dst="msg")
            mb.move("alias", "msg")
            mb.store("alias", "what", 9)
            return mb.call("h", "sendMessage", "msg")

        method, site = sender(emit)
        assert constant_message_fields(method, site) == {"what": 9}

    def test_send_empty_message(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            return mb.call("h", "sendEmptyMessage", 4)

        method, site = sender(emit)
        assert constant_message_fields(method, site) == {"what": 4}

    def test_non_constant_source_ignored(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            mb.call_static("android.os.Message.obtain", dst="msg")
            mb.call_static("$nondet$", dst="w")
            mb.store("msg", "what", "w")
            return mb.call("h", "sendMessage", "msg")

        method, site = sender(emit)
        assert constant_message_fields(method, site) == {}

    def test_stores_to_other_objects_ignored(self):
        def emit(mb):
            mb.new("h", "android.os.Handler")
            mb.call_static("android.os.Message.obtain", dst="msg")
            mb.call_static("android.os.Message.obtain", dst="other")
            mb.store("other", "what", 5)
            mb.store("msg", "what", 1)
            return mb.call("h", "sendMessage", "msg")

        method, site = sender(emit)
        assert constant_message_fields(method, site) == {"what": 1}
