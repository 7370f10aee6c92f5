"""On-demand constant propagation (§5, "On-demand constant propagation").

When the racing action is a ``Handler.handleMessage(Message m)``, behaviour
usually branches on ``m.what``. SIERRA propagates constants from the message
creation site (the ``sendMessage`` call) so the backward symbolic executor
can seed its query with ``what == c`` constraints.

We implement the intra-procedural version the paper describes: starting from
the send site, walk the sender method backwards collecting constant stores
into the sent message's fields. A field is reported only when every store
seen assigns the *same* constant — otherwise it is not a constant and no
constraint is added (sound for refutation)."""

from __future__ import annotations

from typing import Dict, Optional, Set, Union

from repro.ir.instructions import (
    Assign,
    Const,
    FieldStore,
    Instruction,
    Invoke,
    Var,
)
from repro.ir.program import Method

ConstValue = Union[int, bool, str, None]


def _aliases_of(method: Method, upto: int, seed: str) -> Set[str]:
    """Registers that definitely alias ``seed`` at instruction ``upto``
    (flow-insensitive over the prefix — conservative but cheap)."""
    aliases = {seed}
    changed = True
    while changed:
        changed = False
        for instr in method.body[:upto]:
            if isinstance(instr, Assign) and isinstance(instr.src, Var):
                if instr.src.name in aliases and instr.dst.name not in aliases:
                    aliases.add(instr.dst.name)
                    changed = True
                if instr.dst.name in aliases and instr.src.name not in aliases:
                    aliases.add(instr.src.name)
                    changed = True
    return aliases


def constant_message_fields(method: Method, send_site: Invoke) -> Dict[str, ConstValue]:
    """Constant fields of the message sent at ``send_site`` in ``method``.

    Returns e.g. ``{"what": 3}`` for::

        msg = handler.obtainMessage()
        msg.what = 3
        handler.sendMessage(msg)
    """
    if not send_site.args:
        return {}
    arg = send_site.args[0]
    if not isinstance(arg, Var):
        # sendEmptyMessage(what-const) style
        if isinstance(arg, Const) and isinstance(arg.value, int):
            return {"what": arg.value}
        return {}

    try:
        site_index = next(i for i, x in enumerate(method.body) if x is send_site)
    except StopIteration:
        return {}

    aliases = _aliases_of(method, site_index, arg.name)
    # registers holding constants (last-write wins along the straight prefix)
    consts: Dict[str, ConstValue] = {}
    stores: Dict[str, Set[ConstValue]] = {}
    for instr in method.body[:site_index]:
        if isinstance(instr, Assign):
            if isinstance(instr.src, Const):
                consts[instr.dst.name] = instr.src.value
            else:
                consts.pop(instr.dst.name, None)
        elif isinstance(instr, FieldStore) and instr.obj.name in aliases:
            if isinstance(instr.src, Const):
                value: Optional[ConstValue] = instr.src.value
            elif isinstance(instr.src, Var) and instr.src.name in consts:
                value = consts[instr.src.name]
            else:
                value = _NOT_CONST
            stores.setdefault(instr.field_name, set()).add(value)

    result: Dict[str, ConstValue] = {}
    for field_name, values in stores.items():
        if len(values) == 1:
            (value,) = values
            if value is not _NOT_CONST:
                result[field_name] = value
    return result


class _NotConst:
    def __repr__(self) -> str:
        return "<not-const>"


_NOT_CONST = _NotConst()
