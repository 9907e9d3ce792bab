"""Only the congestion package writes a controller's flow table.

Every table event goes through :class:`~repro.congestion.controller.RateController`
(``on_flow_started`` / ``on_flow_learned`` / ``on_flow_finished`` /
``on_demand_update`` / ``on_protocol_update``, or ``on_broadcast`` and the
journal it settles at the next read), so no caller can add a flow without
the recompute ρ = 0 owes it.  This static guard walks ``src/repro``
and fails on any module outside ``repro/congestion/`` that calls a table
mutator on a ``.table`` attribute or on a ``_tables[...]`` subscript.
"""

import ast
from pathlib import Path

import repro

_SRC = Path(repro.__file__).parent
_MUTATORS = {"add", "remove", "update_demand", "update_protocol"}


def _is_flow_table(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "table"
    if isinstance(node, ast.Subscript):
        value = node.value
        name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", "")
        return name == "_tables"
    return False


def table_writes(source: str):
    """``(line, call)`` for every flow-table mutation in *source*."""
    return [
        (node.lineno, ast.unparse(node.func))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
        and _is_flow_table(node.func.value)
    ]


def test_guard_sees_direct_writes():
    source = (
        "self.controller.table.add(spec)\n"
        "self._tables[node].remove(flow_id)\n"
        "controller.table.update_demand(flow_id, 1e9)\n"
        "self.controller.on_flow_learned(spec, now)\n"
        "self._table.add(spec)\n"
        "seen.add(node)\n"
    )
    assert table_writes(source) == [
        (1, "self.controller.table.add"),
        (2, "self._tables[node].remove"),
        (3, "controller.table.update_demand"),
    ]


def test_only_congestion_writes_flow_tables():
    files = sorted(_SRC.rglob("*.py"))
    assert len(files) > 100
    offenders = [
        f"{path.relative_to(_SRC)}:{line}: {call}"
        for path in files
        if path.relative_to(_SRC).parts[0] != "congestion"
        for line, call in table_writes(path.read_text())
    ]
    assert offenders == [], "flow-table writes outside repro.congestion:\n" + "\n".join(
        offenders
    )
