"""Only the wire package lays out bytes.

Every R2C2 message's framing, checksum and quantization live in
:mod:`repro.wire` (one codec base, one quantizer, one frame-length rule),
so a second copy cannot drift from the one receivers decode with.  This
static guard walks ``src/repro`` and fails on any module outside
``repro/wire/`` that imports :mod:`struct`, or that imports a private
(``_``-prefixed) name from ``repro.wire``.
"""

import ast
from pathlib import Path

import repro

_SRC = Path(repro.__file__).parent


def _wire_module(module: str, level: int, package: tuple) -> bool:
    """Whether ``from <level dots><module> import ...`` inside *package*
    names ``repro.wire`` or one of its modules."""
    parts = tuple(module.split(".")) if module else ()
    if level:
        parts = ("repro",) + package[: len(package) - level + 1] + parts
    return parts[:2] == ("repro", "wire")


def codec_leaks(source: str, package: tuple = ()):
    """``(line, what)`` for every ``struct`` import and every private name
    imported from ``repro.wire`` in *source* (a module of *package*, the
    path below ``repro`` as a tuple)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import struct") for a in node.names if a.name == "struct"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "struct" and not node.level:
                found.append((node.lineno, "from struct import"))
            elif _wire_module(node.module or "", node.level, package):
                found += [
                    (node.lineno, f"private {a.name}")
                    for a in node.names
                    if a.name.startswith("_")
                ]
    return found


def test_guard_sees_leaks():
    source = (
        "import struct\n"
        "from struct import pack\n"
        "from ..wire.packets import _WEIGHT_SCALE, BroadcastPacket\n"
        "from repro.wire.control import _FRAME_PREFIX\n"
        "from ..wire import control as ctl\n"
    )
    assert codec_leaks(source, ("service",)) == [
        (1, "import struct"),
        (2, "from struct import"),
        (3, "private _WEIGHT_SCALE"),
        (4, "private _FRAME_PREFIX"),
    ]
    # Relative imports resolve against the importing module's package.
    assert codec_leaks("from ...wire.codec import _X\n", ("sim", "stacks")) == [(1, "private _X")]
    assert codec_leaks("from .codec import _X\n", ("maze",)) == []


def test_only_wire_lays_out_bytes():
    files = sorted(_SRC.rglob("*.py"))
    assert len(files) > 100
    offenders = [
        f"{path.relative_to(_SRC)}:{line}: {what}"
        for path in files
        if path.relative_to(_SRC).parts[0] != "wire"
        for line, what in codec_leaks(path.read_text(), path.relative_to(_SRC).parent.parts)
    ]
    assert offenders == [], "byte layout outside repro.wire:\n" + "\n".join(offenders)
