"""The per-message wire table in docs/ARCHITECTURE.md cannot drift.

The table is rendered from the same declarations the codec compiles
its writers and readers from (``codec.message_layout`` over every class
``src/`` registers), and this test compares the checked-in copy with a
fresh rendering.  After changing a message, regenerate it with
``PYTHONPATH=src python tests/net/test_wire_table.py``.
"""

import pathlib

from repro.net import codec
from repro.net import replication as _replication  # noqa: F401 - registers
from repro.net import stats as _stats  # noqa: F401 - registers

ARCHITECTURE = pathlib.Path(__file__).parents[2] / "docs" / "ARCHITECTURE.md"
BEGIN = "<!-- wire-table:begin (generated: tests/net/test_wire_table.py) -->\n"
END = "<!-- wire-table:end -->\n"


def render_wire_table() -> str:
    lines = ["| message | field | annotation | fixed-width run |",
             "|---|---|---|---|"]
    for name, cls in sorted(codec.MESSAGE_TYPES.items()):
        if not cls.__module__.startswith("repro."):
            continue  # a test's own throwaway registration
        layout = codec.message_layout(cls)
        for row, (field, annotation, run) in enumerate(layout):
            width = sum(1 for entry in layout if entry[2] == run)
            lines.append("| {} | `{}` | `{}` | {} |".format(
                f"`{name}`" if row == 0 else "", field, annotation,
                f"{run} ({width} × tag+f64, {9 * width} B)" if run else ""))
    return "\n".join(lines) + "\n"


def test_architecture_wire_table_matches_the_declarations():
    text = ARCHITECTURE.read_text()
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    checked_in = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert checked_in == render_wire_table(), (
        "docs/ARCHITECTURE.md's wire table is stale: run "
        "`PYTHONPATH=src python tests/net/test_wire_table.py`")


if __name__ == "__main__":
    text = ARCHITECTURE.read_text()
    start, end = text.index(BEGIN) + len(BEGIN), text.index(END)
    ARCHITECTURE.write_text(text[:start] + render_wire_table() + text[end:])
    print(f"rewrote the wire table in {ARCHITECTURE}")
