"""One shared registry of task-kind display styles (gantt letter + DOT color).

``render_gantt`` and ``TaskGraph.to_dot`` used to keep separate kind tables
and drifted (``trsm-solve`` had a DOT color but rendered ``?`` in the
gantt).  Both now read this registry, so a kind registered once renders
consistently everywhere; unknown kinds fall back to ``?`` / ``gray``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KindStyle", "KIND_STYLES", "kind_letter", "kind_color", "register_kind"]


@dataclass(frozen=True)
class KindStyle:
    """Display style of one task kind: gantt letter + GraphViz color."""

    letter: str
    color: str


#: Kernel kinds emitted by the tiled algorithms.
KIND_STYLES: dict[str, KindStyle] = {
    "getrf": KindStyle("G", "firebrick"),
    "potrf": KindStyle("P", "indianred"),
    "trsm": KindStyle("T", "goldenrod"),
    "trsm-solve": KindStyle("S", "darkgoldenrod"),
    "gemm": KindStyle("M", "steelblue"),
    "trsv": KindStyle("V", "darkorchid"),
    "gemv": KindStyle("v", "slateblue"),
    "compress": KindStyle("C", "darkcyan"),
    "pack": KindStyle("K", "dimgray"),
}

_UNKNOWN = KindStyle("?", "gray")


def kind_letter(kind: str) -> str:
    """One-character gantt label for ``kind`` (``?`` if unregistered)."""
    return KIND_STYLES.get(kind, _UNKNOWN).letter


def kind_color(kind: str) -> str:
    """GraphViz node color for ``kind`` (``gray`` if unregistered)."""
    return KIND_STYLES.get(kind, _UNKNOWN).color


def register_kind(kind: str, letter: str, color: str) -> None:
    """Register (or restyle) a task kind for gantt and DOT rendering."""
    if len(letter) != 1:
        raise ValueError(f"gantt letter must be one character, got {letter!r}")
    KIND_STYLES[kind] = KindStyle(letter, color)
