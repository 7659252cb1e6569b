"""Deterministic SVG emission of construction stages and subfractals.

Output is byte-reproducible: cells are emitted in lexicographic address
order, all coordinates are fixed to six decimals with round-half-even, and
no timestamps or external references appear.  Complement cells of earlier
orders stay visible under later stages, since they are leaves of the
construction and the removed pieces are exactly what the figures show.
"""

from __future__ import annotations

import numpy as np

from .codespace import Address
from .errors import DepthOutOfRangeError, UnknownAddressError
from .scheme import CellTree

_FILLS = {"kept": "35618f", "complement": "f5efe0", "highlight": "d7263d"}
_STROKE = "000000"
_STROKE_WIDTH = 0.002
_CANVAS = 640  # width in px


def _fmt(v: float) -> str:
    text = f"{v:.6f}"
    return "0.000000" if text == "-0.000000" else text  # normalize -0.0


def _collect(t: CellTree, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, kept flags and zero-padded address symbols of the depth-n
    kept cells and the complement cells of orders <= n, in address order."""
    parts = [(depth, t.kept_rows(depth))] + [(n, t.complement_rows(n)) for n in range(1, depth + 1)]
    verts = np.concatenate([t.vertices[n][rows] for n, rows in parts])
    symbols = np.concatenate([np.pad(t.symbols(n, rows), ((0, 0), (0, depth - n))) for n, rows in parts])
    kept = np.arange(verts.shape[0]) < parts[0][1].shape[0]
    # no address is a prefix of another, so zero padding keeps their order
    order = np.lexsort(symbols.T[::-1])
    return verts[order], kept[order], symbols[order]


def _document(t: CellTree, depth: int, highlight_prefix: tuple[int, ...] | None) -> str:
    if not 1 <= depth <= t.depth:
        raise DepthOutOfRangeError(f"depth {depth} outside the built tree (1..{t.depth})")
    x0, y0, x1, y1 = t.scheme.base.bbox()
    pad = 0.05 * max(x1 - x0, y1 - y0)
    vx, vy = x0 - pad, y0 - pad
    vw, vh = (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad
    width = _CANVAS
    height = max(1, round(_CANVAS * vh / vw))
    flip = y0 + y1  # mirror construction y upward onto the svg y axis
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
    ]
    verts, kept, symbols = _collect(t, depth)
    highlight = np.zeros_like(kept)
    if highlight_prefix is not None:
        highlight = kept & (symbols[:, : len(highlight_prefix)] == highlight_prefix).all(axis=1)
    classes = np.where(highlight, "highlight", np.where(kept, "kept", "complement")).tolist()
    # np.round rounds as round() does on each numpy coordinate (scale, rint, unscale)
    xy = np.round(np.stack([verts[..., 0], flip - verts[..., 1]], axis=-1), 6)
    for cls, v in zip(classes, xy):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in v.tolist())
        lines.append(
            f'<polygon class="{cls}" fill="#{_FILLS[cls]}" stroke="#{_STROKE}" '
            f'stroke-width="{_fmt(_STROKE_WIDTH)}" points="{pts}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_construction(t: CellTree, depth: int) -> str:
    """SVG of the depth-n kept cells plus all complement cells of orders <= n."""
    return _document(t, depth, None)


def render_subfractal(t: CellTree, prefix: Address, depth: int) -> str:
    """As render_construction, with kept cells under the prefix highlighted."""
    if not prefix.symbols or not prefix.is_kept:
        raise UnknownAddressError(f"subfractal prefixes are nonempty kept words, got {prefix!s}")
    if len(prefix) > depth:
        raise DepthOutOfRangeError(f"prefix of length {len(prefix)} exceeds render depth {depth}")
    return _document(t, depth, prefix.symbols)
