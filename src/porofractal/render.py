"""Deterministic SVG emission of construction stages and subfractals.

Output is byte-reproducible: cells are emitted in lexicographic address
order, all coordinates are fixed to six decimals with round-half-even, and
no timestamps or external references appear.  Complement cells of earlier
orders stay visible under later stages, since they are leaves of the
construction and the removed pieces are exactly what the figures show.

The document is made in chunks of `geometry._chunk_rows` polygons, so its
working memory is the tree, one integer per emitted cell and one chunk.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .codespace import Address
from .errors import DepthOutOfRangeError, UnknownAddressError
from .geometry import _chunk_rows
from .scheme import CellTree

_FILLS = {"kept": "35618f", "complement": "f5efe0", "highlight": "d7263d"}
_STROKE = "000000"
_STROKE_WIDTH = 0.002
_CANVAS = 640  # width in px


def _fmt(v: float) -> str:
    text = f"{v:.6f}"
    return "0.000000" if text == "-0.000000" else text  # normalize -0.0


def _order(t: CellTree, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The depth-n kept cells and the complement cells of orders <= n in
    address order, as ids into the rows of levels 0..n laid end to end,
    with the first id of each level.

    A kept cell of level k heads a block of S(k) emitted cells, S(n) = 1
    and S(k) = m·S(k+1) + (M - m): its kept child j starts at
    (j - 1)·S(k+1) within it and its complement child j sits at
    m·S(k+1) + (j - m - 1), so every position is a sum of offsets down
    the rows' ancestry.
    """
    m, M = t.scheme.m, t.scheme.M
    sizes = [1]
    for _ in range(depth):
        sizes.insert(0, m * sizes[0] + (M - m))
    first = np.cumsum([0] + [v.shape[0] for v in t.vertices[:depth]])
    order = np.empty(sizes[0], dtype=np.intp)
    starts = np.zeros(1, dtype=np.intp)
    for n in range(1, depth + 1):
        offsets = np.concatenate([np.arange(m) * sizes[n], m * sizes[n] + np.arange(M - m)])
        # row p·M + (j - 1) is child j of the p-th kept cell above, whose
        # block starts at starts[p]
        at = starts[:, None] + offsets
        ids = np.arange(first[n], first[n] + at.size).reshape(at.shape)
        emitted = slice(None) if n == depth else slice(m, None)
        order[at[:, emitted]] = ids[:, emitted]
        starts = at[:, :m].ravel()
    return order, first


def _chunks(t: CellTree, depth: int, prefix: tuple[int, ...] | None) -> Iterator[str]:
    m, M = t.scheme.m, t.scheme.M
    x0, y0, x1, y1 = t.scheme.base.bbox()
    pad = 0.05 * max(x1 - x0, y1 - y0)
    vx, vy = x0 - pad, y0 - pad
    vw, vh = (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad
    height = max(1, round(_CANVAS * vh / vw))
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" height="{height}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">\n'
    )
    order, first = _order(t, depth)
    V = t.vertices[depth].shape[1]
    templates = [
        f'<polygon class="{cls}" fill="#{_FILLS[cls]}" stroke="#{_STROKE}" '
        f'stroke-width="{_fmt(_STROKE_WIDTH)}" points="{" ".join(["%.6f,%.6f"] * V)}"/>'
        for cls in ("complement", "kept", "highlight")
    ]
    # the kept index (r // M)·m + r % M of a depth-n row is its address in
    # base m, so the cells under the prefix are one range of it
    lo = hi = -1
    if prefix is not None:
        lo, span = 0, m ** (depth - len(prefix))
        for j in prefix:
            lo = lo * m + j - 1
        lo, hi = lo * span, (lo + 1) * span
    flip = y0 + y1  # mirror construction y upward onto the svg y axis
    step = _chunk_rows(2 * V)
    for a in range(0, order.shape[0], step):
        ids = order[a : a + step]
        level = np.searchsorted(first, ids, side="right") - 1
        rows = ids - first[level]
        verts = np.empty((ids.shape[0], V, 2))
        for n in np.unique(level).tolist():
            at = level == n
            verts[at] = t.vertices[n][rows[at]]
        kept = (level == depth) & (rows % M < m)
        index = (rows // M) * m + rows % M
        kind = kept.astype(np.intp) + (kept & (lo <= index) & (index < hi))
        verts[..., 1] = flip - verts[..., 1]
        # np.round rounds as round() does on each numpy coordinate (scale,
        # rint, unscale); adding 0.0 turns -0.0 into 0.0
        xy = (np.round(verts, 6) + 0.0).reshape(ids.shape[0], 2 * V).tolist()
        yield "\n".join([templates[k] % tuple(v) for k, v in zip(kind.tolist(), xy)]) + "\n"
    yield "</svg>\n"


def svg_chunks(t: CellTree, depth: int, prefix: Address | None = None) -> Iterator[str]:
    """SVG of the depth-n kept cells plus all complement cells of orders
    <= n, as consecutive pieces of one document; with a prefix, the kept
    cells under it are highlighted.

    The arguments are checked before this returns, so a caller that writes
    the pieces as they come writes nothing for a rejected call.
    """
    if not 1 <= depth <= t.depth:
        raise DepthOutOfRangeError(f"depth {depth} outside the built tree (1..{t.depth})")
    if prefix is not None:
        if not prefix.symbols or not prefix.is_kept:
            raise UnknownAddressError(f"subfractal prefixes are nonempty kept words, got {prefix!s}")
        if len(prefix) > depth:
            raise DepthOutOfRangeError(f"prefix of length {len(prefix)} exceeds render depth {depth}")
    return _chunks(t, depth, None if prefix is None else prefix.symbols)


def render_construction(t: CellTree, depth: int) -> str:
    """SVG of the depth-n kept cells plus all complement cells of orders <= n."""
    return "".join(svg_chunks(t, depth))
