"""Best-effort text and TikZ pictures of crossingless matchings.

ASCII: bottom points sit on the last row at columns 0, 2, 4, ..., top points
on the first row.  Boundary arcs are drawn as rectilinear hooks, through
strands as bars with at most one horizontal jog.  Planarity keeps arcs away
from foreign points, and any residual bar/run overlap from jogged strands is
drawn as '+'.

TikZ output is a plain tikzpicture with one Bezier per strand.
"""

from __future__ import annotations

from .tl import CrossinglessMatching, TLMorphism


def _top_position(m: CrossinglessMatching, label: int) -> int:
    # top labels run right to left
    return m.bottom + m.top - 1 - label


def _classify(m: CrossinglessMatching):
    n = m.bottom
    bottom_arcs, top_arcs, through = [], [], []
    for a, b in m.pairs:
        if b < n:
            bottom_arcs.append((a, b))
        elif a >= n:
            top_arcs.append(tuple(sorted((_top_position(m, a), _top_position(m, b)))))
        else:
            through.append((a, _top_position(m, b)))
    return sorted(bottom_arcs), sorted(top_arcs), sorted(through)


def _nesting_rows(arcs: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    # innermost arcs get row 0; an arc sits below everything it contains,
    # so narrower arcs must be assigned first
    rows: dict[tuple[int, int], int] = {}
    for arc in sorted(arcs, key=lambda a: a[1] - a[0]):
        inside = [
            rows[other]
            for other in rows
            if other != arc and arc[0] <= other[0] and other[1] <= arc[1]
        ]
        rows[arc] = 1 + max(inside) if inside else 0
    return rows


def ascii_matching(m: CrossinglessMatching) -> str:
    n, t = m.bottom, m.top
    if n + t == 0:
        return "(empty diagram)"
    bottom_arcs, top_arcs, through = _classify(m)
    top_rows = _nesting_rows(top_arcs)
    bot_rows = _nesting_rows(bottom_arcs)
    tband = 1 + max(top_rows.values()) if top_rows else 0
    bband = 1 + max(bot_rows.values()) if bot_rows else 0
    mband = max(1, len([1 for b, u in through if b != u])) if through else 0
    height = max(1, tband + mband + bband)
    width = max(2 * n - 1, 2 * t - 1, 1)
    grid = [[" "] * width for _ in range(height)]

    def put(r: int, c: int, ch: str):
        cur = grid[r][c]
        if cur == " " or cur == ch:
            grid[r][c] = ch
        else:
            grid[r][c] = "+"

    for (j1, j2), depth in top_rows.items():
        c1, c2 = 2 * j1, 2 * j2
        put(depth, c1, "+")
        put(depth, c2, "+")
        for c in range(c1 + 1, c2):
            put(depth, c, "-")
        for r in range(depth):
            put(r, c1, "|")
            put(r, c2, "|")

    for (i1, i2), depth in bot_rows.items():
        c1, c2 = 2 * i1, 2 * i2
        row = height - 1 - depth
        put(row, c1, "+")
        put(row, c2, "+")
        for c in range(c1 + 1, c2):
            put(row, c, "-")
        for r in range(row + 1, height):
            put(r, c1, "|")
            put(r, c2, "|")

    mid_top = tband
    mid_bot = height - 1 - bband
    jog = 0
    for b, u in through:
        cb, cu = 2 * b, 2 * u
        for r in range(tband):
            put(r, cu, "|")
        for r in range(height - bband, height):
            put(r, cb, "|")
        if cb == cu:
            for r in range(mid_top, mid_bot + 1):
                put(r, cb, "|")
        else:
            row = min(mid_top + jog, mid_bot)
            jog += 1
            for r in range(mid_top, row):
                put(r, cu, "|")
            for r in range(row + 1, mid_bot + 1):
                put(r, cb, "|")
            put(row, cb, "+")
            put(row, cu, "+")
            for c in range(min(cb, cu) + 1, max(cb, cu)):
                put(row, c, "-")

    return "\n".join("".join(row).rstrip() for row in grid)


def _listing(f: TLMorphism, max_terms: int, head: str, more: str, block) -> str:
    """``head`` filled with f's arity, ring and term count, then block(m,
    coefficient text) for each of f's first max_terms terms in ``partner``
    order, then ``more`` filled with the count of the rest, if any."""
    ms = sorted(f.terms, key=lambda mm: mm.partner)
    lines = [head.format(f"{f.bottom}->{f.top} over {f.ring.name}, {len(ms)} term(s)")]
    for m in ms[:max_terms]:
        lines += block(m, f.ring.format(f.coefficient(m)))
    if len(ms) > max_terms:
        lines.append(more.format(len(ms) - max_terms))
    return "\n".join(lines)


def ascii_morphism(f: TLMorphism, max_terms: int = 24) -> str:
    if f.is_zero():
        return f"0  ({f.bottom}->{f.top} over {f.ring.name})"
    return _listing(f, max_terms, "{}:", "... ({} more terms)",
                    lambda m, c: [f"coeff {c}:", ascii_matching(m)])


def _coord(v: float) -> str:
    """v to at most 4 decimals: 0.6 * 1.5 prints as 0.9, not 0.8999999999999999."""
    return f"{v:.4f}".rstrip("0").rstrip(".")


def tikz_matching(m: CrossinglessMatching, height: float = 1.5) -> str:
    n = m.bottom
    h, low, mid, high = (_coord(t * height) for t in (1, 0.4, 0.5, 0.6))
    lines = ["\\begin{tikzpicture}[scale=0.7]"]
    for i in range(n):
        lines.append(f"  \\fill ({i},0) circle (1.5pt);")
    for j in range(m.top):
        lines.append(f"  \\fill ({j},{h}) circle (1.5pt);")
    for a, b in m.pairs:
        if b < n:
            lines.append(
                f"  \\draw ({a},0) .. controls ({a},{high}) and ({b},{high}) .. ({b},0);"
            )
        elif a >= n:
            ja, jb = _top_position(m, a), _top_position(m, b)
            lines.append(
                f"  \\draw ({ja},{h}) .. controls ({ja},{low}) and "
                f"({jb},{low}) .. ({jb},{h});"
            )
        else:
            jb = _top_position(m, b)
            lines.append(
                f"  \\draw ({a},0) .. controls ({a},{mid}) and "
                f"({jb},{mid}) .. ({jb},{h});"
            )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)


def tikz_morphism(f: TLMorphism, max_terms: int = 12) -> str:
    return _listing(f, max_terms, "% {}", "% ... ({} more terms)",
                    lambda m, c: [f"% coefficient {c}", tikz_matching(m)])
