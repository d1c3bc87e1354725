"""Static SVG chart of defect arrivals: one bar per bucket, with an
optional fitted-curve overlay (what ``report`` writes).

Hand-rolled SVG strings; every document is self-contained (no
scripts, fonts, or external references) so output is diffable and
safe to archive next to the data it describes.
"""

from __future__ import annotations

from collections.abc import Sequence
from html import escape

from .errors import ValidationError, real_problem

WIDTH = 640
HEIGHT = 400
LEFT, RIGHT, TOP, BOTTOM = 64, 20, 36, 48

BAR_FILL = "#4a7db5"
OVERLAY_STROKE = "#c0392b"


def _num(value: float) -> str:
    return f"{value:.2f}"


def arrival_chart(
    counts: Sequence[int] | Sequence[float],
    fitted: Sequence[float] | None = None,
    title: str = "Defect arrivals",
) -> str:
    """Bar chart of per-bucket discoveries, optional fitted overlay."""
    if not counts:
        raise ValidationError("arrival chart needs at least one bucket")
    if any(real_problem("count", c, zero=True) for c in counts):
        raise ValidationError("bucket counts must be finite and >= 0")
    if any(real_problem("fitted", f, zero=True) for f in fitted or ()):
        raise ValidationError("fitted values must be finite and >= 0")
    x_max = float(len(counts))
    peak = float(max(max(counts), max(fitted) if fitted else 0.0))
    y_max = peak if peak > 0 else 1.0

    def x(value: float) -> float:
        return LEFT + (value / x_max) * (WIDTH - LEFT - RIGHT)

    def y(value: float) -> float:
        return HEIGHT - BOTTOM - (value / y_max) * (HEIGHT - TOP - BOTTOM)

    x0, y0 = LEFT, HEIGHT - BOTTOM
    x1, y1 = WIDTH - RIGHT, TOP
    axis = 'stroke="#333333" stroke-width="1"'
    elements = [
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15">'
        f"{escape(title, quote=False)}</text>",
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis}/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis}/>',
    ]
    for i in range(5):
        frac = i / 4
        tx, ty = x(x_max * frac), y(y_max * frac)
        elements += [
            f'<line x1="{_num(tx)}" y1="{y0}" x2="{_num(tx)}" y2="{y0 + 5}" {axis}/>',
            f'<text x="{_num(tx)}" y="{y0 + 18}" text-anchor="middle" font-size="11">'
            f"{x_max * frac:.4g}</text>",
            f'<line x1="{x0 - 5}" y1="{_num(ty)}" x2="{x0}" y2="{_num(ty)}" {axis}/>',
            f'<text x="{x0 - 8}" y="{_num(ty + 4)}" text-anchor="end" font-size="11">'
            f"{y_max * frac:.4g}</text>",
        ]
    elements += [
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        'font-size="12">bucket</text>',
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">defects found</text>',
    ]
    slot = (WIDTH - LEFT - RIGHT) / len(counts)
    for i, count in enumerate(counts):
        top = y(count)
        elements.append(
            f'<rect class="bar" x="{_num(x(i) + slot * 0.1)}" y="{_num(top)}" '
            f'width="{_num(slot * 0.8)}" height="{_num(y0 - top)}" fill="{BAR_FILL}"/>'
        )
    if fitted:
        points = " ".join(f"{_num(x(i + 0.5))},{_num(y(f))}" for i, f in enumerate(fitted))
        elements.append(
            f'<polyline class="fit" points="{points}" fill="none" '
            f'stroke="{OVERLAY_STROKE}" stroke-width="2"/>'
        )
    body = "\n".join(elements)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif">\n'
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )
