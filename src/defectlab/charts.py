"""Static SVG chart of defect arrivals: one bar per bucket, with an
optional fitted-curve overlay (what ``report`` writes).

Hand-rolled SVG strings; every document is self-contained (no
scripts, fonts, or external references) so output is diffable and
safe to archive next to the data it describes.
"""

from __future__ import annotations

from collections.abc import Sequence
from html import escape

from .errors import ValidationError

WIDTH = 640
HEIGHT = 400
LEFT, RIGHT, TOP, BOTTOM = 64, 20, 36, 48

BAR_FILL = "#4a7db5"
OVERLAY_STROKE = "#c0392b"


def _num(value: float) -> str:
    return f"{value:.2f}"


class _Plot:
    """Coordinate frame with axes and ticks; data elements append to it."""

    def __init__(self, x_max: float, y_max: float, title: str, x_label: str, y_label: str):
        self.x_max = x_max if x_max > 0 else 1.0
        self.y_max = y_max if y_max > 0 else 1.0
        self.elements: list[str] = []
        x0, y0 = LEFT, HEIGHT - BOTTOM
        x1, y1 = WIDTH - RIGHT, TOP
        self.elements.append(
            f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15">{escape(title, quote=False)}</text>'
        )
        axis = f'stroke="#333333" stroke-width="1"'
        self.elements.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis}/>')
        self.elements.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis}/>')
        for i in range(5):
            frac = i / 4
            tx = self.x(self.x_max * frac)
            ty = self.y(self.y_max * frac)
            self.elements.append(
                f'<line x1="{_num(tx)}" y1="{y0}" x2="{_num(tx)}" y2="{y0 + 5}" {axis}/>'
            )
            self.elements.append(
                f'<text x="{_num(tx)}" y="{y0 + 18}" text-anchor="middle" font-size="11">'
                f"{self.x_max * frac:.4g}</text>"
            )
            self.elements.append(
                f'<line x1="{x0 - 5}" y1="{_num(ty)}" x2="{x0}" y2="{_num(ty)}" {axis}/>'
            )
            self.elements.append(
                f'<text x="{x0 - 8}" y="{_num(ty + 4)}" text-anchor="end" font-size="11">'
                f"{self.y_max * frac:.4g}</text>"
            )
        self.elements.append(
            f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-size="12">{escape(x_label, quote=False)}</text>'
        )
        self.elements.append(
            f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {(y0 + y1) // 2})">{escape(y_label, quote=False)}</text>'
        )

    def x(self, value: float) -> float:
        return LEFT + (value / self.x_max) * (WIDTH - LEFT - RIGHT)

    def y(self, value: float) -> float:
        return HEIGHT - BOTTOM - (value / self.y_max) * (HEIGHT - TOP - BOTTOM)

    def polyline(self, pairs: Sequence[tuple[float, float]], stroke: str, css: str) -> None:
        pts = " ".join(f"{_num(self.x(px))},{_num(self.y(py))}" for px, py in pairs)
        self.elements.append(
            f'<polyline class="{css}" points="{pts}" fill="none" stroke="{stroke}" stroke-width="2"/>'
        )

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
            f'width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif">\n'
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )


def arrival_chart(
    counts: Sequence[int] | Sequence[float],
    fitted: Sequence[float] | None = None,
    title: str = "Defect arrivals",
) -> str:
    """Bar chart of per-bucket discoveries, optional fitted overlay."""
    if not counts:
        raise ValidationError("arrival chart needs at least one bucket")
    peak = max(max(counts), max(fitted) if fitted else 0.0)
    plot = _Plot(float(len(counts)), float(peak), title, "bucket", "defects found")
    slot = (WIDTH - LEFT - RIGHT) / len(counts)
    base = HEIGHT - BOTTOM
    for i, count in enumerate(counts):
        top = plot.y(count)
        plot.elements.append(
            f'<rect class="bar" x="{_num(plot.x(i) + slot * 0.1)}" y="{_num(top)}" '
            f'width="{_num(slot * 0.8)}" height="{_num(base - top)}" fill="{BAR_FILL}"/>'
        )
    if fitted:
        plot.polyline([(i + 0.5, f) for i, f in enumerate(fitted)], OVERLAY_STROKE, "fit")
    return plot.render()
