"""Minimal static SVG scatter plots for quick-look report figures.

Hand-rolled on purpose: the outputs are deterministic byte-for-byte,
have no styling dependencies, and stay trivially diffable in tests.
"""

from pathlib import Path

from .errors import PcgKitError

_W, _H = 640, 480
_MARGIN = 60


def _bounds(values, pad_frac=0.08):
    lo, hi = float(min(values)), float(max(values))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def write_scatter_svg(path, x, y, xlabel="", ylabel="", title="",
                      hlines=(), identity=False):
    """Write a scatter plot; optional horizontal guide lines and y=x line.

    ``hlines`` is a sequence of (value, dash) pairs where dash toggles a
    dashed stroke, used for bias and limits-of-agreement markers.
    """
    if len(x) != len(y) or len(x) == 0:
        raise PcgKitError("x and y must be equal-length and non-empty")
    x_lo, x_hi = _bounds(x)
    y_vals = list(y) + [h for h, _ in hlines]
    y_lo, y_hi = _bounds(y_vals)

    def sx(v):
        return _MARGIN + (v - x_lo) / (x_hi - x_lo) * (_W - 2 * _MARGIN)

    def sy(v):
        return _H - _MARGIN - (v - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
    ]
    axis = (f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
            f'y2="{_H - _MARGIN}" stroke="black"/>'
            f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
            f'y2="{_H - _MARGIN}" stroke="black"/>')
    parts.append(axis)
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(t):.1f}" y="{_H - _MARGIN + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{sy(t) + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{t:.3g}</text>')
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_H / 2:.1f})">'
        f'{ylabel}</text>')
    if identity:
        lo = max(x_lo, y_lo)
        hi = min(x_hi, y_hi)
        if lo < hi:
            parts.append(
                f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" '
                f'y2="{sy(hi):.1f}" stroke="#888"/>')
    for value, dashed in hlines:
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        parts.append(
            f'<line x1="{_MARGIN}" y1="{sy(value):.1f}" x2="{_W - _MARGIN}" '
            f'y2="{sy(value):.1f}" stroke="#555"{dash}/>')
    for xi, yi in zip(x, y):
        parts.append(
            f'<circle cx="{sx(xi):.1f}" cy="{sy(yi):.1f}" r="3" '
            f'fill="steelblue" fill-opacity="0.7"/>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
