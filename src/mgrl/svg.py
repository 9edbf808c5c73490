"""Minimal deterministic SVG charts.

Reports must be byte-identical across runs with the same inputs, so the
charts are assembled from formatted strings rather than a plotting
library.  Two chart types cover every report: a horizontal signed bar
chart (feature attributions) and a multi-series line chart (traces and
learning curves).
"""

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
POS_COLOR = "#2ca02c"
NEG_COLOR = "#d62728"

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _f(v: float) -> str:
    """Fixed-precision coordinate formatting (stable across platforms)."""
    return f"{float(v):.2f}"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head,
                      f'<rect width="{width}" height="{height}" fill="white"/>',
                      *body, "</svg>"]) + "\n"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def bar_chart(labels, values, title: str, value_label: str = "") -> str:
    """Horizontal signed bar chart; positive bars grow right of the zero line."""
    values = [float(v) for v in values]
    n = len(values)
    if n != len(labels):
        raise ValueError("labels and values must have equal length")
    bar_h, gap, top, left, right = 26, 12, 56, 150, 96
    width = 720
    height = top + n * (bar_h + gap) + 36
    vmin = min(0.0, *values) if values else 0.0
    vmax = max(0.0, *values) if values else 0.0
    span = max(vmax - vmin, 1e-12)
    plot_w = width - left - right

    def x_of(v: float) -> float:
        return left + (v - vmin) / span * plot_w

    x0 = x_of(0.0)
    body = [f'<text x="{_f(width / 2)}" y="24" text-anchor="middle" '
            f'{_FONT} font-size="16">{_esc(title)}</text>',
            f'<line x1="{_f(x0)}" y1="{top - 10}" x2="{_f(x0)}" '
            f'y2="{height - 30}" stroke="#444" stroke-width="1"/>']
    if value_label:
        body.append(f'<text x="{_f(width / 2)}" y="{height - 8}" '
                    f'text-anchor="middle" {_FONT} font-size="12" '
                    f'fill="#444">{_esc(value_label)}</text>')
    for i, (label, v) in enumerate(zip(labels, values)):
        y = top + i * (bar_h + gap)
        xv = x_of(v)
        bx, bw = (x0, xv - x0) if v >= 0 else (xv, x0 - xv)
        color = POS_COLOR if v >= 0 else NEG_COLOR
        body.append(f'<rect x="{_f(bx)}" y="{_f(y)}" width="{_f(bw)}" '
                    f'height="{bar_h}" fill="{color}" fill-opacity="0.85"/>')
        body.append(f'<text x="{left - 8}" y="{_f(y + bar_h / 2 + 4)}" '
                    f'text-anchor="end" {_FONT} font-size="12">'
                    f'{_esc(str(label))}</text>')
        tx, anchor = (xv + 6, "start") if v >= 0 else (xv - 6, "end")
        body.append(f'<text x="{_f(tx)}" y="{_f(y + bar_h / 2 + 4)}" '
                    f'text-anchor="{anchor}" {_FONT} font-size="11" '
                    f'fill="#222">{v:+.4g}</text>')
    return _document(width, height, body)


def line_chart(series, title: str, x_label: str = "", y_label: str = "",
               hlines=(), y_range=None) -> str:
    """Multi-series line chart.

    Args:
        series: iterable of (name, xs, ys) triples.
        hlines: y values drawn as dashed reference lines.
        y_range: optional (lo, hi) override for the y axis.
    """
    series = [(str(name), np.asarray(xs, float), np.asarray(ys, float))
              for name, xs, ys in series]
    if not series or any(len(xs) != len(ys) or len(xs) == 0
                         for _, xs, ys in series):
        raise ValueError("each series needs equally sized non-empty xs, ys")
    width, height = 720, 400
    left, right, top, bottom = 64, 16, 40, 48
    plot_w, plot_h = width - left - right, height - top - bottom

    x_lo = min(xs.min() for _, xs, _ in series)
    x_hi = max(xs.max() for _, xs, _ in series)
    if y_range is not None:
        y_lo, y_hi = map(float, y_range)
    else:
        y_lo = min([ys.min() for _, _, ys in series] + list(hlines))
        y_hi = max([ys.max() for _, _, ys in series] + list(hlines))
        pad = 0.05 * max(y_hi - y_lo, 1e-12)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)

    # The maps take a scalar (ticks, hlines) or a whole series array; an
    # array element goes through the same float64 operations as a scalar.
    def px(x):
        return left + (x - x_lo) / x_span * plot_w

    def py(y):
        return top + plot_h - (y - y_lo) / y_span * plot_h

    body = [f'<text x="{_f(width / 2)}" y="24" text-anchor="middle" '
            f'{_FONT} font-size="16">{_esc(title)}</text>']
    for yt in _ticks(y_lo, y_hi):
        body.append(f'<line x1="{left}" y1="{_f(py(yt))}" '
                    f'x2="{width - right}" y2="{_f(py(yt))}" '
                    f'stroke="#ddd" stroke-width="1"/>')
        body.append(f'<text x="{left - 6}" y="{_f(py(yt) + 4)}" '
                    f'text-anchor="end" {_FONT} font-size="11" '
                    f'fill="#444">{_tick_label(yt)}</text>')
    for xt in _ticks(x_lo, x_hi):
        body.append(f'<line x1="{_f(px(xt))}" y1="{top}" '
                    f'x2="{_f(px(xt))}" y2="{top + plot_h}" '
                    f'stroke="#eee" stroke-width="1"/>')
        body.append(f'<text x="{_f(px(xt))}" y="{height - bottom + 16}" '
                    f'text-anchor="middle" {_FONT} font-size="11" '
                    f'fill="#444">{_tick_label(xt)}</text>')
    body.append(f'<rect x="{left}" y="{top}" width="{plot_w}" '
                f'height="{plot_h}" fill="none" stroke="#444"/>')
    for y_ref in hlines:
        body.append(f'<line x1="{left}" y1="{_f(py(y_ref))}" '
                    f'x2="{width - right}" y2="{_f(py(y_ref))}" '
                    f'stroke="#888" stroke-width="1" '
                    f'stroke-dasharray="6,4"/>')
    for k, (name, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        # "%.2f" of a Python float is _f's string; one format call per series.
        xy = np.column_stack((px(xs), py(ys))).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>')
        ly = top + 16 + 16 * k
        body.append(f'<line x1="{width - right - 120}" y1="{ly - 4}" '
                    f'x2="{width - right - 96}" y2="{ly - 4}" '
                    f'stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{width - right - 90}" y="{ly}" {_FONT} '
                    f'font-size="11">{_esc(name)}</text>')
    if x_label:
        body.append(f'<text x="{_f(left + plot_w / 2)}" y="{height - 8}" '
                    f'text-anchor="middle" {_FONT} font-size="12" '
                    f'fill="#444">{_esc(x_label)}</text>')
    if y_label:
        body.append(f'<text x="16" y="{_f(top + plot_h / 2)}" {_FONT} '
                    f'font-size="12" fill="#444" transform="rotate(-90 16 '
                    f'{_f(top + plot_h / 2)})" text-anchor="middle">'
                    f'{_esc(y_label)}</text>')
    return _document(width, height, body)
