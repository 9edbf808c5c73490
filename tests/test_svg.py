import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mgrl.svg import NEG_COLOR, POS_COLOR, bar_chart, line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestBarChart:
    def test_wellformed_with_mixed_signs(self):
        svg = bar_chart(["a", "b", "c"], [0.5, -0.25, 0.0], "mixed")
        root = parse(svg)
        assert root.tag == f"{SVG_NS}svg"
        fills = [r.get("fill") for r in root.iter(f"{SVG_NS}rect")]
        assert POS_COLOR in fills and NEG_COLOR in fills

    def test_zero_bar_has_zero_width(self):
        svg = bar_chart(["only"], [0.0], "flat")
        bars = [r for r in parse(svg).iter(f"{SVG_NS}rect")
                if r.get("fill") in (POS_COLOR, NEG_COLOR)]
        assert len(bars) == 1
        assert float(bars[0].get("width")) == 0.0

    def test_labels_and_title_escaped(self):
        svg = bar_chart(["a<b"], [1.0], 'q "&" t')
        texts = [t.text for t in parse(svg).iter(f"{SVG_NS}text")]
        assert "a<b" in texts
        assert 'q "&" t' in texts

    def test_deterministic_output(self):
        args = (["x", "y"], [0.123456, -9.87], "same")
        assert bar_chart(*args) == bar_chart(*args)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0], "bad")


class TestLineChart:
    def series(self):
        xs = np.arange(10)
        return [("one", xs, np.linspace(0, 1, 10)),
                ("two", xs, np.linspace(1, 0, 10))]

    def test_wellformed_with_multiple_series(self):
        root = parse(line_chart(self.series(), "curves", x_label="t",
                                y_label="value"))
        polys = list(root.iter(f"{SVG_NS}polyline"))
        assert len(polys) == 2
        assert polys[0].get("stroke") != polys[1].get("stroke")

    def test_hlines_drawn_dashed(self):
        svg = line_chart(self.series(), "curves", hlines=(0.5,))
        dashed = [ln for ln in parse(svg).iter(f"{SVG_NS}line")
                  if ln.get("stroke-dasharray")]
        assert len(dashed) == 1

    def test_y_range_pins_axis_labels(self):
        svg = line_chart(self.series(), "curves", y_range=(0.0, 2.0))
        texts = [t.text for t in parse(svg).iter(f"{SVG_NS}text")]
        assert "2" in texts and "0" in texts

    def test_single_point_series_renders(self):
        root = parse(line_chart([("dot", [1.0], [3.0])], "point"))
        assert root.tag == f"{SVG_NS}svg"

    def test_deterministic_output(self):
        a = line_chart(self.series(), "curves", hlines=(1.0,))
        b = line_chart(self.series(), "curves", hlines=(1.0,))
        assert a == b

    @pytest.mark.parametrize("series", [
        [],
        [("bad", [1.0, 2.0], [1.0])],
        [("empty", [], [])],
    ])
    def test_bad_series_rejected(self, series):
        with pytest.raises(ValueError):
            line_chart(series, "bad")


def frame(svg: str) -> tuple[float, ...]:
    """x, y, width and height of the plot frame (the unfilled rect)."""
    [rect] = [r for r in parse(svg).iter(f"{SVG_NS}rect")
              if r.get("fill") == "none"]
    return tuple(float(rect.get(k)) for k in ("x", "y", "width", "height"))


def oracle_points(svg, series, hlines=(), y_range=None) -> list[str]:
    """Each series' polyline points, mapped and formatted one Python float
    at a time from the axis limits line_chart derives (data extent with
    a 5% pad unless y_range is given, spans floored at 1e-12)."""
    left, top, plot_w, plot_h = frame(svg)
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if y_range is not None:
        y_lo, y_hi = map(float, y_range)
    else:
        y_lo = min(ys_all + list(hlines))
        y_hi = max(ys_all + list(hlines))
        pad = 0.05 * max(y_hi - y_lo, 1e-12)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)
    return [" ".join(
        f"{left + (float(x) - x_lo) / x_span * plot_w:.2f},"
        f"{top + plot_h - (float(y) - y_lo) / y_span * plot_h:.2f}"
        for x, y in zip(xs, ys)) for _, xs, ys in series]


class TestPolylinePoints:
    """Every polyline point string equals the per-point oracle's."""

    @pytest.mark.parametrize("series, hlines, y_range", [
        pytest.param([("reward", [2, 3, 5, 8], [0.25, 0.5, 0.75, 1.0])],
                     (1.0,), (0.0, 1.05), id="integer-xs"),
        pytest.param([("a", np.arange(6), [-3.2, -0.5, -7.75, -1.0, -2.5,
                                           -6.125]),
                      ("b", np.arange(6), np.linspace(-4.0, 0.0, 6))],
                     (-2.0,), None, id="negative"),
        pytest.param([("flat", np.arange(5), np.full(5, 0.3))], (), None,
                     id="constant-span-floor"),
        pytest.param([("dot", [4.0], [2.0])], (), None, id="single-point"),
        pytest.param([("big", [0.0, 1.0, 2.0, 3.0],
                       [-1e6, 1e6, 3.3e5, -2.5e5])], (0.0,), None,
                     id="plus-minus-1e6"),
        pytest.param([("out", np.arange(4), [-0.5, 0.2, 1.7, 0.9])],
                     (0.1, 0.9), (0.0, 1.0), id="data-leave-y-range"),
        # With x in [0, 640] and y_range (0, 312) the maps are shifts, so
        # the coordinates land on decimal halves that binary cannot hold:
        # 66.675 formats as 66.67 and 351.715 as 351.71, where rounding
        # v * 100 to an integer gives 66.68 and 351.72.
        pytest.param([("halves", [0.0, 1.115, 2.675, 640.0],
                       [0.0, 0.285, 3.285, 312.0])], (), (0.0, 312.0),
                     id="binary-halves"),
    ])
    def test_points_match_per_point_oracle(self, series, hlines, y_range):
        svg = line_chart(series, "oracle", hlines=hlines, y_range=y_range)
        assert re.findall(r'<polyline points="([^"]*)"', svg) == \
            oracle_points(svg, series, hlines, y_range)
