import pytest

from trendlens.svgplot import PALETTE, emit_scatter_svg, render_scatter_svg
from trendlens.trends import ProjectedPoint


def point(name, x, y):
    return ProjectedPoint(name, (x, y))


class TestRender:
    def test_single_point_single_circle_and_label(self):
        svg = render_scatter_svg([point("solar", 1.0, 2.0)], {"solar": 0})
        assert svg.count("<circle") == 1
        assert svg.count("<text") == 1
        assert ">Solar</text>" in svg  # display label is capitalized

    def test_two_clusters_two_fill_colors(self):
        points = [point("a", 0, 0), point("b", 1, 0), point("c", 0, 1)]
        svg = render_scatter_svg(points, {"a": 0, "b": 0, "c": 1})
        fills = {line.split('fill="')[1].split('"')[0] for line in svg.splitlines() if "<circle" in line}
        assert fills == {PALETTE[0], PALETTE[1]}

    def test_palette_cycles(self):
        points = [point(f"k{i}", i, 0) for i in range(14)]
        labels = {f"k{i}": i for i in range(14)}
        svg = render_scatter_svg(points, labels)
        assert PALETTE[0] in svg and PALETTE[13 % len(PALETTE)] in svg

    def test_empty_point_set_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            render_scatter_svg([], {})

    def test_deterministic_bytes(self):
        points = [point("a", 0.123456789, -2.5), point("b", 4.4, 1.1)]
        labels = {"a": 0, "b": 1}
        assert render_scatter_svg(points, labels) == render_scatter_svg(points, labels)

    def test_coordinates_mapped_into_margins(self):
        svg = render_scatter_svg([point("a", -5, -5), point("b", 5, 5), point("c", 0, 0)], {})
        # extremes land on the 5% margin ring of the 1000x800 viewport
        assert 'cx="50.00"' in svg and 'cx="950.00"' in svg
        assert 'cy="760.00"' in svg and 'cy="40.00"' in svg

    def test_y_axis_points_up(self):
        svg = render_scatter_svg([point("low", 0, 0), point("high", 0, 10)], {})
        lines = [l for l in svg.splitlines() if "<circle" in l]
        cy_low = float(lines[0].split('cy="')[1].split('"')[0])
        cy_high = float(lines[1].split('cy="')[1].split('"')[0])
        assert cy_high < cy_low

    def test_label_text_escaped(self):
        svg = render_scatter_svg([point("a&b", 0, 0), point("c", 1, 1)], {})
        assert "A&amp;b" in svg


class TestEmit:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_scatter_svg([point("a", 0, 0)], {"a": 0}, path)
        content = path.read_text()
        assert content.startswith("<?xml") and content.rstrip().endswith("</svg>")
