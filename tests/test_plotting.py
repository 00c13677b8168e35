"""Tests for the ASCII line chart."""

from repro.bench.plotting import line_chart


class TestLineChart:
    def test_empty(self):
        assert line_chart({}) == ""

    def test_contains_legend_and_axis(self):
        chart = line_chart({"alpha": [1, 2, 3], "beta": [3, 2, 1]},
                           x_labels=[8, 48, 96])
        assert "A=alpha" in chart
        assert "x: 8 .. 96" in chart
        assert "└" in chart

    def test_unique_markers_for_similar_names(self):
        chart = line_chart({"smart": [1], "sherman": [2], "sherman-sl": [3]})
        legend_line = chart.splitlines()[-1].strip()
        markers = [part.split("=")[0] for part in legend_line.split("   ") if part]
        assert len(set(markers)) == 3

    def test_values_map_to_rows(self):
        chart = line_chart({"x": [0.0, 10.0]}, width=10, height=5)
        rows = chart.splitlines()
        assert "X" in rows[0]  # the max lands on the top row
        assert "X" in rows[4]  # the zero lands on the bottom row
