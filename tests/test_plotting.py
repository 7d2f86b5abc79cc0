"""SVG rendering of experiment tables."""

import xml.etree.ElementTree as ET

import pytest

from ecdkit import ExperimentRow, ExperimentTable, SchemaError
from ecdkit.plotting import plot_table, render_panel

SVG_NS = "{http://www.w3.org/2000/svg}"


def make_table():
    rows = []
    for dim in (2, 8):
        for var in (0.5, 1.0, 1.5):
            for name, val in (("ECD", dim * var), ("MMD", var / dim)):
                rows.append(ExperimentRow(
                    experiment_id="variance-sweep", kind_a="gaussian",
                    kind_b="gaussian", dim=dim, variance_a=var,
                    measure_name=name, value=val, seed=0, n=10, m=10, k=1,
                ))
    return ExperimentTable(rows=tuple(rows))


class TestRenderPanel:
    def test_parses_as_xml(self):
        root = ET.fromstring(render_panel(make_table(), "ECD"))
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") and root.get("height")

    def test_one_polyline_per_dim(self):
        root = ET.fromstring(render_panel(make_table(), "ECD"))
        lines = root.findall(f".//{SVG_NS}polyline")
        assert len(lines) == 2
        for line in lines:
            pts = line.get("points").split()
            assert len(pts) == 3

    def test_title_and_legend(self):
        svg = render_panel(make_table(), "MMD")
        assert "MMD" in svg
        assert "dim 2" in svg and "dim 8" in svg

    def test_unknown_measure(self):
        with pytest.raises(SchemaError):
            render_panel(make_table(), "XYZ")

    def test_single_point_axis_degeneracy(self):
        # one variance value collapses the x-range; the panel must still
        # render without dividing by zero
        rows = tuple(
            r for r in make_table().rows if r.variance_a == 1.0
        )
        svg = render_panel(ExperimentTable(rows=rows), "ECD")
        ET.fromstring(svg)
        assert "NaN" not in svg and "inf" not in svg


class TestPlotTable:
    def test_writes_one_file_per_measure(self, tmp_path):
        stem = str(tmp_path / "sweep")
        written = plot_table(make_table(), stem)
        assert written == [f"{stem}_ECD.svg", f"{stem}_MMD.svg"]
        for path in written:
            ET.parse(path)

    def test_svg_suffix_stripped(self, tmp_path):
        stem = str(tmp_path / "sweep.svg")
        written = plot_table(make_table(), stem)
        assert written[0] == str(tmp_path / "sweep_ECD.svg")

    def test_grid_table_rejected_before_any_file(self, tmp_path):
        # six kind pairs share each (dim, variance_a): one polyline per dim
        # would zigzag through them, so the table is refused, and the
        # measure that plots on its own is not written either
        rows = [ExperimentRow(
            experiment_id="variance-sweep", kind_a="gaussian", kind_b="gaussian",
            dim=2, variance_a=1.0, measure_name="ECD", value=2.0, seed=0, n=10, m=10, k=1,
        )]
        for kind_b in ("gaussian", "uniform", "binary"):
            rows.append(ExperimentRow(
                experiment_id="distribution-grid", kind_a="gaussian", kind_b=kind_b,
                dim=2, variance_a=1.0, measure_name="FD", value=0.5, seed=0, n=10, m=10,
                k=1,
            ))
        with pytest.raises(SchemaError, match=r"'FD' has more than one row"):
            plot_table(ExperimentTable(rows=tuple(rows)), str(tmp_path / "grid"))
        assert list(tmp_path.iterdir()) == []

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            plot_table(ExperimentTable(rows=()), str(tmp_path / "x"))
