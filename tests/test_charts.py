"""SVG chart rendering: structure checks via XML parsing."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from defectlab import ValidationError, arrival_chart

SVG = "{http://www.w3.org/2000/svg}"


def _root(svg_text: str) -> ET.Element:
    assert svg_text.startswith('<?xml version="1.0"')
    return ET.fromstring(svg_text)


def _by_class(root: ET.Element, tag: str, css: str) -> list[ET.Element]:
    return [e for e in root.iter(f"{SVG}{tag}") if e.get("class") == css]


class TestArrivalChart:
    def test_one_bar_per_bucket(self):
        root = _root(arrival_chart([2, 1, 0, 4]))
        bars = _by_class(root, "rect", "bar")
        assert len(bars) == 4
        # Background rect exists but carries no class.
        rects = list(root.iter(f"{SVG}rect"))
        assert len(rects) == 5

    def test_bar_heights_track_counts(self):
        root = _root(arrival_chart([2, 4]))
        heights = [float(b.get("height")) for b in _by_class(root, "rect", "bar")]
        assert heights[1] == pytest.approx(2 * heights[0], abs=0.1)

    def test_zero_count_bucket_renders_flat(self):
        root = _root(arrival_chart([3, 0, 1]))
        heights = [float(b.get("height")) for b in _by_class(root, "rect", "bar")]
        assert heights[1] == 0.0

    def test_fitted_overlay_is_a_polyline(self):
        root = _root(arrival_chart([2, 1, 4], fitted=[1.5, 2.5, 2.0]))
        (fit,) = _by_class(root, "polyline", "fit")
        assert len(fit.get("points").split()) == 3

    def test_no_overlay_without_fitted(self):
        root = _root(arrival_chart([2, 1, 4]))
        assert _by_class(root, "polyline", "fit") == []

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one bucket"):
            arrival_chart([])

    def test_title_is_escaped(self):
        text = arrival_chart([1, 2], title="a <b> & c")
        root = _root(text)  # would raise on malformed XML
        titles = [e.text for e in root.iter(f"{SVG}text")]
        assert "a <b> & c" in titles


class TestDocumentShape:
    def test_fixed_canvas_and_background(self):
        root = _root(arrival_chart([1]))
        assert root.get("viewBox") == "0 0 640 400"
        background = next(root.iter(f"{SVG}rect"))
        assert background.get("fill") == "#ffffff"

    def test_no_external_references(self):
        text = arrival_chart([1, 2, 1], fitted=[1.0, 1.5, 1.0])
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "<script" not in text
