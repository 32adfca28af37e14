"""Top-down SVG sketch: well-formed output whatever the trajectory labels hold."""

from __future__ import annotations

from xml.dom import minidom

import numpy as np

from covis.report import top_down_svg
from helpers import random_trajectory


def test_top_down_svg_escapes_labels_and_parses():
    rng = np.random.default_rng(0)
    labels = ["a<b & c", "say \"hi\" > 'bye'", "plain"]
    svg = top_down_svg([random_trajectory(rng, 3, label) for label in labels])
    doc = minidom.parseString(svg)
    titles = [t.firstChild.data for t in doc.getElementsByTagName("title")]
    assert titles == labels
    assert "<title>a&lt;b &amp; c</title>" in svg
