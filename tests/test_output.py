import re

import numpy as np

from spinbath.output import svg_lines, svg_scatter

GROUPS = [
    ("a", [0.0, 1.0, 2.0], [1.0, 4.0, 9.0]),
    ("b", np.array([0.5, 1.5]), np.array([2.0, 3.0])),
    ("c", [3.0], [0.0]),
]


def tags(path, name):
    with open(path, encoding="utf-8") as fh:
        return re.findall(rf"<{name}\b[^>]*>", fh.read())


def legend(path):
    return [t for t in tags(path, "text") if 'font-size="11"' in t]


def test_svg_scatter_one_circle_per_point(tmp_path):
    path = svg_scatter(str(tmp_path / "s.svg"), GROUPS, xlabel="x", ylabel="y", title="t")
    assert len(tags(path, "circle")) == sum(len(g[1]) for g in GROUPS)
    assert tags(path, "polyline") == []
    assert len(legend(path)) == len(GROUPS)


def test_svg_lines_one_polyline_per_group(tmp_path):
    path = svg_lines(str(tmp_path / "sub" / "l.svg"), GROUPS)
    lines = tags(path, "polyline")
    assert len(lines) == len(GROUPS)
    assert [len(re.search(r'points="([^"]*)"', t).group(1).split()) for t in lines] == [3, 2, 1]
    assert tags(path, "circle") == []
    assert len(legend(path)) == len(GROUPS)
