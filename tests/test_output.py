import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbath.output import RowGroups, fmt, svg_lines, svg_scatter, write_csv

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
    # x spans 0 .. 3 and y 0 .. 9 inside the 48 px margins of the 640 x 480 frame
    cx_cy = [re.search(r'cx="([^"]*)" cy="([^"]*)"', t).groups() for t in tags(path, "circle")]
    assert cx_cy[0] == ("48.00", "389.33") and cx_cy[2] == ("410.67", "48.00") and cx_cy[-1] == ("592.00", "432.00")
    assert tags(path, "polyline") == []
    assert len(legend(path)) == len(GROUPS)


@pytest.mark.parametrize("x", [0.5, -5e16, 5e16, 1e308])
def test_svg_axis_without_spread_keeps_a_scale(tmp_path, x):
    # every point at one x: the axis runs from x up by max(1, |x|), where x + 1 alone rounds to x
    # from 2^53 on (0 / 0 is a RuntimeWarning, an error here); the points sit on the left edge
    path = svg_scatter(str(tmp_path / "s.svg"), [("a", [x, x], [1.0, 2.0])])
    assert [re.search(r'cx="([^"]*)"', t).group(1) for t in tags(path, "circle")] == ["48.00", "48.00"]


def test_svg_lines_one_polyline_per_group(tmp_path):
    path = svg_lines(str(tmp_path / "sub" / "l.svg"), GROUPS)
    lines = tags(path, "polyline")
    assert len(lines) == len(GROUPS)
    assert [len(re.search(r'points="([^"]*)"', t).group(1).split()) for t in lines] == [3, 2, 1]
    assert tags(path, "circle") == []
    assert len(legend(path)) == len(GROUPS)


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225073858507201e-308, 1 / 3, 1e300]
FLOATS = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(EDGE_FLOATS))
CELLS = [
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.complex_numbers(),
]


def reference_fmt(x) -> str:
    """fmt as a chain of type tests, the form it had before cells were formatted by %-spec."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def expected_csv(rows) -> bytes:
    return ("a,b\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)).encode("utf-8")


def written_csv(rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return Path(write_csv(str(Path(tmp) / "x.csv"), ["a", "b"], rows)).read_bytes()


@given(st.data())
def test_write_csv_is_fmt_per_cell(data):
    # rows share a few tuples of cell types, so each row template is used for several rows
    kinds = data.draw(st.lists(st.lists(st.sampled_from(CELLS), max_size=6), min_size=1, max_size=3))
    rows = data.draw(st.lists(st.sampled_from(kinds).flatmap(lambda row: st.tuples(*row)), max_size=12))
    assert written_csv([list(r) for r in rows]) == expected_csv(rows)
    assert [list(map(fmt, row)) for row in rows] == [list(map(reference_fmt, row)) for row in rows]


LEADS = st.lists(st.one_of(*CELLS, st.sampled_from(["%", "%d", "%s%%", "100%,"])), max_size=6)


@given(st.data())
def test_grouped_write_csv_is_fmt_per_cell(data):
    # groups of rows after shared lead cells: leads may hold % signs, and the rows of one group
    # mix tuples of cell types; each line must read as fmt of every cell of lead + row
    kinds = data.draw(st.lists(st.lists(st.sampled_from(CELLS), max_size=4), min_size=1, max_size=3))
    tails = st.lists(st.sampled_from(kinds).flatmap(lambda row: st.tuples(*row)), max_size=6)
    groups = data.draw(st.lists(st.tuples(LEADS, tails), max_size=5))
    rows = RowGroups(groups)
    flat = [tuple(lead) + tail for lead, group in groups for tail in group]
    assert len(rows) == len(flat)
    assert written_csv(rows) == expected_csv(flat)


def test_grouped_write_csv_examples():
    groups = [((80, 0.5, "p%d"), [(0, 1.5), (1, "x%s"), (2, 2.5)]), ((), [(3,)]), (("lead",), [()])]
    assert written_csv(RowGroups(groups)) == b"a,b\n80,0.5,p%d,0,1.5\n80,0.5,p%d,1,x%s\n80,0.5,p%d,2,2.5\n3\nlead\n"
