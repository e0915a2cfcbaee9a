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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,config,points,label", [
    (["--two-j", "3", "--p", "0.5", "--m", "1 -1"], "h=1e308", 6, "Re(lambda)/j"),
    (["--two-j", "1", "--p", "0"], "gamma0=1e308", 4, "Re(lambda)/(2j)"),
], ids=["h", "gamma0"])
def test_spectrum_plot_near_the_double_limit_has_finite_coordinates(tmp_path, argv, config, points, label):
    # axis limits of +-1e308 used to be subtracted (h), and Re(lambda)/j = -1e308 / (1/2) used to
    # overflow (gamma0): both wrote nan coordinates with RuntimeWarnings, errors here
    from spinbath.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    assert main(["spectrum", *argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    path = tmp_path / "out" / "spectrum.svg"
    assert "nan" not in path.read_text()
    coords = [float(v) for t in tags(path, "circle") for v in re.search(r'cx="([^"]*)" cy="([^"]*)"', t).groups()]
    assert len(coords) == 2 * points and all(48 <= v <= 592 for v in coords)
    assert f">{label}</text>" in path.read_text()


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 3.0, 2.0**900, 2.0**1021])
def test_svg_coordinates_do_not_depend_on_a_power_of_two(tmp_path, scale):
    # the axis map divides by a power of two before it subtracts: data scaled by a power of two
    # give the same coordinates, up to data spanning -1e308 .. 1e308 (at 2^1021)
    def coordinates(factor):
        groups = [(label, (np.asarray(xs) - 1.5) * factor, (np.asarray(ys) - 4.5) * factor)
                  for label, xs, ys in GROUPS]
        path = svg_scatter(str(tmp_path / f"{factor!r}.svg"), groups)
        return [re.search(r'cx="([^"]*)" cy="([^"]*)"', t).groups() for t in tags(path, "circle")]

    assert coordinates(scale) == coordinates(1.0)
    assert coordinates(-scale) == [(f"{640 - float(x):.2f}", f"{480 - float(y):.2f}") for x, y in coordinates(1.0)]


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
