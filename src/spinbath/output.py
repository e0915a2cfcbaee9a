"""Deterministic file output: CSV with 17-significant-digit floats, minimal
static SVG plots, and the key=value run-configuration format.

CSV is the data contract; SVG is convenience only.  Identical configurations
must produce byte-identical CSV, so every cell is formatted by the one rule
of fmt(), which write_csv applies a row, or a group's shared lead cells, at a time.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

__all__ = [
    "fmt",
    "write_csv",
    "RowGroups",
    "read_config",
    "parse_time_grid",
    "parse_float_list",
    "parse_int_list",
    "parse_size_list",
    "parse_initial",
    "svg_scatter",
    "svg_lines",
]


def _spec(kind: type) -> str | None:
    """%-spec of a cell of this type, None for complex: the one rule behind fmt and write_csv."""
    if issubclass(kind, complex):
        return None
    if issubclass(kind, (bool, np.bool_, int, np.integer)):
        return "%d"  # a bool is 1 or 0
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


def fmt(x) -> str:
    """Stable scalar formatting: floats at 17 significant digits."""
    spec = _spec(type(x))
    return f"{x.real:.17g}{x.imag:+.17g}j" if spec is None else spec % (x,)


class RowGroups:
    """Rows stored as (lead, tails) groups: the rows lead + tail, for each tail of each group.

    write_csv formats the lead cells of a group once for all its rows; len()
    counts the rows.
    """

    def __init__(self, groups):
        self.groups = [(tuple(lead), tails) for lead, tails in groups]

    def __len__(self) -> int:
        return sum(len(tails) for _, tails in self.groups)


def write_csv(path: str, header: list, rows) -> str:
    """UTF-8 comma-separated file with a header row; each cell reads as fmt(cell).

    Cells are formatted by one %-template per tuple of cell types.  A complex
    cell has no single %-spec, so its cells go through fmt one by one; no
    command writes one, but write_csv still equals fmt per cell for any input.
    rows may be a RowGroups, whose lead cells are formatted once per group.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    groups = rows.groups if isinstance(rows, RowGroups) else [((), rows)]
    templates = {}

    def text(cells: tuple) -> str:
        kinds = tuple(map(type, cells))
        if kinds not in templates:
            specs = list(map(_spec, kinds))
            templates[kinds] = None if None in specs else ",".join(specs)
        line = templates[kinds]
        return line % cells if line is not None else ",".join(map(fmt, cells))

    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for lead, tails in groups:
                head = text(lead)
                prefix = head + "," if lead else ""
                for row in tails:
                    row = tuple(row)
                    fh.write((prefix + text(row) if row else head) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


def read_config(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored; a key set twice is a ValueError."""
    cfg, lines = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = (x.strip() for x in line.split("=", 1))
                if key in cfg:
                    raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
                cfg[key], lines[key] = val, lineno
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _num(tok: str) -> float:
    """Float with simple fraction support, e.g. '1/6'."""
    tok = tok.strip()
    if "/" in tok:
        return float(Fraction(tok))
    return float(tok)


def parse_float_list(spec: str) -> list[float]:
    return [_num(t) for t in spec.replace(",", " ").split()]


def parse_int_list(spec: str) -> list[int]:
    return [int(t) for t in spec.replace(",", " ").split()]


def parse_size_list(spec: str) -> list[int]:
    """List of spin sizes 2j: positive integers only."""
    sizes = parse_int_list(spec)
    bad = [n for n in sizes if n < 1]
    if bad:
        raise ValueError(f"2j must be a positive integer, got {bad[0]}")
    return sizes


def parse_time_grid(spec: str) -> np.ndarray:
    """Grid spec lin:START:STOP:NUM or log:START:STOP:NUM (inclusive ends)."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"time grid must be kind:start:stop:num, got {spec!r}")
    kind, a, b, n = parts[0], _num(parts[1]), _num(parts[2]), int(parts[3])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"time grid endpoints must be finite, got {spec!r}")
    if n < 1:
        raise ValueError("time grid needs at least one point")
    if kind == "lin":
        return np.linspace(a, b, n)
    if kind == "log":
        if a <= 0 or b <= 0:
            raise ValueError("log grid requires positive endpoints")
        return np.logspace(math.log10(a), math.log10(b), n)
    raise ValueError(f"unknown grid kind {kind!r}")


# initial-state selectors and their keys with defaults; fock's m has none
_SELECTORS = {"hp-doublet": {"a": 0.0, "b": 0.0}, "fock": {"m": None}, "coherent": {"theta": math.pi / 2, "phi": 0.0}}


def parse_initial(spec: str) -> tuple[str, dict]:
    """Initial-state selector: name[:key=value]* with fraction-friendly values.

    Names: hp-doublet (keys a, b), fock (key m; m=top is +inf, the
    highest-weight state), coherent (keys theta, phi); any other name or key,
    and any value that is not finite (m=top aside), is a ValueError.
    """
    parts = spec.split(":")
    name = parts[0].strip().lower()
    if name not in _SELECTORS:
        raise ValueError(f"unknown initial-state selector {name!r}")
    kwargs = dict(_SELECTORS[name])
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError(f"selector argument {tok!r} must be key=value")
        k, v = (x.strip() for x in tok.split("=", 1))
        if k not in kwargs:
            raise ValueError(f"{name} selector takes no key {k!r} (keys: {', '.join(kwargs)})")
        kwargs[k] = math.inf if (k, v) == ("m", "top") else _num(v)
        if not math.isfinite(kwargs[k]) and (k, v) != ("m", "top"):
            raise ValueError(f"{name} selector value {k}={v} is not finite")
    if name == "fock" and kwargs["m"] is None:
        raise ValueError("fock selector needs m=<value> (or m=top for m=j)")
    return name, kwargs


_SVG_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]


def _axes(xs, ys, width, height, pad):
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    # an axis without spread gets one; + 1 alone is lost to rounding from |x0| = 2^53 on
    if x1 == x0:
        x1 = x0 + max(1.0, abs(x0))
    if y1 == y0:
        y1 = y0 + max(1.0, abs(y0))
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    sy = lambda y: height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
    return sx, sy, (x0, x1, y0, y1)


def _svg_frame(width, height, pad, box, xlabel, ylabel, title):
    x0, x1, y0, y1 = box
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width-2*pad}" height="{height-2*pad}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width/2:.1f}" y="{height-8:.1f}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{height/2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height/2:.1f})">{ylabel}</text>',
        f'<text x="{width/2:.1f}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="{pad}" y="{height-pad+14:.1f}" font-size="10">{x0:.4g}</text>',
        f'<text x="{width-pad:.1f}" y="{height-pad+14:.1f}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad-4}" y="{height-pad:.1f}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" text-anchor="end" font-size="10">{y1:.4g}</text>',
    ]
    return parts


def _svg_plot(path, groups, marks, xlabel, ylabel, title):
    """Framed 640 x 480 plot with a legend; marks(xs, ys, sx, sy, color) draws one group."""
    width, height, pad = 640, 480, 48
    all_x = np.concatenate([np.asarray(g[1], float) for g in groups if len(g[1])])
    all_y = np.concatenate([np.asarray(g[2], float) for g in groups if len(g[2])])
    sx, sy, box = _axes(all_x, all_y, width, height, pad)
    parts = _svg_frame(width, height, pad, box, xlabel, ylabel, title)
    for gi, (label, xs, ys) in enumerate(groups):
        color = _SVG_COLORS[gi % len(_SVG_COLORS)]
        parts.extend(marks(xs, ys, sx, sy, color))
        parts.append(
            f'<text x="{width-pad-6}" y="{pad+14+14*gi}" text-anchor="end" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _points(xs, ys, sx, sy):
    """Plot coordinates of the points, mapped as arrays."""
    return zip(sx(np.asarray(xs, float)).tolist(), sy(np.asarray(ys, float)).tolist())


def _circles(xs, ys, sx, sy, color):
    circle = f'<circle cx="%.2f" cy="%.2f" r="2.2" fill="{color}" fill-opacity="0.75"/>'
    return [circle % xy for xy in _points(xs, ys, sx, sy)]


def _polyline(xs, ys, sx, sy, color):
    pts = " ".join("%.2f,%.2f" % xy for xy in _points(xs, ys, sx, sy))
    return [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>']


def svg_scatter(path, groups, xlabel="", ylabel="", title=""):
    """Scatter plot; groups is a list of (label, xs, ys) drawn in color order."""
    return _svg_plot(path, groups, _circles, xlabel, ylabel, title)


def svg_lines(path, groups, xlabel="", ylabel="", title=""):
    """Polyline plot; groups is a list of (label, xs, ys)."""
    return _svg_plot(path, groups, _polyline, xlabel, ylabel, title)
