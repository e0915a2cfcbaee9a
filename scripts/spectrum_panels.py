#!/usr/bin/env python3
"""Spectrum panels: full (Re, Im) scatter at j = 20 for several polarizations,
plus the real parts of the M = 0 sector across a polarization sweep."""

import argparse

from spinbath.cli import main as cli


def run(outdir: str) -> None:
    cli([
        "spectrum",
        "--two-j", "40",
        "--p", "0 0.5 0.99",
        "--out", f"{outdir}/panels",
    ])
    cli([
        "spectrum",
        "--two-j", "40",
        "--p", "0 0.2 0.4 0.5 0.6 0.8 0.9 0.99 1",
        "--m", "0",
        "--out", f"{outdir}/m0_sweep",
    ])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/spectrum")
    args = ap.parse_args()
    run(args.out)
