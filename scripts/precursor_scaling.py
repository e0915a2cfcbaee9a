#!/usr/bin/env python3
"""Finite-size scaling of the coalescence boundary in the M = 0 sector.

Emits the lowest doublet eigenvalues and d1 against j, and the precursor
eigenvalue against the critical value for several coalescence bounds.  Bounds
below ~1e-4 stay under the collapsed-basis distance plateau up to j = 320 and
give the clean power-law approach to the critical line.  The second run sweeps
eight values of p; each p's precursor rows are measured against its own
critical value, -Gamma (1 - sqrt(1 - p^2)) per j.
"""

import argparse

from spinbath.cli import main as cli


def run(outdir: str) -> None:
    cli([
        "scaling",
        "--two-j", "40 80 160 320 640",
        "--p", "0.5",
        "--gamma-bound", "1e-4 1e-5 1e-6",
        "--out", f"{outdir}/precursor_p05",
    ])
    # doublet-distance decay across polarizations (small sizes carry the
    # signal at large p; the scan stops at the double-precision floor)
    cli([
        "scaling",
        "--two-j", " ".join(str(t) for t in range(6, 122, 4)),
        "--p", "0.05 0.1 0.2 0.35 0.5 0.7 0.9 0.999",
        "--gamma-bound", "1e-4",
        "--out", f"{outdir}/d1_sweep",
    ])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/scaling")
    args = ap.parse_args()
    run(args.out)
