#!/usr/bin/env python3
"""Dynamics at the unpolarized critical point: undamped transverse
oscillations as j grows, and entropy growth to saturation from the
highest-weight state."""

import argparse

from spinbath.cli import main as cli


def run(outdir: str) -> None:
    # <Jx>/j curves; damping rate halves with each doubling of j
    cli([
        "evolve",
        "--two-j", " ".join(str(20 * 2**k) for k in range(0, 7)),
        "--p", "0",
        "--initial", "coherent:theta=1.5707963267948966:phi=0",
        "--times", "lin:0:30:301",
        "--out", f"{outdir}/oscillations",
    ])
    # entropy traces; at p = 0 every sector propagates in its orthogonal eigenbasis,
    # so sizes far past these run too (2j = 1280 on this grid takes seconds)
    cli([
        "evolve",
        "--two-j", "20 60 120",
        "--p", "0",
        "--initial", "fock:m=top",
        "--times", "lin:0:3000:121",
        "--out", f"{outdir}/entropy",
    ])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/critical")
    args = ap.parse_args()
    run(args.out)
