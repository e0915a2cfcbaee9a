"""The four benchmark workloads: CLI argument lists, operations and work units.

Each workload is one experiment script of the paper, run through the public
CLI.  ``build(name, seed)`` turns a seed into physical inputs; ``seed=None``
gives the canonical inputs whose outputs are stored under ``reference/``.

The seed never changes 2j, the sector count or the number of time points, and
it never changes the arithmetic work of a pass:

* ``scan`` and ``sweep`` vary the rate Gamma, the field h, the coalescence
  bounds (``scan``) and small shifts of p (``sweep``).  The eigensolver runs a
  fixed number of inverse-iteration steps, so its work does not depend on them.
* The propagator substeps every output interval into ceil(||A|| dt / 4)
  exponentials and caches them by the float value of the substep, so moving h,
  Gamma or the grid end continuously changes the work by up to 2x (measured at
  2j = 80).  The ``evolve_*`` workloads therefore rescale Gamma, h and the grid
  end together by an exact power of two (a change of time unit, exact in binary
  floating point), and ``evolve_sector0`` also moves p and the doublet
  amplitude b of the slow-down run, which leaves every substep count unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# thermodynamic-limit critical value of Re(lambda)/j at p = 0.5, M = 0, Gamma = 1
LAMBDA_C_PER_J = -0.133975


COHERENT = "coherent:theta=1.5707963267948966:phi=0"


@dataclass
class Call:
    """One CLI invocation; ``--config`` and ``--out`` are added per pass."""

    argv: list
    config: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    seed: int | None
    calls: list
    points: list  # operations besides the CLI calls: (two_j, p, M)
    work_units: int  # per pass, see ``work_unit``
    work_unit: str
    inputs: dict  # the seeded physical inputs, for the record and the checks
    btc_two_js: tuple = ()  # sizes whose <Jx>/j must follow the p = 0 closed form
    all_eigvecs: bool = False  # the CLI reads every eigenvector, so all are checked

    @property
    def ops_per_pass(self) -> int:
        return len(self.points) + len(self.calls)


def _sizes(smoke: bool, full: str, small: str) -> list:
    return [int(t) for t in (small if smoke else full).split()]


def _join(values) -> str:
    return " ".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def build(name: str, seed: int | None, smoke: bool = False, jobs: int = 2) -> Workload:
    """Inputs of workload ``name`` for ``seed`` (None: canonical inputs)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(seed) if seed is not None else None
    return _BUILDERS[name](rng, smoke, jobs, seed)


def _rate_field(rng) -> tuple[float, float]:
    if rng is None:
        return 1.0, 1.0
    return _log_uniform(rng, 0.8, 1.25), _log_uniform(rng, 0.5, 2.0)


def _time_unit(rng) -> float:
    return 1.0 if rng is None else 2.0 ** rng.randint(-2, 2)


def _scan(rng, smoke, jobs, seed):
    gamma, h = _rate_field(rng)
    factor = 1.0 if rng is None else _log_uniform(rng, 0.8, 1.25)
    two_js = _sizes(smoke, "80 320 640 1280", "8 12 16")
    ps = [0.3, 0.5, 0.7]
    bounds = [b * factor for b in (1e-4, 1e-5, 1e-6)]
    call = Call(
        ["scaling", "--two-j", _join(two_js), "--p", _join(ps), "--gamma-bound", _join(bounds)],
        {"gamma": repr(gamma), "h": repr(h), "lambda_c_per_j": repr(LAMBDA_C_PER_J * gamma)},
    )
    points = [(tj, p, 0) for p in ps for tj in two_js]
    return Workload(
        "scan", seed, [call], points,
        work_units=len(ps) * sum(tj + 1 for tj in two_js),
        work_unit="eigenpairs",
        inputs={"gamma": gamma, "h": h, "gamma_bounds": bounds, "two_j": two_js, "p": ps},
    )


def _sweep(rng, smoke, jobs, seed):
    gamma, h = _rate_field(rng)
    two_j = 16 if smoke else 80
    if rng is None:
        ps = [0.0, 0.5, 0.99]
    else:
        ps = [0.0, 0.5 + rng.uniform(-0.02, 0.02), 0.99 + rng.uniform(-0.004, 0.004)]
    spectrum = Call(
        ["spectrum", "--two-j", str(two_j), "--p", _join(ps), "--jobs", str(jobs)],
        {"gamma": repr(gamma), "h": repr(h)},
    )
    points = [(two_j, p, M) for p in ps for M in range(-two_j, two_j + 1)]
    return Workload(
        "sweep", seed, [spectrum, Call(["verify"])], points,
        work_units=len(ps) * (two_j + 1) ** 2,
        work_unit="eigenpairs",
        inputs={"gamma": gamma, "h": h, "two_j": [two_j], "p": ps, "jobs": jobs},
        all_eigvecs=True,
    )


def _evolve_coherent(rng, smoke, jobs, seed):
    unit = _time_unit(rng)
    two_js = _sizes(smoke, "20 40 80", "4 8 16")
    n_times = 61
    call = Call(
        ["evolve", "--two-j", _join(two_js), "--p", "0", "--initial", COHERENT,
         "--times", f"lin:0:{3.0 / unit!r}:{n_times}"],
        {"gamma": repr(unit), "h": repr(unit), "cross_check_max_two_j": str(max(two_js))},
    )
    points = [(tj, 0.0, M) for tj in two_js for M in range(-tj, tj + 1)]
    return Workload(
        "evolve_coherent", seed, [call], points,
        work_units=len(points) * n_times,
        work_unit="sector-states",
        inputs={"gamma": unit, "h": unit, "t_end": 3.0 / unit, "two_j": two_js, "p": [0.0]},
        btc_two_js=tuple(two_js),
    )


def _evolve_sector0(rng, smoke, jobs, seed):
    unit = _time_unit(rng)
    p = 0.5 if rng is None else 0.5 + rng.uniform(-0.02, 0.02)
    b = 1 / 6 if rng is None else rng.uniform(1 / 7, 1 / 5)
    fock_two_js = _sizes(smoke, "20 60 120", "4 8 16")
    hp_two_js = _sizes(smoke, "40 80 160 320", "8 12 16")
    config = {"gamma": repr(unit), "h": repr(unit)}
    fock = Call(
        ["evolve", "--two-j", _join(fock_two_js), "--p", "0", "--initial", "fock:m=top",
         "--times", f"lin:0:{3000.0 / unit!r}:121"],
        config,
    )
    slowdown = Call(
        ["evolve", "--two-j", _join(hp_two_js), "--p", repr(p), "--initial", f"hp-doublet:a=0:b={b!r}",
         "--times", f"lin:0:{3.0 / unit!r}:61"],
        config,
    )
    points = [(tj, 0.0, 0) for tj in fock_two_js] + [(tj, p, 0) for tj in hp_two_js]
    return Workload(
        "evolve_sector0", seed, [fock, slowdown], points,
        work_units=121 * len(fock_two_js) + 61 * len(hp_two_js),
        work_unit="sector-states",
        inputs={"gamma": unit, "h": unit, "p": p, "b": b, "fock_two_j": fock_two_js, "hp_two_j": hp_two_js},
    )


_BUILDERS = {"scan": _scan, "sweep": _sweep, "evolve_coherent": _evolve_coherent, "evolve_sector0": _evolve_sector0}
NAMES = tuple(_BUILDERS)
