"""One workload in one fresh process: a checked warm-up pass, then timed passes.

Started by ``run.py`` with a JSON spec as its only argument; prints one JSON
line with the pass times, peak memory, operation counts, the environment
record and, for a traced run, the per-layer metrics.  It calls the public
entry point ``spinbath.cli.main(argv)`` in-process, as the experiment scripts
do.

Modes:
  run      checked pass (untimed), seeded passes, one canonical pass
  trace    checked pass (untimed), seeded and canonical passes, traced passes
  ref1     one timed pass (run under OPENBLAS_NUM_THREADS=1 with --jobs 1)
  capture  canonical pass whose outputs become the stored reference

The canonical pass has the same work as a seeded one; its outputs are compared
with ``reference/``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
import instrument
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_spinbath():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import spinbath.cli

    took = time.perf_counter() - t0
    src = Path(spinbath.cli.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"spinbath imported from {src}, not from this checkout's src/")
    return spinbath.cli, took


def environment() -> dict:
    """Interpreter, library versions and the BLAS threads actually in use."""
    import numpy
    import scipy

    blas = []
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    for path in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                f = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                g = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if f is not None and entry["threads"] is None:
                    f.argtypes, f.restype = [], ctypes.c_int
                    entry["threads"] = f()
                if g is not None and entry["config"] is None:
                    g.argtypes, g.restype = [], ctypes.c_char_p
                    entry["config"] = g().decode()
        blas.append(entry)
    threads = [b["threads"] for b in blas if b["threads"] is not None]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": max(threads) if threads else None,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Prepared CLI argument lists of one workload, run as passes."""

    def __init__(self, cli, wl, outdir: Path):
        self.cli, self.wl, self.outdir = cli, wl, outdir
        if outdir.exists():
            shutil.rmtree(outdir)
        outdir.mkdir(parents=True)
        self.argvs, self.outdirs = [], []
        for i, call in enumerate(wl.calls):
            argv = list(call.argv)
            if call.config:
                cfg = outdir / f"c{i}.cfg"
                cfg.write_text("".join(f"{k}={v}\n" for k, v in call.config.items()))
                argv += ["--config", str(cfg)]
            if call.command != "verify":
                argv += ["--out", str(outdir / f"c{i}")]
            self.argvs.append(argv)
            self.outdirs.append(outdir / f"c{i}")

    def run_pass(self, patch=None) -> dict:
        """Runs every call once; ``patch(i)`` gives a context for call i."""
        codes, stdouts, errors = [], [], []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.argvs):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), (patch(i) if patch else contextlib.nullcontext()):
                    code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                code = None
                errors.append(traceback.format_exc(limit=3))
            codes.append(code)
            stdouts.append(buf.getvalue())
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "codes": codes, "stdouts": stdouts, "errors": errors, "hashes": self.hashes()}

    def hashes(self) -> dict:
        out = {}
        for path in sorted(self.outdir.rglob("*.csv")):
            out[path.relative_to(self.outdir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out


def checked_pass(runner) -> tuple[dict, dict]:
    """One untimed pass with the oracle observers; returns (pass, failures)."""
    checker = checks.Checker(runner.wl)

    def patch(i):
        if runner.wl.calls[i].command == "verify":
            return contextlib.nullcontext()
        return instrument.Patch(checker.observers())

    res = runner.run_pass(patch)
    for i, (code, out) in enumerate(zip(res["codes"], res["stdouts"])):
        if code != 0:
            checker.call_failed(i, f"exit code {code}")
        elif runner.wl.calls[i].command == "verify" and not checks.verify_lines(out)[1]:
            checker.call_failed(i, "verify reported a failing check")
    if all(c == 0 for c in res["codes"]):
        checks.csv_checks(runner.wl, runner.outdirs, checker)
    return res, checker.verdict()


def timed_passes(runner, seconds, patch=None) -> list:
    """Passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(patch))
    return passes


def _failed_points(fails) -> list:
    return [k for k, v in fails.items() if v and k[0] != "call"]


def main() -> int:
    spec = json.loads(sys.argv[1])
    cli, import_s = _import_spinbath()
    name, mode, smoke = spec["workload"], spec["mode"], spec["smoke"]
    work = ROOT / spec["workdir"]
    result = {"mode": mode, "import_s": import_s, "env": environment()}
    refdir = HERE / "reference" / ("smoke" if smoke else "full") / name

    canonical = Runner(cli, workloads.build(name, None, smoke, spec["jobs"]), work / "canonical")
    if mode == "capture":
        res, fails = checked_pass(canonical)
        if any(c != 0 for c in res["codes"]):
            raise SystemExit(f"canonical pass failed: {res['codes']} {res['errors']}")
        for i, out in enumerate(res["stdouts"]):
            checks.write_reference(refdir / f"c{i}", canonical.outdirs[i], out, _failed_points(fails))
        print(json.dumps({"failures": {str(k): v for k, v in fails.items() if v}}))
        return 0

    wl = workloads.build(name, spec["seed"], smoke, spec["jobs"])
    runner = Runner(cli, wl, work / "seeded")
    result["inputs"] = wl.inputs
    result["work_units"], result["work_unit"] = wl.work_units, wl.work_unit

    if mode == "ref1":
        res = runner.run_pass()
        result["passes"] = [res["seconds"]]
        result["attempted"] = len(wl.calls)
        result["failed"] = sum(c != 0 for c in res["codes"])
        print(json.dumps(result))
        return 0

    attempted, failed, failures, problems = 0, 0, {}, []

    def count(label, ops, fails):
        nonlocal attempted, failed
        attempted += ops
        for k, v in fails.items():
            if v:
                failed += 1
                failures.setdefault(f"{label} {k}", v)

    # untimed warm-up pass on the seeded inputs with every oracle; its operations are
    # counted once per run, after the timed passes, so the counts do not depend on
    # how many passes fit in --seconds
    check_res, check_fails = checked_pass(runner)
    ok_ratio = 1.0 - sum(1 for v in check_fails.values() if v) / wl.ops_per_pass
    problems += check_res["errors"]
    reproduced = True

    def seeded(label, seconds, patch=None) -> list:
        nonlocal reproduced
        passes = timed_passes(runner, seconds, patch)
        bad = [p for p in passes if any(c != 0 for c in p["codes"]) or p["hashes"] != check_res["hashes"]]
        for p in bad[:3]:
            problems.append(f"{label} pass did not reproduce the checked outputs: codes {p['codes']}")
            problems.extend(p["errors"])
        if bad:
            # the timed passes are repeats of the checked one: if any of them does not
            # reproduce its outputs, every operation of the seeded inputs fails
            reproduced = False
        return [p["seconds"] for p in passes]

    def canonical_pass() -> float:
        """One more timed pass, on the canonical inputs, checked against the reference."""
        res = canonical.run_pass()
        skip = _failed_points(check_fails)
        fails = {}
        for i, (code, out) in enumerate(zip(res["codes"], res["stdouts"])):
            reasons = [f"exit code {code}"] if code != 0 else []
            if code == 0:
                reasons += checks.compare_reference(refdir / f"c{i}", canonical.outdirs[i], out, skip)
            fails[("call", i)] = reasons
            problems.extend(reasons[:5])
        problems.extend(res["errors"])
        count("canonical", len(res["codes"]), fails)
        return res["seconds"]

    # the canonical pass has the work of a seeded one and closes its share of the budget
    estimate = check_res["seconds"]
    if mode == "run":
        result["passes"] = seeded("timed", spec["seconds"] - estimate) + [canonical_pass()]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result["passes"] = seeded("untraced", spec["seconds"] / 2 - estimate) + [canonical_pass()]
        recorder = instrument.Recorder()
        gauges = layers.Gauges(recorder)
        tracer = instrument.Patch(gauges.observers(), recorder, {layers.POOL: gauges.pool_hook})
        result["traced_passes"] = seeded("traced", spec["seconds"] / 2, lambda i: tracer)
        result["layers"] = layers.summarize(recorder.spans, gauges, len(result["traced_passes"]))
        spans_path = ROOT / spec["spans"]
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")

    if reproduced:
        count("checked", wl.ops_per_pass, check_fails)
    else:
        ok_ratio = 0.0
        count("timed", wl.ops_per_pass, {("op", i): ["not reproduced"] for i in range(wl.ops_per_pass)})
    result.update(
        ok_ratio=ok_ratio,
        attempted=attempted,
        failed=failed,
        correct=all(c == 0 for c in check_res["codes"]) and not problems,
        problems=problems[:20],
        failures=dict(list(failures.items())[:20]),
    )
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
