#!/usr/bin/env python3
"""spinbath benchmark: four paper-experiment workloads through the public CLI.

Driver interface (run from the root of a checkout):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

prints human-readable lines and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.

Other modes:
    --report             every workload, both runs, one table (about 5 minutes)
    --smoke              all workloads at 2j <= 16 with tracing and checks; the
                         benchmark's own test (nonzero exit on any failure)
    --write-reference    store the canonical outputs of the code under test as
                         the reference CSVs (only when the reference changes)

See perfbench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

OUT = ".perfbench_out"
LIMIT_S = 170  # the whole run must end within 180 s
COLD_STARTS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
RUN_LAYER_METRICS = {
    "run.pass_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "ref1.pass_s": "s",
    "ref1.work_per_s": "1/s",
    "env.blas_threads": "count",
    "env.jobs": "count",
}


class BenchError(RuntimeError):
    pass


def _child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def _run(cmd, deadline, env=None) -> str:
    """Runs a child to completion (killed at the deadline); returns stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env or _child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{cmd[1]} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def cold_starts(n, deadline) -> list:
    """Seconds from spawning a fresh interpreter until ``import spinbath.cli`` is done."""
    code = (
        "import time, spinbath.cli, sys; "
        "sys.stdout.write(repr(time.monotonic()) + ' ' + spinbath.cli.__file__)"
    )
    out = []
    for _ in range(n):
        t0 = time.monotonic()
        t1, path = _run([sys.executable, "-c", code], deadline).split(" ", 1)
        if ROOT / "src" not in Path(path).resolve().parents:
            raise BenchError(f"spinbath imported from {path}, not from this checkout")
        out.append(float(t1) - t0)
    return out


def worker(spec, deadline, env_extra=None) -> dict:
    out = _run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], deadline, _child_env(env_extra))
    return json.loads(out.strip().splitlines()[-1])


def git_hash():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def measure(name, seed, seconds, trace, smoke=False) -> dict:
    """One driver run of one workload; returns the record (metrics included)."""
    deadline = time.monotonic() + LIMIT_S
    if not (ROOT / "src" / "spinbath" / "cli.py").is_file():
        raise BenchError(f"no spinbath sources under {ROOT / 'src'}")
    jobs = min(2, len(os.sched_getaffinity(0)))
    tag = f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    spec = {"workload": name, "seed": seed, "seconds": seconds, "smoke": smoke, "jobs": jobs,
            "workdir": f"{OUT}/work/{tag}-{os.getpid()}", "spans": f"{OUT}/results/{tag}.spans.jsonl"}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
              "jobs": jobs, "git": git_hash()}
    if trace:
        res = worker(dict(spec, mode="trace"), deadline)
        ref1 = worker(dict(spec, mode="ref1", jobs=1), deadline,
                      {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
        run_s = statistics.median(res["passes"])
        traced_s = statistics.median(res["traced_passes"])
        metrics = dict(res["layers"])
        metrics.update({
            "run.pass_s": run_s,
            "trace.pass_s": traced_s,
            "trace.overhead_s": traced_s - run_s,
            "ref1.pass_s": ref1["passes"][0],
            "ref1.work_per_s": ref1["work_units"] / ref1["passes"][0],
            "env.blas_threads": res["env"]["blas_threads"] or 0,
            "env.jobs": jobs,
        })
        units = dict(layers.METRICS, **RUN_LAYER_METRICS)
        record.update(ref1=ref1, traced_passes=res["traced_passes"])
        attempted = res["attempted"] + ref1["attempted"]
        failed = res["failed"] + ref1["failed"]
        res["correct"] = res["correct"] and ref1["failed"] == 0
    else:
        setup = cold_starts(1 if smoke else COLD_STARTS, deadline)
        res = worker(dict(spec, mode="run"), deadline)
        pass_s = statistics.median(res["passes"])
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "work_per_s": res["work_units"] / pass_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": res["ok_ratio"],
        }
        units = END_TO_END
        record["setup_runs"] = setup
        attempted, failed = res["attempted"], res["failed"]
    record.update(
        env=res["env"], inputs=res["inputs"], work_units=res["work_units"], work_unit=res["work_unit"],
        passes=res["passes"], problems=res["problems"], failures=res["failures"],
        result={
            "correct": res["correct"],
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        },
    )
    results = ROOT / OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def describe(rec) -> list:
    """Human-readable lines for one record."""
    env = rec["env"]
    blas = ", ".join(f"{b['library']} threads={b['threads']}" for b in env["blas"]) or "unknown"
    q1, q2, q3 = quartiles(rec["passes"])
    res = rec["result"]
    lines = [
        f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: inputs {json.dumps(rec['inputs'])}",
        f"  env: nproc {env['nproc']} (allowed {env['cpus_allowed']}), python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, blas [{blas}], thread env {env['thread_env']}, jobs {rec['jobs']}, git {rec['git']}",
        f"  passes: {len(rec['passes'])} untraced, median {q2:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
        f"{rec['work_units']} {rec['work_unit']} per pass",
        f"  operations: {res['attempted']} attempted, {res['failed']} failed "
        f"(fail_ratio {res['failed'] / res['attempted']:.6f}), correct {res['correct']}",
    ]
    for key, reasons in list(rec["failures"].items())[:3]:
        lines.append(f"  failed {key}: {'; '.join(reasons)}")
    for problem in rec["problems"][:5]:
        lines.append(f"  problem: {problem}")
    for k, m in res["metrics"].items():
        lines.append(f"  {k} = {m['value']:.6g} {m['unit']}")
    return lines


def report(seconds, seed, smoke=False) -> int:
    """Every workload, untraced and traced, as one table."""
    rows, ok = [], True
    for name in workloads.NAMES:
        run = measure(name, seed, seconds, 0, smoke)
        traced = measure(name, seed, seconds, 1, smoke)
        for rec in (run, traced):
            print("\n".join(describe(rec)), flush=True)
            ok = ok and rec["result"]["correct"]
        m, t, res = run["result"]["metrics"], traced["result"]["metrics"], run["result"]
        rows.append((name, m["setup_s"]["value"], m["pass_s"]["value"], m["work_per_s"]["value"],
                     m["peak_rss_mb"]["value"], res["failed"] / res["attempted"], t["ref1.pass_s"]["value"],
                     t["trace.overhead_s"]["value"]))
    print(f"\n{'workload':16} {'setup_s':>8} {'pass_s':>8} {'work_per_s':>11} {'peak_rss_mb':>11} "
          f"{'fail_ratio':>10} {'1thr pass_s':>11} {'trace_ovh_s':>11}")
    for r in rows:
        print(f"{r[0]:16} {r[1]:8.3f} {r[2]:8.3f} {r[3]:11.1f} {r[4]:11.1f} {r[5]:10.4f} {r[6]:11.3f} {r[7]:11.3f}")
    return 0 if ok else 1


def smoke() -> int:
    """All workloads at 2j <= 16, untraced and traced, with every check."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    if {w["name"] for w in bench["workloads"]} != set(workloads.NAMES):
        print("BENCHMARK.json workloads differ from perfbench/workloads.py", file=sys.stderr)
        return 1
    bad = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            rec = measure(name, 7, 0.3, trace, smoke=True)
            res = rec["result"]
            if not res["correct"] or res["failed"] or set(res["metrics"]) != expected[trace]:
                bad.append("\n".join(describe(rec)))
    print("\n".join(bad) if bad else "smoke: all workloads, untraced and traced, passed every check")
    return 1 if bad else 0


def write_reference() -> int:
    jobs = min(2, len(os.sched_getaffinity(0)))
    for smoke_set in (False, True):
        for name in workloads.NAMES:
            spec = {"workload": name, "seed": None, "seconds": 0, "smoke": smoke_set, "jobs": jobs, "mode": "capture",
                    "workdir": f"{OUT}/work/reference-{name}"}
            print(name, "smoke" if smoke_set else "full", worker(spec, time.monotonic() + 600)["failures"])
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.report:
            return report(args.seconds, args.seed)
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            ap.error("--workload is required")
        rec = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(describe(rec)))
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
