"""Benchmark of the ``locinv`` command line, end to end and per layer.

One run drives one workload through ``locinv.cli.main(argv)`` in this
process, as a single closed-loop caller: the next call starts when the
previous one has returned, until ``--seconds`` have passed (after at
least one pass over the workload's calls).  Standard
output is captured and checked by ``checker.py`` after the timed phase.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json.  With ``--trace 1``
every call is made twice in a row, untraced and then with the span tracer
installed, and the run reports the per-layer metrics, including the ratio
of traced to untraced time.  The exit code is 0 only when every output was
correct.

    python3 bench/run.py --sweep out.json --runs 10 --first-seed 1
    python3 bench/run.py --compare parent.json child.json

``--sweep`` runs every workload in its own process for consecutive seeds
and writes all results with their medians and quartiles; ``--compare``
sets two such files side by side against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import report
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-ups run in fresh interpreters, half before and half after the timed
# phase, so that their median spans the run rather than one second of it
SETUP_REPEATS = 24
# the highest latency percentile with at least ten samples beyond it: runs
# hold thousands of cli-small calls, about 200 synth-large calls and 60 to
# 70 oracle calls.  An oracle pass is a survey, P7 and C6, a third of the
# calls each; P7 is the slowest, so p80 falls inside the P7 third and p50
# inside the other two, whose times overlap, rather than on a boundary
# where it would jump from one kind of call to another
TAIL_PERCENTILE = {"cli-small": 99, "synth-large": 90, "oracle": 80}


# -- driving the package ----------------------------------------------


def require_source() -> None:
    if not (SRC / "locinv" / "cli.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'locinv'}")


def load_package():
    """Import ``locinv.cli`` from this checkout's ``src`` and nowhere else."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("locinv.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "locinv").resolve():
        raise SystemExit(f"bench: locinv was imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, argv: list[str]) -> tuple[object, str, float]:
    """Exit code (or exception text), captured stdout, and seconds for one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is one failed call, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return rc, out.getvalue(), t1 - t0


def setup(warmup_argv: list[str], repeats: int) -> tuple[list[float], list[tuple[object, str]]]:
    """Seconds for ``repeats`` fresh interpreters to import ``locinv.cli``
    and make one warm-up call, and each warm-up's exit code and output."""
    times, outputs = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), *warmup_argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up process failed: {proc.stderr.strip()[-2000:]}")
        res = json.loads(proc.stdout)
        times.append(res["seconds"])
        outputs.append((res["rc"], res["out"]))
    return times, outputs


def closed_loop(cli, argvs: list[list[str]], seconds: float, tr: tracer.Tracer | None = None):
    """Call ``argvs`` in turn: the whole list once, then each call while its
    last duration still fits in ``seconds``.

    With a tracer, each call is made twice in a row, untraced and traced,
    so that drift in the machine's speed weighs on both alike; which of the
    two goes first alternates from call to call, so that neither side always
    finds the other's caches and heap warm.  Returns the untraced and the
    traced ``(index, rc, stdout, seconds)`` records and the loop's wall time.
    """
    modules = {m: sys.modules[m] for m in sys.modules if m.startswith("locinv.")}
    sides = (False,) if tr is None else (False, True)
    last: dict[int, float] = {}
    records, traced = [], []
    seen: dict[str, str] = {}  # one copy of each distinct output, so memory stays flat
    gc.collect()
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(argvs)
        t0 = time.perf_counter()
        if i >= len(argvs) and t0 - start + last[k] > seconds:
            break
        for traced_side in sides if i % 2 == 0 else sides[::-1]:
            if traced_side:
                tr.install(modules)
                try:
                    rc, out, dt = invoke(cli, argvs[k])
                finally:
                    tr.uninstall()
                traced.append((k, rc, seen.setdefault(out, out), dt))
            else:
                rc, out, dt = invoke(cli, argvs[k])
                records.append((k, rc, seen.setdefault(out, out), dt))
        last[k] = time.perf_counter() - t0
        i += 1
    return records, traced, time.perf_counter() - start


def count_failures(calls, records) -> tuple[int, list[str]]:
    failed, reasons = 0, []
    verdicts: dict[tuple, str | None] = {}
    for k, rc, out, _ in records:
        if (k, rc, out) not in verdicts:
            verdicts[k, rc, out] = checker.check(calls[k], rc, out)
        reason = verdicts[k, rc, out]
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"call {k} ({calls[k].kind}, n={calls[k].n}): {reason}")
    return failed, reasons


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def detail(calls, records) -> dict:
    """Median milliseconds per call kind (per graph for ``exact``)."""
    groups: dict[str, list[float]] = {}
    for k, _, _, dt in records:
        key = calls[k].params.get("label", calls[k].kind)
        groups.setdefault(key, []).append(dt * 1e3)
    return {key: {"calls": len(v), "p50_ms": statistics.median(v)} for key, v in sorted(groups.items())}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    require_source()
    units = report.units(trace)
    wl = workloads.build(name, seed)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        argvs, warmup_argv = workloads.write_inputs(wl, workdir)
        setup_times, warm = setup(warmup_argv, SETUP_REPEATS // 2)
        cli = load_package()
        rc, out, _ = invoke(cli, warmup_argv)  # untimed, so lazy set-up is done before timing
        warm.append((rc, out))
        tr = tracer.Tracer() if trace else None
        records, traced, wall = closed_loop(cli, argvs, seconds, tr)
        more_times, more_warm = setup(warmup_argv, SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_times += more_times
        warm += more_warm
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    checked = records + traced
    failed, reasons = count_failures(wl.calls, checked)
    for rc, out in warm:
        reason = checker.check(wl.warmup, rc, out)
        if reason is not None:
            failed += 1
            reasons.append(f"warm-up: {reason}")
    attempted = len(checked) + len(warm)

    if trace:
        selfs = tracer.self_times(tr.spans)
        residual = tracer.root_residual(tr.spans, selfs)
        if residual > 1e-6:
            failed += 1
            reasons.append(f"trace: self times miss a root span's duration by {residual:.3g} s")
        metrics = tracer.layer_metrics(tr)
        metrics["trace_overhead_ratio"] = sum(r[3] for r in traced) / sum(r[3] for r in records)
    else:
        latencies = sorted(r[3] for r in records)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(records) / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, TAIL_PERCENTILE[name]) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for reason in reasons:
        print(f"bench: {reason}", file=sys.stderr)
    print(json.dumps({"detail": detail(wl.calls, records), "calls": len(records), "wall_s": wall}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


# -- sweeps ---------------------------------------------------------------


def run_child(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    entry = {"workload": name, "seed": seed, "trace": trace, "exit": proc.returncode}
    try:
        entry["detail"] = json.loads(lines[-2])
        entry["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        entry["error"] = proc.stderr.strip()[-2000:]
    return entry


def sweep(out: Path, runs: int, first_seed: int, traced: int, seconds: int) -> int:
    entries = []
    for name in workloads.WORKLOADS:
        for trace, count in ((0, runs), (1, traced)):
            for seed in range(first_seed, first_seed + count):
                entry = run_child(name, seed, seconds, trace)
                entries.append(entry)
                res = entry.get("result", {})
                print(
                    f"{name} seed={seed} trace={trace} exit={entry['exit']} "
                    f"failed={res.get('failed')}/{res.get('attempted')}",
                    file=sys.stderr,
                )
    doc = {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "runs": entries,
        "summary": report.summarize(entries),
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(report.format_summary(doc["summary"]))
    return 0 if all(e["exit"] == 0 for e in entries) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--sweep", type=Path, metavar="OUT", help="run many seeds, write a result file")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHILD"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=report.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload (sweep)")
    ap.add_argument("--traced-runs", type=int, default=3, help="traced runs per workload (sweep)")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first run (sweep)")
    args = ap.parse_args(argv)
    if args.compare:
        parent, child = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        print(report.format_compare(parent, child))
        return 0
    if args.sweep:
        return sweep(args.sweep, args.runs, args.first_seed, args.traced_runs, args.seconds)
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
