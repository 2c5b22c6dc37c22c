"""gradedalg benchmark: one workload per run, from a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

A run imports the library from ``src/`` of the checkout it sits in, builds the
workload's inputs from the seed (``workloads.py``), then runs passes over the
workload's job list (closed loop, one client, one process) for S seconds and
at least MIN_PASSES passes. Every job's output is checked. Times are reported
at a fixed reference CPU speed (see `measure`). The last line of stdout is
one JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are END_TO_END; with --trace 1 they are ``tracer.LAYER_METRICS``,
from one extra pass with the layer wrappers installed.

--out appends the run, with the environment it ran in, to a JSON-lines
result file; --compare reads two such files and prints, per workload and
end-to-end metric, both medians, their quartiles, the ratio and a verdict
against the bounds in BENCHMARK.json. A series for comparison:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload codim-seq --seed $s --out old.jsonl; done

Nothing here pins CPUs or isolates the process: compare only runs made on
one host, and read the load recorded with each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 2
SETUP_SAMPLES = 5      # this process plus SETUP_SAMPLES - 1 fresh ones
PROBE_TIMEOUT_S = 120
KERNEL_STEPS = 1200
CAL_INTERVAL_S = 0.25
SPEED_WINDOW_S = 0.5
REF_KERNEL_S = 0.006   # the kernel's time on an idle 2.1 GHz Xeon core, Python 3.11

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))

ENV_NOTE = ("shared host, not tuned for benchmarking: no CPU pinning, "
            "isolation or fixed clock; loadavg shows competing load")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "loadavg": _read("/proc/loadavg").strip(), "note": ENV_NOTE}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- measuring -----------------------------------------------------------------

def kernel() -> dict:
    """Fixed pure-Python exact-arithmetic work, the probe of CPU speed."""
    acc = {}
    for i in range(1, KERNEL_STEPS):
        k = i % 37
        acc[k] = acc.get(k, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """Scale a duration measured while the kernel took `kernel_s` to the
    reference speed, at which the kernel takes REF_KERNEL_S."""
    return seconds * REF_KERNEL_S / kernel_s


class SpeedProbe:
    """Times the kernel on entry, on exit and, with an interval, every
    `interval` seconds from a SIGALRM handler, so that samples also fall
    inside long jobs."""

    def __init__(self, interval: float | None):
        self.interval = interval
        self.samples: list[tuple] = []      # (start, end) of each kernel run
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter()))
        self._busy = False

    def __enter__(self):
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.sample()
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def job_time(self, t0: float, t1: float) -> float:
        """[t0, t1] at reference speed, without the kernel runs inside it.
        The speed is the mean over the kernel runs within SPEED_WINDOW_S of
        the interval, or over the nearest one on each side if there are none."""
        inside = [(s, e) for s, e in self.samples if t0 <= s < t1]
        near = [(s, e) for s, e in self.samples
                if t0 - SPEED_WINDOW_S <= s < t1 + SPEED_WINDOW_S]
        if not near:
            near = ([(s, e) for s, e in self.samples if s < t0][-1:]
                    + [(s, e) for s, e in self.samples if s >= t1][:1])
        busy = sum(e - s for s, e in inside)
        speed = statistics.fmean(e - s for s, e in near)
        return at_reference_speed(t1 - t0 - busy, speed)


def run_pass(plan, tracer=None):
    """Run every job once; returns (raw wall, job times at reference speed,
    outputs, failures). An untraced pass samples the speed every
    CAL_INTERVAL_S; a traced one only before and after, so that no kernel
    run lands inside a span. The checks run after the timed loop."""
    spans, outputs, errors = [], [], []
    with SpeedProbe(None if tracer else CAL_INTERVAL_S) as probe:
        start = perf_counter()
        for job in plan.jobs:
            t0 = perf_counter()
            try:
                out = job.run() if tracer is None else tracer.span(tracing.JOB_SPAN, job.run)
                err = None
            except Exception as exc:            # a failing job is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            spans.append((t0, perf_counter()))
            outputs.append(out)
            errors.append(err)
        wall = perf_counter() - start
    times = [probe.job_time(t0, t1) for t0, t1 in spans]
    failures = []
    for job, out, err in zip(plan.jobs, outputs, errors):
        if err is None:
            try:
                err = job.check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{job.name}: {err}")
    try:
        err = plan.pass_check(outputs)
    except Exception as exc:
        err = f"raised {type(exc).__name__}: {exc}"
    if err:
        failures.append(f"pass check: {err}")
    return wall, times, outputs, failures


def setup(workload: str, seed: int, workdir: str):
    """Import the library and build the workload's inputs; returns (time
    taken at reference speed, library namespace, plan)."""
    t0 = perf_counter()
    import workloads
    G = workloads.import_gradedalg()
    if not os.path.abspath(G.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"gradedalg was imported from {G.cli.__file__}, not {SRC}")
    plan = workloads.WORKLOADS[workload](G, seed, workdir)
    took = perf_counter() - t0
    speed = statistics.median(kernel_time() for _ in range(3))
    return at_reference_speed(took, speed), G, plan


def probe_setup(workload: str, seed: int) -> float:
    """setup() in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def workdir_for(tag: str) -> str:
    path = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool, log):
    """One run; returns (result, extra record fields).

    On a shared host the CPU speed one process sees drifts by tens of percent
    for tens of seconds at a time, far more than most code changes move a
    timing. Every time is therefore reported at a fixed reference speed: it
    is scaled by REF_KERNEL_S over the time the calibration kernel took just
    around it (`run_pass`). wall_s is the sum over jobs of each job's median
    over the run's passes, job_p50_ms and job_p90_ms are percentiles over
    those medians. A traced run spends half the time on untraced passes,
    then runs one traced pass.
    """
    workdir = workdir_for(workload)
    try:
        setup_s, G, plan = setup(workload, seed, workdir)
        setups = [setup_s]
        if not trace:
            setups += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
        walls, samples, failures = [], [[] for _ in plan.jobs], []
        start = perf_counter()
        budget = seconds / 2 if trace else seconds
        # start another pass only if it can end within the budget
        while len(walls) < MIN_PASSES or perf_counter() - start + min(walls) <= budget:
            wall, times, _, fails = run_pass(plan)
            walls.append(wall)
            for s, t in zip(samples, times):
                s.append(t)
            failures += fails
        attempted = len(walls) * len(plan.jobs)
        per_job = [statistics.median(s) for s in samples]
        if trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced_wall, times, _, fails = run_pass(plan, tr)
            finally:
                tr.uninstall()
            if tr.missing:
                log(f"not in this library, reported as 0: {tr.missing}")
            attempted += len(plan.jobs)
            failures += fails
            metrics = tracing.layer_metrics(tr, traced_wall, sum(times) / sum(per_job))
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": sum(per_job),
                "job_p50_ms": 1000 * statistics.median(per_job),
                "job_p90_ms": 1000 * percentile(per_job, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures[:20]:
        log(f"FAIL {f}")
    log(f"passes {len(walls)}, jobs per pass {len(plan.jobs)}, raw pass walls "
        f"{[round(w, 3) for w in walls]}, setup samples {[round(s, 4) for s in setups]}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, {"passes": len(walls), "jobs_per_pass": len(plan.jobs),
                    "raw_pass_walls_s": walls, "setup_samples_s": setups}


# -- comparing -----------------------------------------------------------------

def load_results(path: str) -> dict:
    """{workload: {metric: [values]}} over the untraced runs of a result file."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            per = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    """(median, q1, q3) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(old, new, bound: float, lower_is_better: bool) -> str:
    """'ok', 'regression' or 'unresolved' (spread wider than the bound and
    the new runs not all better than the old ones)."""
    om, oq1, oq3 = spread(old)
    nm, nq1, nq3 = spread(new)
    sign = 1 if lower_is_better else -1
    worse = sign * (nm - om) / om
    all_better = (max(new) < min(old)) if lower_is_better else (min(new) > max(old))
    if max((oq3 - oq1) / om, (nq3 - nq1) / nm) > bound and not all_better:
        return "unresolved"
    return "regression" if worse > bound else "ok"


def compare(old_path: str, new_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    old, new = load_results(old_path), load_results(new_path)
    worst = 0
    print(f"{'workload':18} {'metric':12} {'old median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'new/old':>8}  verdict (bound)")
    for workload in sorted(set(old) & set(new)):
        for m in spec["end_to_end"]:
            a, b = old[workload].get(m["name"]), new[workload].get(m["name"])
            if not a or not b:
                continue
            (am, aq1, aq3), (bm, bq1, bq3) = spread(a), spread(b)
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            worst = max(worst, v == "regression")
            print(f"{workload:18} {m['name']:12} "
                  f"{f'{am:.4g} [{aq1:.4g}, {aq3:.4g}]':>30} "
                  f"{f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}]':>30} "
                  f"{bm / am:8.3f}  {v} ({m['bound']}) n={len(a)}/{len(b)}")
    return worst


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append this run to a JSON-lines result file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not os.path.isfile(os.path.join(SRC, "gradedalg", "__init__.py")):
        print(f"error: no gradedalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.probe_setup:
        workdir = workdir_for("probe-" + args.workload)
        try:
            setup_s, _, _ = setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def log(msg):
        print(msg, flush=True)

    env_start = environment()
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), log)
    env = {"start": env_start, "end_loadavg": _read("/proc/loadavg").strip()}
    log("env " + json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, **info, "result": result},
                                sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
