#!/usr/bin/env python3
"""Closed-loop benchmark of the rellich command line.

One client, one process, one thread: each job is an argv passed to
``rellich.cli.main`` in-process, sent when the previous one has returned.
Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

prints the generated jobs (``job`` lines, replayable one by one with
``--job``), informational lines, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run (see tracing.py).  End-to-end times are corrected for the host's
speed while they were taken (see clock.py).  Single-job mode reproduces one
command's wall time:

    python3 perfbench/run.py --job "estimate --catalog classical-rellich --n 6 --budget 500"
    python3 perfbench/run.py --roadmap
"""

import os

# The load comes from this one process: cap native thread pools before
# numpy is imported.
THREAD_CAP = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from clock import Clock  # noqa: E402
from workloads import WARMUP, WORKLOADS, Job, JobGenerator  # noqa: E402

# Every run executes at least this many rounds, however slow the host, so
# every run of a workload has at least the same number of jobs behind its
# tail percentile.
MIN_ROUNDS = {"scan": 4, "batch": 3, "ode": 2, "estimate": 3}
# setup_s is the median of this many fresh interpreters, half started before
# the timed rounds and half after them, so it samples the run's whole span.
SETUP_CHILDREN = 16
SINGLE_REPEAT = 5
CHILD_CHECKS = 2
REPEAT_CHECKS = 2
EXIT_FOR_VERDICT = {"pass": 0, "nonnegative": 0, "fail": 1, "violated": 1}
_TIMESTAMP = re.compile(r'^\s*"timestamp": "[^"]*",?\n', re.M)

ROADMAP_ROWS = [
    "scan --catalog ell-family --k 6 --n 5 --R 1 --target E1",
    "chain --catalog iterlog --k 1 --n 6 --R 1",
    "chain --catalog hyp-final --n 5 --kappa 1 --tests 20",
    "verify --catalog hyp-interp --n 5 --kappa 1",
    "solve-bessel --catalog iterlog --k 3 --R 1",
    "estimate --catalog classical-rellich --n 6 --budget 500",
    "estimate --catalog hyp-final --n 5 --kappa 1 --shape chain",
]


def pin_to_one_cpu() -> str:
    """Keep this process and its children on one CPU, so the probes measure
    the CPU the jobs run on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return f"cpu {cpu}"
    except (AttributeError, OSError, ValueError):
        return "not pinned"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(THREAD_CAP)
    return env


def report_digest(text: str) -> str:
    return hashlib.sha256(_TIMESTAMP.sub("", text).encode()).hexdigest()[:16]


class Runner:
    """Runs jobs in-process, one at a time."""

    def __init__(self, cli, mpmath, clock):
        self.cli = cli
        self.mp = mpmath
        self.clock = clock
        self.prec_leaks = 0

    def run(self, argv):
        """(corrected seconds, wall seconds, exit code or None, report text,
        error) for one job.

        mpmath's global precision is saved and restored around the job so a
        job that changes it cannot make later results depend on job order.
        The garbage of earlier jobs is collected before the job starts, as it
        would be in the fresh process a command-line user runs it in: left
        in place, it makes a short job's time depend on when a collection
        falls."""
        out, err = io.StringIO(), io.StringIO()
        prec = self.mp.mp.prec

        def job():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(list(argv)), None
            except SystemExit as exc:
                return (exc.code if isinstance(exc.code, int) else 64), None
            except Exception as exc:  # a job that raises is a failed job
                return None, f"{type(exc).__name__}: {exc}"

        gc.collect()
        (code, error), wall, seconds = self.clock.measure(job)
        if self.mp.mp.prec != prec:
            self.prec_leaks += 1
            self.mp.mp.prec = prec
        if error is None and code not in (0, 1, 2):
            lines = err.getvalue().strip().splitlines()
            error = lines[-1] if lines else f"exit {code}"
        return seconds, wall, code, out.getvalue(), error


def check(job, code, text, error):
    """None when the job's outcome is correct, else the reason."""
    if error is not None:
        return error
    if code not in job.expect:
        return f"exit {code}, expected {sorted(job.expect)}"
    try:
        verdict = json.loads(text)["verdict"]
    except (ValueError, KeyError):
        return "report is not a JSON report"
    if EXIT_FOR_VERDICT.get(verdict, 2) != code:
        return f"verdict {verdict!r} does not match exit {code}"
    return None


def measure_setup(count: int, clock) -> list:
    """Corrected wall times of fresh interpreters that import the CLI and
    build its parser, started one at a time."""
    snippet = "import rellich.cli as c; c.build_parser()"
    times = []

    def child():
        proc = subprocess.Popen([sys.executable, "-c", snippet], env=child_env(),
                                stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls and rounds the time up
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            return proc.wait()
        finally:
            watchdog.cancel()

    for _ in range(count):
        rc, _, seconds = clock.measure(child)
        times.append(seconds)
        if rc != 0:
            raise RuntimeError(f"setup child exited {rc}")
    return times


@dataclass(frozen=True)
class Record:
    job: Job
    seconds: float       # corrected wall time
    wall: float
    code: object
    digest: str
    problem: object      # None, or why the job failed
    gap_ratio: object    # estimate/claimed for estimates with a claimed constant


def run_jobs(runner, jobs, log, on_job=None):
    """Run and check each job in turn.  Returns (wall, records)."""
    records = []
    t0 = time.perf_counter()
    for job in jobs:
        if on_job is not None:
            on_job(len(records))
        dt, wall, code, text, error = runner.run(job.argv)
        problem = check(job, code, text, error)
        gap = None
        if job.argv[0] == "estimate" and problem is None:
            gap = json.loads(text)["config"]["gap_ratio"]
        rec = Record(job, dt, wall, code, report_digest(text), problem, gap)
        records.append(rec)
        log(f"job {job.id} exit={code} expect={','.join(map(str, sorted(job.expect)))} "
            f"t={dt:.4f} wall={wall:.4f} digest={rec.digest} {job.line}")
        if problem:
            log(f"FAILED {job.id}: {problem}: {job.line}")
    return time.perf_counter() - t0, records


def run_rounds(runner, gen, log, seconds, min_rounds):
    """Run ``min_rounds`` whole rounds, then more while the projected end of
    the next round stays within ``seconds``.  Returns (wall, records)."""
    records, wall = [], 0.0
    while True:
        dt, done = run_jobs(runner, gen.next_round(), log)
        wall += dt
        records += done
        if gen.rounds >= min_rounds and wall + 0.5 * wall / gen.rounds > seconds:
            return wall, records


def determinism_checks(runner, records, rng, log, repeats) -> list:
    """Re-run sampled jobs in-process and in a child ``python -m rellich.cli``;
    each must reproduce the exit code and the report digest."""
    problems = []
    cheap = [r for r in records if r.seconds < 1.0] or records
    for r in rng.sample(cheap, min(repeats, len(cheap))):
        _, _, code, text, _ = runner.run(r.job.argv)
        ok = code == r.code and report_digest(text) == r.digest
        log(f"repeat {r.job.id} {'ok' if ok else 'MISMATCH'}")
        if not ok:
            problems.append(f"in-process repeat differs: {r.job.line}")
    for r in rng.sample(cheap, min(CHILD_CHECKS, len(cheap))):
        proc = subprocess.run([sys.executable, "-m", "rellich.cli", *r.job.argv],
                              env=child_env(), capture_output=True, text=True, timeout=150)
        ok = proc.returncode == r.code and report_digest(proc.stdout) == r.digest
        log(f"child {r.job.id} {'ok' if ok else 'MISMATCH'}")
        if not ok:
            problems.append(f"child process differs: {r.job.line}")
    return problems


def tail_pct(workload) -> int:
    """job_s.tail's percentile: the highest with at least ten jobs beyond it
    in the fewest jobs a run can have."""
    n = len(WORKLOADS[workload]) * MIN_ROUNDS[workload]
    return max(p for p in range(1, 100) if n - math.ceil(n * p / 100) >= 10)


def end_to_end(workload, records, setup_s) -> dict:
    times = [r.seconds for r in records]
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_pct(workload) - 1]
    return {
        "jobs_per_s": {"value": len(records) / math.fsum(times), "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "job_s.tail": {"value": tail, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def same_reports(first, again, label, log) -> list:
    """Problems where a second pass over the same jobs changed a report."""
    problems = []
    for a, b in zip(first, again):
        if (a.code, a.digest) != (b.code, b.digest):
            problems.append(f"{label} pass differs: {a.job.line}")
    log(f"info {label} pass {'MISMATCH' if problems else 'ok'}: {len(first)} reports compared")
    return problems


def info_lines(records, round0, prec_leaks, log) -> None:
    n = len(records)
    failed = [r for r in records if r.problem]
    log(f"info failed_frac {len(failed) / n:.4f} share ({len(failed)} of {n} jobs attempted)")
    for r in failed:
        log(f"info failed {r.job.id}: {r.problem}: {r.job.line}")
    log("info threads capped: " + ",".join(f"{k}={v}" for k, v in sorted(THREAD_CAP.items())))
    log(f"info harness.mp_prec_leaks {prec_leaks} count")
    gaps = [r.gap_ratio for r in records if r.gap_ratio]
    if gaps:
        gm = math.exp(statistics.fmean(math.log(g) for g in gaps))
        log(f"info gap_ratio {gm:.6f} ratio (geometric mean over {len(gaps)} estimates "
            "with a claimed constant)")
    digest = hashlib.sha256("".join(f"{r.job.line}|{r.code}|{r.digest}\n"
                                    for r in round0).encode()).hexdigest()[:16]
    log(f"info digest.round0 {digest}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--job", action="append", metavar="ARGV",
                   help="single-job mode: time this rellich argv (repeatable)")
    p.add_argument("--roadmap", action="store_true",
                   help="single-job mode over the ROADMAP baseline rows")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "rellich")):
        sys.stderr.write(f"perfbench: no rellich sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    pinned = pin_to_one_cpu()
    import mpmath
    from rellich import cli

    clock = Clock()
    runner = Runner(cli, mpmath, clock)

    def log(line):
        print(line, flush=True)

    if args.job or args.roadmap:
        return single_jobs(runner, (args.job or []) + (ROADMAP_ROWS if args.roadmap else []),
                           log)
    if args.workload is None:
        p.error("--workload is required outside single-job mode")

    setup_times = measure_setup(SETUP_CHILDREN // 2, clock) if args.trace == 0 else []
    for line in WARMUP[args.workload]:
        runner.run(shlex.split(line))
    runner.prec_leaks = 0
    gen = JobGenerator(args.workload, args.seed)
    rng = random.Random(f"checks:{args.seed}")

    if args.trace == 0:
        wall, records = run_rounds(runner, gen, log, args.seconds,
                                   MIN_ROUNDS[args.workload])
        prec_leaks = runner.prec_leaks
        problems = determinism_checks(runner, records, rng, log, REPEAT_CHECKS)
        setup_times += measure_setup(SETUP_CHILDREN - len(setup_times), clock)
        metrics = end_to_end(args.workload, records, statistics.median(setup_times))
        n, pct = len(records), tail_pct(args.workload)
        log(f"info job_s.tail is p{pct} of {n} jobs ({n - math.ceil(n * pct / 100)} beyond it)")
        walls = [r.wall for r in records]
        log(f"info uncorrected: jobs_per_s {n / wall:.4f} 1/s, job_s.p50 "
            f"{statistics.median(walls):.4f} s, host speed {math.fsum(r.seconds for r in records) / math.fsum(walls):.3f} "
            f"of nominal ({pinned})")
    else:
        from tracing import Recorder, Tracer, layer_metrics

        # One round of jobs, three passes: a warm-up, the untraced pass that
        # trace.overhead divides by, and the traced pass.  All three must
        # give the same reports; for a given seed the traced counts repeat.
        jobs = gen.next_round()
        _, warm = run_jobs(runner, jobs, log)
        _, plain = run_jobs(runner, jobs, log)
        rec = Recorder()
        tracer = Tracer(rec)
        runner.prec_leaks = 0
        tracer.install()
        try:
            _, traced = run_jobs(runner, jobs, log,
                                           on_job=lambda i: setattr(rec, "job_id", i))
        finally:
            tracer.uninstall()
        prec_leaks = runner.prec_leaks
        problems = (same_reports(warm, plain, "untraced", log)
                    + same_reports(warm, traced, "traced", log)
                    + determinism_checks(runner, warm, rng, log, 0))
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.save(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"))
        layer = layer_metrics(rec, math.fsum(r.wall for r in traced),
                              math.fsum(r.seconds for r in traced)
                              / math.fsum(r.seconds for r in plain), prec_leaks)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        records = warm + plain + traced

    info_lines(records, records[:len(gen.templates)], prec_leaks, log)
    failed = sum(1 for r in records if r.problem)
    for prob in problems:
        log(f"FAILED check: {prob}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def single_jobs(runner, lines, log) -> int:
    """Best and median wall time of each argv, median corrected time; gap
    ratio for estimates."""
    rows = []
    for line in lines:
        argv = shlex.split(line)
        times, corrected, code, text = [], [], None, ""
        for _ in range(SINGLE_REPEAT):
            dt, wall, code, text, error = runner.run(argv)
            times.append(wall)
            corrected.append(dt)
        row = {"argv": line, "exit": code, "best_s": min(times),
               "median_s": statistics.median(times),
               "corrected_median_s": statistics.median(corrected), "repeat": SINGLE_REPEAT,
               "digest": report_digest(text)}
        if argv[0] == "estimate" and text:
            row["gap_ratio"] = json.loads(text)["config"].get("gap_ratio")
        log(f"single {row['best_s']:.4f} s best, {row['median_s']:.4f} s median, "
            f"{row['corrected_median_s']:.4f} s corrected, "
            f"exit {code}: {line}")
        rows.append(row)
    print(json.dumps({"single_jobs": rows}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
