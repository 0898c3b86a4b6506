"""heytop benchmark: how long a user waits from invoking a CLI command on a
workspace document to its verdict (report text plus exit code).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is boolean-kernels, intuitionistic-laws, algebra-churn, or all (each
workload then runs in a process of its own).  Run it from the repository
root; it imports heytop from ./src and writes its documents under
./.bench_build/perfbench, which it removes again.

Each job goes in-process through `heytop.cli.main(["-d", DOC, CMD, ...])`
with stdout and stderr captured, so every job re-parses and re-certifies its
document as a real invocation does.  Jobs run one after another in one
thread (a closed loop with one client) for --seconds.  The job pool is
generated from --seed (workloads.py); every job's exit code and verdict is
then checked against a known answer from the naive evaluator (naive.py) or
a theorem of the paper, and its stdout digest against the digest recorded in
digests.json (the byte-identical-report rule).  A few jobs are re-run through
`python -m heytop.cli` in a subprocess and must print the same.

The times are seconds at a fixed reference speed of the host.  The host's
speed drifts by a third and more within minutes when other processes share
its cores, and a heytop job slows with it.  So the loop samples the speed of
a fixed pure-Python kernel, which calls nothing of heytop, between blocks of
jobs (every CAL_EVERY seconds of jobs) and scales each block's times by
REFERENCE_S / (the mean of the samples before and after it).  A change in
heytop moves the scaled times as it moves the raw ones; the raw figures are
printed above the JSON beside them.

The time metrics cover the run's first jobs in whole cycles of the
workload's `cycle` (the jobs in which its mix repeats), so a faster or
slower run does not weigh the job kinds differently.  Every job run is still
checked.

--trace 0 prints the end-to-end metrics:
    setup_s         median over SETUP_REPEATS fresh processes of the time from
                    spawning the process until its first job is ready
                    (interpreter start, importing heytop, generating and
                    writing the seeded documents), each scaled by the speed
                    that process sampled just before and after its set-up
    verdict_s.p50   median job time
    verdict_s.tail  the workload's fixed `tail_q` percentile (nearest rank),
                    chosen so that a run at the seed's speed has well over
                    ten jobs beyond it.  On a slow host the loop runs past
                    --seconds until it has min_jobs, so that there are always
                    ten; a run with fewer is not correct.  The job count and
                    the jobs beyond are printed above the JSON
    verdicts_per_s  jobs completed / time of the job loop (their laps)
    peak_rss_mb     ru_maxrss after the workload's first `probe_jobs` jobs
    retained_mb     resident memory after those jobs and gc.collect(), minus
                    resident memory after set-up, just before the first job
Both memory figures are read after a fixed number of jobs, so that a faster
program, which runs more jobs in --seconds, does not read as a memory loss.
numpy, which the known answers use, is not loaded until the loop has ended.
Beside them it prints failed_frac (jobs that raised, printed a traceback or
missed their known answer, over jobs attempted), the drift count against
digests.json, the subprocess check and the exit-code counts.

--trace 1 runs the workload's first `probe_jobs` jobs untraced, then again
with the spans of tracer.py installed, checks that both loops printed the
same, and prints the per-layer metrics plus trace.overhead_frac (traced loop
time / untraced loop time - 1).  The traced work is fixed, so its counts
repeat exactly from run to run.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value": v, "unit": u}}}
"""

import argparse
import contextlib
import gc
import hashlib
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
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
DIGEST_HEX = 8

SETUP_REPEATS = 11
FIDELITY_JOBS = 2
TAIL_BEYOND = 10

CAL_EVERY = 0.15  # seconds of jobs between two samples of the host's speed
CAL_SAMPLES = 3  # kernel runs per sample; the sample is their median
CAL_N = 6000  # kernel iterations per run
REFERENCE_S = 0.003  # one kernel run's time at the reference speed
_CAL_TABLE = tuple((i * 7919) & 1023 for i in range(1024))
_CAL_SET = frozenset(range(0, 16, 3))

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _cal_step(acc, i, table=_CAL_TABLE):
    return (acc + table[(acc ^ i) & 1023]) & 0xFFFF


def _cal_kernel():
    """Calls, tuple indexing, int arithmetic and small frozensets, as heytop's
    kernels use them; the frozensets die at once, so the kernel never starts a
    garbage collection and its time does not grow with heytop's heap."""
    acc = 0
    for i in range(CAL_N):
        acc = _cal_step(acc, i)
        acc += len(frozenset((acc & 15, i & 15, 7)) & _CAL_SET)
    return acc


def host_sample():
    """Median seconds of CAL_SAMPLES runs of a fixed kernel that calls nothing of heytop."""
    times = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        _cal_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(name, seed, workdir):
    """Import heytop and write the seeded documents; returns (cli, workload, paths)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import heytop.cli as cli
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import heytop from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"heytop was imported from {cli.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name](seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = []
    for i, doc in enumerate(wl.docs):
        path = workdir / f"doc{i}.doc"
        path.write_text(doc.text(), encoding="utf-8")
        paths.append(str(path))
    return cli, wl, paths


def setup_probe(name, seed):
    """Seconds from spawning a fresh workload process until its first job is ready,
    raw and at the reference speed.

    The fresh process may run on another core than this one, so it samples the
    host's speed itself (probe_setup).  perf_counter is CLOCK_MONOTONIC on
    Linux, the same clock in both processes.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        ready = proc.stdout.read().split()
    if len(ready) != 3 or ready[0] != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up of {name} failed in a fresh process")
    took = float(ready[1]) - t0
    return took, took * REFERENCE_S / float(ready[2])


def argv_of(job, paths):
    return (["-d", paths[job.doc]] if job.doc is not None else []) + list(job.argv)


def min_jobs(wl):
    """The fewest jobs, in whole cycles, that leave TAIL_BEYOND jobs beyond the tail percentile."""
    n = wl.cycle
    while n - math.ceil(wl.tail_q / 100 * n) < TAIL_BEYOND:
        n += wl.cycle
    return n


class Loop:
    """The closed job loop; one record (job index, seconds, status, stdout, stderr) per job.

    `lap[i]` is record i's whole turn of the loop (the job plus building its
    argv and capturing its output) and `scale[i]` turns record i's seconds
    into seconds at the reference speed.  The speed samples between blocks
    fall outside every lap.
    """

    def __init__(self, cli, wl, paths):
        self.cli, self.wl, self.paths = cli, wl, paths
        self.records = []
        self.lap = []
        self.scale = []
        self.memory = None
        gc.collect()
        self.base_rss = resident_mb()

    def run(self, seconds=None, count=None, before_job=None):
        clock = time.perf_counter
        start = clock()
        jobs = self.wl.jobs
        least = min_jobs(self.wl)
        sample = host_sample()
        block_start, block_first = clock(), 0
        while True:
            lap_start = clock()
            i = len(self.records)
            job = jobs[i % len(jobs)]
            argv = argv_of(job, self.paths)
            if before_job is not None:
                before_job()
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = self.cli.main(argv)
            except Exception:
                status = None
                err.write(traceback.format_exc())
            took = clock() - t0
            self.records.append((i % len(jobs), took, status, out.getvalue(), err.getvalue()))
            now = clock()
            self.lap.append(now - lap_start)
            if count is not None:
                done = len(self.records) >= count
            else:
                done = now - start >= seconds and len(self.records) >= least
            probe = len(self.records) == self.wl.probe_jobs and self.memory is None
            if done or probe or now - block_start >= CAL_EVERY:
                after = host_sample()
                scale = REFERENCE_S / ((sample + after) / 2)
                self.scale += [scale] * (len(self.records) - block_first)
                if probe:
                    self.probe_memory()
                sample = after
                block_start, block_first = clock(), len(self.records)
            if done:
                break
        if self.memory is None:
            self.probe_memory()

    def ref_wall(self, n=None):
        """Time of the first n laps (all by default) at the reference speed."""
        return sum(lap * scale for lap, scale in zip(self.lap[:n], self.scale))

    def probe_memory(self):
        gc.collect()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.memory = (peak, resident_mb() - self.base_rss, len(self.records))


def tail(times, q):
    """The q-th percentile of the job times (nearest rank) and the number of jobs beyond it."""
    ordered = sorted(times)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def digest(status, out):
    return hashlib.sha256(f"{status}\0{out}".encode()).hexdigest()[:DIGEST_HEX]


def recorded_digests(name, seed):
    """Digests of the pool's jobs recorded for this seed, in pool order, or None."""
    if not DIGESTS.exists():
        return None
    pool = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
    return None if pool is None else [pool[i:i + DIGEST_HEX] for i in range(0, len(pool), DIGEST_HEX)]


def verify(loop, seed):
    """Check every job against its known answer and its recorded digest.

    Returns (failed record count, drifted jobs, recorded jobs, inconsistent jobs).
    """
    import answers

    wl = loop.wl
    recorded = recorded_digests(wl.name, seed)
    models = {}
    seen = {}
    failed = drift = inconsistent = 0
    for j, _, status, out, err in loop.records:
        job = wl.jobs[j]
        if job.doc not in models:
            models[job.doc] = answers.Model(wl.docs[job.doc]) if job.doc is not None else None
        exp = answers.expect(job, models[job.doc])
        if status is None or "Traceback" in err or not answers.check(exp, status, out, err):
            failed += 1
        got = digest(status, out)
        if j in seen:
            inconsistent += seen[j] != got
        else:
            seen[j] = got
            drift += recorded is not None and recorded[j] != got
    return failed, drift, len(seen) if recorded else 0, inconsistent


def fidelity(loop):
    """Re-run the cheapest distinct jobs through `python -m heytop.cli`; count matches."""
    best = {}
    for j, took, status, out, _ in loop.records:
        if j not in best or took < best[j][0]:
            best[j] = (took, status, out)
    picks = sorted(best.items(), key=lambda item: item[1][0])[:FIDELITY_JOBS]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    matches = 0
    for j, (_, status, out) in picks:
        argv = argv_of(loop.wl.jobs[j], loop.paths)
        proc = subprocess.run(
            [sys.executable, "-m", "heytop.cli"] + argv,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        matches += proc.returncode == status and proc.stdout == out
    return matches, len(picks)


def end_to_end(loop, setups):
    cycle = loop.wl.cycle
    n = len(loop.records) // cycle * cycle  # at least min_jobs, itself whole cycles
    raw = [took for _, took, *_ in loop.records[:n]]
    times = [took * scale for took, scale in zip(raw, loop.scale)]
    tail_value, beyond = tail(times, loop.wl.tail_q)
    peak, retained, probed = loop.memory
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "verdicts_per_s": (len(times) / loop.ref_wall(n), "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "retained_mb": (retained, "MB"),
    }
    notes = [
        f"raw (unscaled): setup_s {statistics.median(took for took, _ in setups):.6g} s, "
        f"verdict_s.p50 {statistics.median(raw):.6g} s, verdict_s.tail {tail(raw, loop.wl.tail_q)[0]:.6g} s, "
        f"verdicts_per_s {len(raw) / sum(loop.lap[:n]):.6g} 1/s; host speed {statistics.median(loop.scale):.4g} "
        f"(median of scales; range {min(loop.scale):.4g}-{max(loop.scale):.4g})",
        f"the time metrics cover the first {n} of {len(loop.records)} jobs, whole cycles of {cycle}",
        f"verdict_s.tail is p{loop.wl.tail_q:g} of {len(times)} jobs, {beyond} beyond it"
        + ("" if beyond >= TAIL_BEYOND else f": fewer than {TAIL_BEYOND}, not correct"),
        f"memory read after {probed} jobs",
    ]
    return metrics, notes, beyond >= TAIL_BEYOND


def run_workload(args):
    setups = [] if args.trace else [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cli, wl, paths = setup(args.workload, args.seed, workdir)
        loop = Loop(cli, wl, paths)
        notes = []
        tail_ok = True
        if args.trace:
            loop.run(count=wl.probe_jobs)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            traced = Loop(cli, wl, paths)
            traced.run(count=len(loop.records), before_job=tracer.new_job)
            differ = sum(a[2:] != b[2:] for a, b in zip(loop.records, traced.records))
            metrics = tracer.metrics()
            metrics["trace.overhead_frac"] = (traced.ref_wall() / loop.ref_wall() - 1, "ratio")
            notes.append(f"traced output differs from untraced on {differ} of {len(loop.records)} jobs")
        else:
            loop.run(seconds=args.seconds)
            metrics, notes, tail_ok = end_to_end(loop, setups)
            differ = 0
        matches, tried = fidelity(loop)
        failed, drift, known, inconsistent = verify(loop, args.seed)
        failed += differ
        attempted = len(loop.records)
        statuses = Counter(r[2] for r in loop.records)
        notes += [
            f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)",
            f"drift: {drift} of {known} recorded jobs differ from digests.json",
            f"subprocess fidelity: {matches} of {tried} jobs match",
            "exit codes: " + ", ".join(f"{k}: {v}" for k, v in sorted(statuses.items(), key=str)),
        ]
        correct = failed == 0 and drift == 0 and inconsistent == 0 and matches == tried and tail_ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {len(loop.records)}  loop {sum(loop.lap):.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def probe_setup(args):
    """The set-up of a workload process, for setup_probe to time.  Prints the
    clock when the first job is ready, less the time spent sampling the host's
    speed, and the mean of the samples before and after the set-up."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        before = host_sample()
        sampling = time.perf_counter() - t0
        setup(args.workload, args.seed, workdir)
        ready = time.perf_counter() - sampling
        print(f"ready {ready!r} {(before + host_sample()) / 2!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Each workload in a fresh process, so caches and ru_maxrss do not leak between them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        probe_setup(args)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
