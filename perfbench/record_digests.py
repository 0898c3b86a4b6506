"""Record the reference stdout digests and the workload provenance.

    python3 perfbench/record_digests.py SEED...

Runs every job of every workload's pool, untimed, for each seed; fails if any
job misses its known answer.  Writes, per workload and seed, the digests of
the jobs' exit code and stdout in pool order to digests.json (run.py counts
the jobs that drift from them), and writes provenance.json: why each
workload was chosen, its (algebra, carrier) sizes, its job mix, and its
exit-code shares at the default seed, 0.
"""

import gc
import json
import shutil
import sys
from collections import Counter

import naive
import run
import workloads


def run_pool(name, seed):
    workdir = run.WORK / f"record-{name}-{seed}"
    try:
        cli, wl, paths = run.setup(name, seed, workdir)
        loop = run.Loop(cli, wl, paths)
        loop.run(count=len(wl.jobs))
        failed, *_ = run.verify(loop, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        raise SystemExit(f"{name} seed {seed}: {failed} jobs miss their known answer")
    return wl, loop.records


def provenance(wl, records):
    sizes = Counter()
    for doc in wl.docs:
        try:
            h = len(naive.algebra(doc.alg))
        except naive.NotALattice:
            continue
        sizes[f"{doc.alg[0]} {h} elements x {len(doc.points)} points = {h ** len(doc.points)} subsets"] += 1
    statuses = Counter(str(status) for _, _, status, _, _ in records)
    return {
        "why": workloads.WHY[wl.name],
        "documents": len(wl.docs),
        "spaces": dict(sorted(sizes.items())),
        "job_mix": dict(sorted(Counter(job.kind for job in wl.jobs).items())),
        "exit_code_shares": {k: round(v / len(records), 4) for k, v in sorted(statuses.items())},
        "probe_jobs": wl.probe_jobs,
        "tail_percentile": wl.tail_q,
    }


def main(seeds):
    digests, prov = {}, {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            wl, records = run_pool(name, seed)
            digests.setdefault(name, {})[str(seed)] = "".join(run.digest(r[2], r[3]) for r in records)
            if seed == 0:
                prov[name] = provenance(wl, records)
            print(name, seed, len(records), flush=True)
            del wl, records
            gc.collect()
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    if prov:
        (run.HERE / "provenance.json").write_text(json.dumps(prov, indent=1) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
