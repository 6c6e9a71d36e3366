"""One pass of one workload in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode plain|trace|count --result PATH
    python3 perfbench/worker.py --workload NAME --mode setup

``plain`` and ``trace`` run whole blocks of jobs in a closed loop (one
caller, one thread, the next job only after the previous one returns)
until ``--seconds`` of scaled job time have passed, then check every job
and write a JSON result.  Between jobs, outside the timed region, they
sample the host's speed (see ``hostspeed``).  ``trace`` records spans
(see ``tracing``) in every other block and writes them next to the
result; the blocks in between run with the tracer removed.  ``count``
replays the workload's first blocks and counts ``Scalar``
constructions.  ``setup`` imports the engine, builds the fields and the
CLI parser, prints ``ready`` and exits; ``run.py`` times it from
process start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# a pass that is still inside a block this long after its budget stops early
OVERRUN_S = 30.0


def setup(chars) -> None:
    import highwater
    from highwater import cli
    for p in chars:
        highwater.Field(p)
    build = getattr(cli, "build_parser", None)
    if build is not None:
        build()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_stats() -> dict:
    """Key-product cache counters, or zeros when the cache is gone."""
    fn = getattr(sys.modules.get("highwater.elements"), "_key_product", None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return {"hits": 0, "misses": 0, "entries": 0, "present": False}
    i = info()
    return {"hits": i.hits, "misses": i.misses, "entries": i.currsize,
            "present": True}


def run_pass(wl, seed: int, seconds: float, tracer=None,
             max_blocks: int | None = None, alternate: bool = False,
             log=sys.stderr) -> dict:
    """Run whole blocks until ``seconds`` pass, then check every job.

    The budget is counted in scaled job time (see ``hostspeed``), so a
    pass runs as many blocks on a slow minute of the host as on a fast
    one, and the blocks it measures do not depend on the host's speed.

    ``tracer``, when given, is told where each job begins and ends.  With
    ``alternate`` it is installed for even blocks only and removed for
    odd ones, so that one pass times the same mix traced and untraced.
    """
    rng = random.Random(f"{wl.name}:{seed}")
    jobs, starts, latencies, records, block_sizes = [], [], [], [], []
    traced = []
    state: dict = {}
    raised = 0
    host = hostspeed.Sampler()
    spent = 0.0         # scaled seconds inside jobs so far
    for block in wl.blocks(rng):
        on = tracer is not None and not (alternate and len(block_sizes) % 2)
        if alternate and on:
            tracer.install()
        block_sizes.append(len(block))
        for job in block:
            host.tick()
            i = len(jobs)
            jobs.append(job)
            t0 = perf_counter()
            if on:
                tracer.begin_job(i)
            try:
                out = wl.run(job, state)
            except Exception:
                out = None
                raised += 1
                if raised <= 3:
                    traceback.print_exc(file=log)
            if on:
                tracer.end_job()
            latencies.append(perf_counter() - t0)
            starts.append(t0)
            spent += latencies[-1] * hostspeed.scale(host.samples, t0)
            traced.append(on)
            try:
                records.append(None if out is None else wl.record(job, out))
            except Exception:
                records.append(None)
                traceback.print_exc(file=log)
            if spent > seconds + OVERRUN_S:
                break
        if alternate and on:
            tracer.remove()
        if len(block_sizes) == wl.rss_blocks:
            rss_mib = peak_rss_mib()
        if len(block_sizes) == max_blocks or spent >= seconds:
            break
    host.sample()
    rss_at_end = len(block_sizes) < wl.rss_blocks
    if rss_at_end:
        rss_mib = peak_rss_mib()
    cache = cache_stats()
    scaled = [lat * hostspeed.scale(host.samples, t0 + lat / 2)
              for t0, lat in zip(starts, latencies)]

    failed = 0
    digest = hashlib.sha256()
    digest_jobs = 0
    digest_limit = sum(block_sizes[:wl.digest_blocks])
    for i, (job, rec) in enumerate(zip(jobs, records)):
        ok = False
        if rec is not None:
            try:
                ok = bool(wl.check(job, rec))
            except Exception:
                traceback.print_exc(file=log)
        failed += not ok
        if i < digest_limit:
            digest.update((wl.digest_text(job, rec) if rec is not None
                           else "raised").encode() + b"\n")
            digest_jobs += 1
    wl.close()
    chunks = [d for _, d in host.samples]
    return {"latencies": latencies, "scaled": scaled, "traced": traced,
            "attempted": len(jobs), "raised": raised,
            "failed": failed, "rss_mib": rss_mib, "rss_at_end": rss_at_end,
            "cache": cache, "digest": digest.hexdigest()[:16],
            "digest_jobs": digest_jobs,
            "blocks": len(block_sizes), "rss_blocks": wl.rss_blocks,
            "tail_pct": wl.tail_pct,
            "chunk_ms": [1000 * statistics.median(chunks),
                         1000 * min(chunks), 1000 * max(chunks)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "plain", "trace", "count"),
                    required=True)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    import workloads
    wl = workloads.make(args.workload, OUT_DIR)
    if args.mode == "setup":
        setup(wl.chars)
        print("ready", flush=True)
        return 0

    if args.mode == "count":
        import tracing
        counter = tracing.ScalarCounter()
        counter.install()
        res = run_pass(wl, args.seed, float("inf"), tracer=counter,
                       max_blocks=wl.count_blocks)
        counter.remove()
        res["scalar_allocs"] = counter.count
    elif args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        res = run_pass(wl, args.seed, args.seconds, tracer=tracer,
                       alternate=True)
        res["layers"] = tracer.layer_metrics()
        res["present"] = sorted(tracer.present)
        res["bad_spans"] = tracer.bad_spans()
        res["spans"] = len(tracer.spans)
        res["spans_path"] = args.result + ".spans.tsv"
        tracer.write(res["spans_path"])
    else:
        res = run_pass(wl, args.seed, args.seconds)
    with open(args.result, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
