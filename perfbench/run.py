"""Benchmark of the highwater engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the engine from ``src``.
Workloads: ``products``, ``session``, ``ideals``, ``orbits`` (see
``BENCHMARK.json`` for why each was chosen).

Every pass runs in a fresh process (``worker.py``) as a closed loop: one
caller, one thread, the next job only after the previous one returns.
Never run two workloads at once on a small machine.

``--trace 0`` times ``setup_s`` over several fresh processes, runs one
untraced pass and prints the end-to-end metrics.  Times are scaled by
the host's speed, measured around them with a fixed loop (see
``hostspeed``).  ``--trace 1`` runs a pass that records spans at the
engine's module boundaries in every other block, and a counting pass,
and prints the per-layer metrics.  ``BENCHMARK.json`` names the metrics
and their units.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers for people, with provenance.  Scratch output
(spans, CLI output of the session workload) goes to ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("products", "session", "ideals", "orbits")
SETUP_RUNS = 11
DEADLINE_S = 170.0     # the whole run ends within this


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units this script reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(start: float) -> float:
    left = DEADLINE_S - (perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def time_setup(workload: str, start: float) -> list[float]:
    """Scaled seconds from process start to ``ready`` for fresh processes.

    One uncounted process first, so that compiled bytecode exists.
    """
    times = []
    host = hostspeed.Sampler()
    for _ in range(SETUP_RUNS + 1):
        host.sample()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "--workload", workload,
             "--mode", "setup"],
            stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        proc.stdout.close()
        try:
            code = proc.wait(timeout=_remaining(start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("setup process did not exit in time")
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"setup process failed (exit {code})")
    host.sample()
    # each setup lies between two samples; scale it by their chunk times
    chunks = [d for _, d in host.samples]
    return [t * 2 * hostspeed.NOMINAL_S / (chunks[i] + chunks[i + 1])
            for i, t in enumerate(times)][1:]


def run_worker(workload: str, mode: str, seed: int, seconds: float,
               start: float) -> dict:
    path = os.path.join(OUT_DIR, f"{workload}-{seed}-{mode}.json")
    if os.path.exists(path):
        os.remove(path)
    argv = [sys.executable, WORKER, "--workload", workload, "--mode", mode,
            "--seed", str(seed), "--seconds", str(seconds), "--result", path]
    try:
        proc = subprocess.run(argv, stdout=sys.stderr, env=_env(), cwd=ROOT,
                              timeout=_remaining(start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish in time")
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"{mode} pass failed (exit {proc.returncode})")
    with open(path) as fh:
        return json.load(fh)


# -- metrics -----------------------------------------------------------------

def jobs_per_s(latencies: list[float]) -> float:
    """Jobs completed over the time spent inside them."""
    return len(latencies) / sum(latencies)


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """(seconds, jobs beyond it) at the nearest-rank percentile ``pct``.

    Each workload fixes ``pct`` (see ``Workload.tail_pct``).
    """
    lat = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(lat)))
    return lat[rank - 1], len(lat) - rank


def end_to_end(res: dict, setup_times: list[float], key: str) -> dict:
    """The end-to-end metrics from the ``scaled`` or the raw latencies."""
    lat = res[key]
    t, _ = tail(lat, res["tail_pct"])
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": jobs_per_s(lat),
        "job_p50_ms": 1000 * statistics.median(lat),
        "job_tail_ms": 1000 * t,
        "peak_rss_mib": res["rss_mib"],
    }


def per_layer(traced: dict, counted: dict) -> dict:
    m = dict(traced["layers"])
    cache = traced["cache"]
    looked_up = cache["hits"] + cache["misses"]
    m["elements.key_cache.hit_ratio"] = (cache["hits"] / looked_up
                                         if looked_up else 0.0)
    m["elements.key_cache.entries"] = cache["entries"]
    m["fields.scalar_allocs"] = counted["scalar_allocs"]
    on = [x for x, t in zip(traced["scaled"], traced["traced"]) if t]
    off = [x for x, t in zip(traced["scaled"], traced["traced"]) if not t]
    m["trace.overhead_frac"] = (1 - jobs_per_s(on) / jobs_per_s(off)
                                if on and off else 0.0)
    return m


# -- provenance ---------------------------------------------------------------

def commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(res: dict) -> str:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    med, lo, hi = res["chunk_ms"]
    return (f"python={platform.python_version()} commit={commit()} "
            f"nproc={cpus} reference_chunk_ms median={med:.3f} "
            f"min={lo:.3f} max={hi:.3f} (nominal "
            f"{1000 * hostspeed.NOMINAL_S:g})")


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    w, seed, secs = args.workload, args.seed, args.seconds
    try:
        spec = load_spec()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            passes = [run_worker(w, mode, seed, secs, start)
                      for mode in ("trace", "count")]
            traced, counted = passes
            values = per_layer(traced, counted)
            raw = {}
        else:
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            setup_times = time_setup(w, start)
            plain = run_worker(w, "plain", seed, secs, start)
            passes = [plain]
            values = end_to_end(plain, setup_times, "scaled")
            raw = end_to_end(plain, [0.0], "latencies")
        missing = [name for name, _ in names if name not in values]
        if missing:
            raise BenchError(f"no value for {missing}")
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"perfbench workload={w} seed={seed} seconds={secs:g} "
          f"trace={args.trace}")
    print(f"provenance: {provenance(passes[0])}")
    print("loop: closed, 1 caller, 1 thread, fresh process per pass")
    print(f"times are scaled to a host where the reference chunk takes "
          f"{1000 * hostspeed.NOMINAL_S:g} ms (see hostspeed.py); raw "
          f"times in brackets")
    for label, p in zip(("trace", "count") if args.trace else ("plain",),
                        passes):
        print(f"{label} pass: {p['attempted']} jobs in {p['blocks']} blocks, "
              f"{sum(p['latencies']):.3f} s inside jobs, {p['raised']} "
              f"raised, {p['failed']} failed; digest {p['digest']} over the "
              f"first {p['digest_jobs']} jobs")
    for name, unit in names:
        note = f"  [raw {raw[name]:.6g}]" if name in raw and \
            name != "peak_rss_mib" else ""
        if name == "setup_s":
            note = f"  (median of {SETUP_RUNS} fresh processes)"
        elif name == "job_tail_ms":
            _, beyond = tail(plain["latencies"], plain["tail_pct"])
            note += (f"  (p{plain['tail_pct']:g} of {plain['attempted']} "
                     f"jobs, {beyond} beyond it)")
        elif name == "peak_rss_mib":
            note = ("  (at the end of the pass, short of "
                    if plain["rss_at_end"] else "  (after ") + \
                f"{plain['rss_blocks']} blocks)"
        elif name == "trace.overhead_frac":
            n_on = sum(traced["traced"])
            note = (f"  ({n_on} jobs in traced blocks against "
                    f"{len(traced['traced']) - n_on} in untraced ones of "
                    f"the same pass)")
        print(f"{name:40s} {values[name]:.6g} {unit}{note}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    if args.trace:
        extra = sorted(set(traced["layers"]) - {n for n, _ in names})
        for name in extra:
            unit = "s" if name.endswith("_s") else "count"
            print(f"{name:40s} {traced['layers'][name]:.6g} {unit}")
        spans_path = os.path.relpath(traced["spans_path"], ROOT)
        print(f"spans: {traced['spans']} written to {spans_path}; "
              f"{traced['bad_spans']} open, with a negative self time, or "
              f"outside their parent's job or interval")
        missing = sorted(set(LAYERS) - set(traced["present"]))
        print(f"boundaries not present (reported as 0): {missing}")
        print(f"scalar_allocs counted over the first {counted['attempted']} "
              f"jobs in a separate pass")
        print("no layer waits: the engine is single-threaded with no "
              "queues, so there is no time-waited metric")
    correct = failed == 0 and (not args.trace or traced["bad_spans"] == 0)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
