"""The repository benchmark: host time of four pinned DES workloads.

Runs one workload repeatedly, each repetition in a fresh interpreter
(``rep.py``), for at least ``--seconds`` seconds, checks the simulated
results, and prints every metric by name and unit.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` one more repetition runs under
``cProfile`` and the metrics are the per-layer ones.  See README.md.

Usage (from the repository root)::

    python3 benchmarks/hostbench/run.py --workload serve_mix --seed 0 \
        --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REP = os.path.join(HERE, "rep.py")

WORKLOADS = ("serve_mix", "serve_hot_raw", "stream_burst", "ctl_chaos")

#: Repetitions every untraced run makes, however short ``--seconds``.
MIN_REPS = 2

#: No repetition starts if the slowest one so far would then end later
#: than this many seconds into the run.
RUN_LIMIT_S = 150.0

#: A repetition that takes longer than this is killed and counted failed.
REP_TIMEOUT_S = 170.0

#: Files the benchmark needs from the repository around it.
REQUIRED = ("BENCHMARK.json",
            os.path.join("src", "repro", "__init__.py"),
            os.path.join("benchmarks", "perf", "scenarios.py"),
            os.path.join("benchmarks", "perf", "baseline.json"))

#: Wall seconds of the yardstick loop (``rep.yardstick``) on the
#: reference host: 2 vCPU Xeon, Python 3.11.7, when it ran fast.  Gated
#: times are reported as seconds on that host.  The speed of a shared
#: host drifts: serve_mix seed 0 ran in 3.4-4.1 s, then in 4.9-5.6 s a
#: minute later.  Scaled by the yardstick, the spread of stream_burst's
#: median time over five seeds fell from 0.16 to 0.04.
YARDSTICK_REF_S = 0.08

#: Printed with the end-to-end metrics but left out of the JSON result:
#: raw host times, which drift with the host, and the share of failed
#: repetitions, which is 0 on every good run and so has no relative
#: bound (``ok_runs_frac`` is gated).  Totals are gated per batch: the
#: seed changes how many batches ``ctl_chaos`` runs.
PRINTED_ONLY = {"wall_s": "s", "cpu_s": "s", "host_setup_s": "s",
                "yardstick_s": "s", "failed_runs_frac": "ratio"}

#: Layers whose self-time share is a per-layer metric.
SHARE_LAYERS = ("sim.events", "sim.resources", "sim.bandwidth",
                "sim.pagecache", "backends.simulated", "stream.engine",
                "serve", "ctl", "host")


def run_rep(workload: str, seed: int, profile: bool) -> dict:
    """One repetition in a fresh interpreter; its result or its error."""
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed)]
    if profile:
        cmd.append("--profile")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            cmd + ["--spawned", repr(time.perf_counter())],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S:.0f} s",
                "elapsed": time.perf_counter() - started}
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {done.returncode}: {tail[0]}",
                "elapsed": elapsed}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    if result["problems"]:
        result["error"] = "; ".join(result["problems"])
    return result


def run_reps(workload: str, seed: int, seconds: float,
             min_reps: int) -> list:
    """Untraced repetitions until ``seconds`` have passed."""
    started = time.perf_counter()
    reps = []
    while True:
        reps.append(run_rep(workload, seed, profile=False))
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed >= seconds:
            return reps
        slowest = max(rep["elapsed"] for rep in reps)
        if elapsed + slowest > RUN_LIMIT_S:
            return reps


def mark_disagreeing(reps: list) -> str | None:
    """Fail every repetition whose digest differs from the most common."""
    digests = collections.Counter(rep["digest"] for rep in reps
                                  if "error" not in rep)
    if not digests:
        return None
    reference, _ = max(sorted(digests.items()), key=lambda kv: kv[1])
    for rep in reps:
        if "error" not in rep and rep["digest"] != reference:
            rep["error"] = (f"simulated statistics differ: digest "
                            f"{rep['digest'][:12]} vs {reference[:12]}")
    return reference


def end_to_end(reps: list) -> dict:
    """The end-to-end metrics, plus the ``PRINTED_ONLY`` ones.

    Gated times are scaled to the reference host speed, each repetition
    by its own yardstick: times ``YARDSTICK_REF_S`` over the yardstick's
    time, taken around the same run.
    """
    ok = [rep for rep in reps if "error" not in rep]

    def median(key, scale=None):
        return statistics.median(
            rep[key] * (1.0 if scale is None
                        else YARDSTICK_REF_S / rep["yardstick"][scale])
            for rep in ok)
    batches = ok[0]["batches"]
    return {
        "batches_per_s": batches / median("wall_s", scale="wall_s"),
        "cpu_us_per_batch": median("cpu_s", scale="cpu_s") / batches * 1e6,
        "events_per_batch": ok[0]["events"] / batches,
        "setup_s": median("setup_s", scale="wall_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "ok_runs_frac": len(ok) / len(reps),
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "host_setup_s": median("setup_s"),
        "yardstick_s": statistics.median(rep["yardstick"]["wall_s"]
                                         for rep in ok),
        "failed_runs_frac": (len(reps) - len(ok)) / len(reps),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(profiled: dict, untraced_wall: float) -> dict:
    """The per-layer metrics of one profiled repetition."""
    prof = profiled["profile"]
    self_s = prof["layer_self_s"]
    total = sum(self_s.values())
    share = {layer: _ratio(seconds, total)
             for layer, seconds in self_s.items()}
    batches = profiled["batches"]
    metrics = {f"{layer}.self_share": share[layer]
               for layer in SHARE_LAYERS}
    metrics.update({
        "sim.events.resolved": profiled["events"],
        "sim.events.timeouts": prof["timeouts"],
        "sim.events.resumes": prof["resumes"],
        "sim.resources.acquires_per_batch": _ratio(prof["acquires"],
                                                   batches),
        "sim.resources.immediate_ratio": _ratio(prof["immediate_grants"],
                                                prof["acquires"]),
        "sim.bandwidth.transfers": prof["transfers"],
        "sim.bandwidth.wakes_per_transfer": _ratio(prof["wakes"],
                                                   prof["transfers"]),
        "sim.bandwidth.peak_streams": prof["peak_streams"],
        "sim.pagecache.hit_ratio": _ratio(
            prof["cache_hits"], prof["cache_hits"] + prof["cache_misses"]),
        "sim.pagecache.insert_ratio": _ratio(prof["cache_inserts"],
                                             prof["cache_lookups"]),
        "sim.pagecache.evictions": prof["cache_evictions"],
        # cProfile inflates seconds several-fold, so its shares are
        # used only to attribute the untraced wall time.
        "backends.simulated.us_per_batch": _ratio(
            share["backends.simulated"] * untraced_wall * 1e6, batches),
        "stream.engine.us_per_batch": _ratio(
            share["stream.engine"] * untraced_wall * 1e6, batches),
        "stream.engine.requests": prof["requests"],
        "stream.engine.shed": prof["shed"],
        "serve.offline_dedup_ratio": _ratio(
            prof["offline_deduped"],
            prof["offline_runs"] + prof["offline_deduped"]),
        "ctl.retries": prof["retries"],
        "faults.windows": prof["fault_windows"],
        "faults.transfers_aborted": prof["transfers_aborted"],
        "obs.calls": prof["layer_calls"]["obs"],
        "trace.overhead_ratio": profiled["wall_s"] / untraced_wall,
    })
    return metrics


def units(section: str) -> dict:
    """name -> unit of the metrics in one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


def missing_files() -> list:
    return [path for path in REQUIRED
            if not os.path.isfile(os.path.join(ROOT, path))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the pinned DES workloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and waits
    # for the running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = missing_files()
    if missing:
        print(f"hostbench: not inside a repository checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    # Byte-compile once up front, so no repetition pays it in set-up.
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks",
                                                         "perf"), HERE):
        compileall.compile_dir(path, quiet=1)

    if args.trace:
        reps = run_reps(args.workload, args.seed, args.seconds / 2,
                        min_reps=1)
        profiled = run_rep(args.workload, args.seed, profile=True)
        reps.append(profiled)
    else:
        reps = run_reps(args.workload, args.seed, args.seconds, MIN_REPS)
    reference = mark_disagreeing(reps)
    failed = sum(1 for rep in reps if "error" in rep)
    for index, rep in enumerate(reps):
        kind = "profiled" if "profile" in rep else "untraced"
        status = rep.get("error", f"ok, digest {rep.get('digest', '')[:12]}")
        timing = ""
        if "wall_s" in rep:
            timing = (f"run {rep['wall_s']:.3f} s, yardstick "
                      f"{rep['yardstick']['wall_s']:.4f} s, ")
        print(f"# rep {index} ({kind}): {timing}"
              f"process {rep['elapsed']:.3f} s: {status}")
    print(f"# workload {args.workload}, seed {args.seed}: "
          f"{len(reps) - failed}/{len(reps)} repetitions ok, "
          f"digest {reference}")

    untraced = [rep for rep in reps
                if "error" not in rep and "profile" not in rep]
    if args.trace:
        unit = units("per_layer")
        metrics = {}
        if untraced and "error" not in profiled:
            metrics = per_layer(profiled, statistics.median(
                rep["wall_s"] for rep in untraced))
    else:
        unit = units("end_to_end")
        metrics = end_to_end(reps) if untraced else {}
    for name, value in metrics.items():
        if name in unit:
            print(f"{name} = {value:.6g} {unit[name]}")
        else:
            print(f"{name} = {value:.6g} {PRINTED_ONLY[name]} (not gated)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items() if name in unit},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
