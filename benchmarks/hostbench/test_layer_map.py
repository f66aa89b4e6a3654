"""Fast checks of the benchmark's layer map and metric names.

None of these runs a workload: the layer map is checked against the
modules on disk, and the functions that build the metrics are checked
against BENCHMARK.json on hand-made repetition results.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import layermap
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SRC = os.path.join(run.ROOT, "src")


def benchmark_names(section: str) -> list:
    with open(BENCHMARK) as handle:
        return [metric["name"] for metric in json.load(handle)[section]]


def test_every_repro_module_maps_to_exactly_one_layer():
    prefixes = [prefix for prefix, _ in layermap.LAYER_MAP]
    assert len(prefixes) == len(set(prefixes)), "duplicate prefix"
    modules = layermap.repro_modules(SRC)
    assert "repro.sim.events" in modules
    for module in modules:
        matches = [prefix for prefix in prefixes
                   if module == prefix or module.startswith(prefix + ".")]
        assert matches, f"{module} maps to no layer"
        longest = max(len(prefix) for prefix in matches)
        owners = [p for p in matches if len(p) == longest]
        assert len(owners) == 1, f"{module} maps to {owners}"
        assert (layermap.layer_of(module)
                == dict(layermap.LAYER_MAP)[owners[0]])


def test_no_stale_prefix_and_no_empty_layer():
    modules = layermap.repro_modules(SRC)
    for prefix, _ in layermap.LAYER_MAP:
        assert any(module == prefix or module.startswith(prefix + ".")
                   for module in modules), f"stale prefix {prefix}"
    used = {layermap.layer_of(module) for module in modules}
    assert used == set(layermap.LAYERS) - {layermap.HOST}
    assert set(run.SHARE_LAYERS) <= set(layermap.LAYERS)


def test_group_profile_splits_self_time_by_layer():
    events = os.path.join(SRC, "repro", "sim", "events.py")
    obs = os.path.join(SRC, "repro", "obs", "metrics.py")
    own = os.path.join(run.HERE, "rep.py")
    stats = {
        (events, 1, "run"): (1, 1, 2.0, 3.0, {}),
        (obs, 1, "inc"): (4, 4, 0.5, 0.5, {}),
        ("~", 0, "<built-in method _heapq.heappush>"): (9, 9, 1.0, 1.0, {}),
        (own, 1, "counting_acquire"): (7, 7, 5.0, 5.0, {}),
    }
    grouped = layermap.group_profile(stats, SRC, exclude=run.HERE)
    assert grouped["self_s"]["sim.events"] == 2.0
    assert grouped["self_s"]["host"] == 1.0
    assert grouped["calls"]["obs"] == 4
    assert sum(grouped["self_s"].values()) == 3.5


def _rep(**extra):
    rep = {"wall_s": 2.0, "cpu_s": 1.9, "setup_s": 0.5,
           "yardstick": {"wall_s": run.YARDSTICK_REF_S / 2,
                         "cpu_s": run.YARDSTICK_REF_S},
           "peak_rss_mb": 40.0, "events": 800, "batches": 100,
           "digest": "d", "elapsed": 2.6}
    rep.update(extra)
    return rep


def test_metric_names_match_benchmark_json():
    reps = [_rep(), _rep(wall_s=3.0, cpu_s=1.9), _rep(error="boom")]
    e2e = run.end_to_end(reps)
    gated = [name for name in e2e if name not in run.PRINTED_ONLY]
    assert gated == benchmark_names("end_to_end")
    assert sorted(set(e2e) - set(gated)) == sorted(run.PRINTED_ONLY)
    assert e2e["wall_s"] == 2.5
    assert e2e["events_per_batch"] == 8.0
    assert e2e["batches_per_s"] == 100 / (2.5 * 2)
    assert e2e["cpu_us_per_batch"] == 1.9 / 100 * 1e6
    assert e2e["ok_runs_frac"] == 2 / 3
    assert e2e["failed_runs_frac"] == 1 / 3

    counts = dict.fromkeys(
        ("timeouts", "resumes", "acquires", "immediate_grants",
         "transfers", "wakes", "peak_streams", "cache_lookups",
         "cache_inserts", "cache_hits", "cache_misses", "cache_evictions",
         "requests", "shed", "offline_runs", "offline_deduped", "retries",
         "fault_windows", "transfers_aborted"), 0)
    layers = dict.fromkeys(layermap.LAYERS, 0.0)
    layers["sim.events"] = 1.0
    profile = dict(counts, layer_self_s=layers,
                   layer_calls=dict.fromkeys(layermap.LAYERS, 0))
    layer = run.per_layer(_rep(wall_s=8.0, profile=profile), 2.0)
    assert sorted(layer) == sorted(benchmark_names("per_layer"))
    assert layer["sim.events.self_share"] == 1.0
    assert layer["trace.overhead_ratio"] == 4.0


def test_fails_without_printing_outside_a_checkout(tmp_path):
    bench = tmp_path / "benchmarks" / "hostbench"
    shutil.copytree(run.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "serve_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert done.stdout == ""
