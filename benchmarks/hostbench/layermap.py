"""Which layer each ``repro`` module belongs to, and a profile grouped by it.

The map is data: a dotted module prefix names a layer, and a module
belongs to the layer of the longest prefix that is the module itself or
one of its parent packages.  The root entry ``repro`` catches the model
code no benchmark layer singles out (pipelines, datasets, formats,
calibration); ``test_layer_map.py`` checks that every module under
``src/repro`` resolves and that no entry is stale or duplicated.

Self time that no ``repro`` module owns (builtins such as ``heapq``, the
standard library) is its own layer, ``host``.
"""

from __future__ import annotations

import os

#: (module prefix, layer).  Layers are named after their modules.
LAYER_MAP = (
    ("repro", "model"),
    ("repro.sim", "sim.other"),
    ("repro.sim.events", "sim.events"),
    ("repro.sim.resources", "sim.resources"),
    ("repro.sim.cpu", "sim.resources"),
    ("repro.sim.bandwidth", "sim.bandwidth"),
    ("repro.sim.cluster", "sim.bandwidth"),
    ("repro.sim.pagecache", "sim.pagecache"),
    ("repro.backends.simulated", "backends.simulated"),
    ("repro.stream", "stream"),
    ("repro.stream.engine", "stream.engine"),
    ("repro.serve", "serve"),
    ("repro.ctl", "ctl"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro.api", "frontend"),
    ("repro.cli", "frontend"),
    ("repro.exec", "frontend"),
    ("repro.diagnosis", "frontend"),
    ("repro.lint", "frontend"),
)

#: Self time outside every ``repro`` module.
HOST = "host"

#: Every layer a profile is split into, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_MAP)) + (HOST,)

_BY_PREFIX = dict(LAYER_MAP)


def layer_of(module: str) -> str:
    """The layer of a dotted ``repro`` module name."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = _BY_PREFIX.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    raise KeyError(f"{module!r} is not a repro module")


def module_of(filename: str, src: str) -> str | None:
    """Dotted module name of a source file under ``src``, else ``None``."""
    rel = os.path.relpath(os.path.abspath(filename), src)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src: str) -> list[str]:
    """Every module under ``src/repro``, sorted."""
    modules = []
    for root, dirs, files in os.walk(os.path.join(src, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                modules.append(module_of(os.path.join(root, name), src))
    return sorted(modules)


def group_profile(stats: dict, src: str, exclude: str) -> dict:
    """Self seconds and call counts per layer from ``pstats`` raw stats.

    ``stats`` maps ``(file, line, function)`` to ``(primitive calls,
    calls, self seconds, cumulative seconds, callers)``, as
    ``pstats.Stats.stats`` holds it.  Functions defined under
    ``exclude`` (the benchmark's own wrappers) are left out of every
    total, so the shares describe the program alone.
    """
    exclude = os.path.abspath(exclude) + os.sep
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        if os.path.abspath(filename).startswith(exclude):
            continue
        module = module_of(filename, src)
        layer = HOST if module is None else layer_of(module)
        self_s[layer] += tottime
        calls[layer] += ncalls
    return {"self_s": self_s, "calls": calls}


def call_count(stats: dict, function) -> int:
    """Exact call count of one Python function, as the profiler saw it."""
    code = function.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry is not None else 0
