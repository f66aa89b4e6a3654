"""Pipeline specifications: representations, steps and split points.

The paper's model (Sec. 2): a preprocessing pipeline is a chain of steps
S1..Sn; a *strategy* materialises the output of S1..Sm to storage once
("offline") and re-runs Sm+1..Sn every epoch ("online").  Each strategy is
named after the representation it materialises (``unprocessed``,
``concatenated``, ``decoded``, ...).

A :class:`PipelineSpec` therefore interleaves:

* ``representations[k]`` -- the dataset representation after ``k`` steps
  (``representations[0]`` is the raw dataset on disk), and
* ``steps[k]`` -- the transformation from representation ``k`` to ``k+1``.

Every step carries a calibrated single-thread CPU cost (how the simulator
charges it), an implementation class (``native`` work scales across
threads, ``external`` work holds the GIL -- paper Sec. 4.4 obs. 2), a
determinism flag (non-deterministic steps such as random-crop can never be
moved offline, Sec. 2), and optionally a real NumPy callable used by the
in-process backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from repro.errors import (NonDeterministicSplitError, PipelineError,
                          StepNotFoundError)

#: Implementation classes for steps.
NATIVE = "native"
EXTERNAL = "external"


@dataclass(frozen=True)
class Representation:
    """A materialisable dataset representation.

    ``bytes_per_sample`` is the average on-disk footprint per sample in
    this representation (TFRecord framing included for record formats).
    ``n_files`` is how many storage objects hold the representation:
    ``sample_count`` for file-per-sample raw datasets, a handful of hourly
    containers for NILM, or ``shards`` once materialised.
    ``compressibility`` maps a compression codec name to the space-saving
    fraction achieved on this representation (paper Sec. 4.3).
    """

    name: str
    bytes_per_sample: float
    dtype: str = "uint8"
    n_files: Optional[int] = None   # None => sharded record files
    record_format: bool = True      # False for raw source formats
    compressibility: dict[str, float] = field(default_factory=dict)
    #: Deserialization slowdown vs the calibrated 0.4 GB/s per-thread
    #: baseline.  Large repeated-float protobuf messages parse several
    #: times slower (the paper: encodings "are not optimized for tensor
    #: data and may perform poorly").
    deser_penalty: float = 1.0
    #: Per-file open multiplier in file-per-sample mode; tiny media files
    #: pay container/codec setup on every open.
    open_latency_factor: float = 1.0

    def total_bytes(self, sample_count: int) -> float:
        """Total storage consumption for ``sample_count`` samples."""
        return self.bytes_per_sample * sample_count

    def saving(self, codec: Optional[str]) -> float:
        """Space-saving fraction under ``codec`` (0.0 for None/unknown)."""
        if codec is None:
            return 0.0
        return self.compressibility.get(codec, 0.0)

    def compressed_bytes_per_sample(self, codec: Optional[str]) -> float:
        return self.bytes_per_sample * (1.0 - self.saving(codec))


@dataclass(frozen=True)
class StepSpec:
    """One transformation in the chain, with its calibrated cost model."""

    name: str
    #: Single-thread CPU seconds per sample at the *pipeline's average*
    #: sample size (the simulator scales this for synthetic sweeps).
    cpu_seconds: float
    #: ``native`` (scales with cores) or ``external`` (holds the GIL).
    impl: str = NATIVE
    #: Non-deterministic steps (augmentation, shuffling) must stay online.
    deterministic: bool = True
    #: Real implementation for the in-process backend:
    #: ``fn(sample, rng) -> sample``.
    fn: Optional[Callable[..., Any]] = None

    def __post_init__(self):
        if self.impl not in (NATIVE, EXTERNAL):
            raise PipelineError(
                f"step {self.name!r}: impl must be 'native' or 'external', "
                f"got {self.impl!r}")
        if self.cpu_seconds < 0:
            raise PipelineError(f"step {self.name!r}: negative CPU cost")

    @property
    def holds_gil(self) -> bool:
        return self.impl == EXTERNAL


@dataclass(frozen=True)
class SplitPlan:
    """A concrete offline/online split of a pipeline."""

    pipeline: "PipelineSpec"
    split_index: int

    @property
    def strategy_name(self) -> str:
        """Strategies are named after the representation they materialise."""
        return self.pipeline.representations[self.split_index].name

    @property
    def materialized(self) -> Representation:
        return self.pipeline.representations[self.split_index]

    @property
    def offline_steps(self) -> tuple[StepSpec, ...]:
        return tuple(self.pipeline.steps[:self.split_index])

    @property
    def online_steps(self) -> tuple[StepSpec, ...]:
        return tuple(self.pipeline.steps[self.split_index:])

    @property
    def is_unprocessed(self) -> bool:
        """True when nothing is preprocessed offline (split at source)."""
        return self.split_index == 0

    def stored_bytes_per_sample(self, compression: Optional[str]) -> float:
        """Bytes per sample the strategy keeps on storage: the raw source
        when unprocessed, else the materialised records after
        ``compression``."""
        stored = self.materialized
        if self.is_unprocessed:
            return stored.bytes_per_sample
        return stored.compressed_bytes_per_sample(compression)


class PipelineSpec:
    """An ordered preprocessing pipeline with calibrated models."""

    def __init__(self, name: str, representations: Sequence[Representation],
                 steps: Sequence[StepSpec], sample_count: int,
                 description: str = ""):
        if len(representations) != len(steps) + 1:
            raise PipelineError(
                f"pipeline {name!r}: {len(steps)} steps need "
                f"{len(steps) + 1} representations, got "
                f"{len(representations)}")
        if sample_count <= 0:
            raise PipelineError(f"pipeline {name!r}: empty dataset")
        names = [step.name for step in steps]
        if len(set(names)) != len(names):
            raise PipelineError(f"pipeline {name!r}: duplicate step names")
        self.name = name
        self.representations = tuple(representations)
        self.steps = tuple(steps)
        self.sample_count = int(sample_count)
        self.description = description

    # -- queries -----------------------------------------------------------

    @property
    def source(self) -> Representation:
        """The raw on-disk dataset representation."""
        return self.representations[0]

    def step_names(self) -> list[str]:
        return [step.name for step in self.steps]

    def step(self, name: str) -> StepSpec:
        for candidate in self.steps:
            if candidate.name == name:
                return candidate
        raise StepNotFoundError(name, self.step_names())

    def representation(self, name: str) -> Representation:
        for candidate in self.representations:
            if candidate.name == name:
                return candidate
        raise StepNotFoundError(
            name, [rep.name for rep in self.representations])

    def max_offline_index(self) -> int:
        """Largest legal split index (non-deterministic steps stay online)."""
        index = 0
        for step in self.steps:
            if not step.deterministic:
                break
            index += 1
        return index

    # -- splitting -----------------------------------------------------------

    def split_at(self, index_or_name: int | str) -> SplitPlan:
        """Build the strategy that materialises the given representation."""
        if isinstance(index_or_name, str):
            names = [rep.name for rep in self.representations]
            if index_or_name not in names:
                raise StepNotFoundError(index_or_name, names)
            index = names.index(index_or_name)
        else:
            index = index_or_name
        if not 0 <= index < len(self.representations):
            raise PipelineError(
                f"split index {index} out of range for pipeline {self.name!r}")
        if index > self.max_offline_index():
            offending = self.steps[self.max_offline_index()].name
            raise NonDeterministicSplitError(
                f"cannot materialise {self.representations[index].name!r}: "
                f"step {offending!r} is non-deterministic and must run "
                "online every epoch")
        return SplitPlan(self, index)

    def split_points(self) -> list[SplitPlan]:
        """All legal strategies, source-first (the paper's Fig. 6 x-axes)."""
        return [SplitPlan(self, index)
                for index in range(self.max_offline_index() + 1)]

    def strategy_names(self) -> list[str]:
        return [plan.strategy_name for plan in self.split_points()]

    # -- modification (paper Sec. 4.6) ----------------------------------------

    def with_step_inserted(self, position: int, step: StepSpec,
                           representation_after: Representation,
                           ) -> "PipelineSpec":
        """Return a copy with ``step`` inserted before step ``position``.

        ``representation_after`` describes the data after the new step;
        downstream representations are left to the caller to adjust via
        :meth:`with_representation` when the insertion changes their sizes
        (e.g. greyscale shrinking everything after it).
        """
        if not 0 <= position <= len(self.steps):
            raise PipelineError(f"insert position {position} out of range")
        steps = list(self.steps)
        steps.insert(position, step)
        representations = list(self.representations)
        representations.insert(position + 1, representation_after)
        return PipelineSpec(self.name, representations, steps,
                            self.sample_count, self.description)

    def with_representation(self, name: str,
                            **overrides) -> "PipelineSpec":
        """Return a copy with fields of one representation replaced."""
        found = False
        representations = []
        for rep in self.representations:
            if rep.name == name:
                representations.append(replace(rep, **overrides))
                found = True
            else:
                representations.append(rep)
        if not found:
            raise StepNotFoundError(
                name, [rep.name for rep in self.representations])
        return PipelineSpec(self.name, representations, self.steps,
                            self.sample_count, self.description)

    def with_sample_count(self, sample_count: int) -> "PipelineSpec":
        """Return a copy profiled over a subset (paper Fig. 12: 8000).

        File counts scale with the subset so per-sample access patterns
        are preserved (a 8000-sample slice of ILSVRC is 8000 files, not
        1.3 M).
        """
        ratio = sample_count / self.sample_count
        representations = [
            rep if rep.n_files is None else replace(
                rep, n_files=max(1, round(rep.n_files * ratio)))
            for rep in self.representations
        ]
        return PipelineSpec(self.name, representations, self.steps,
                            sample_count, self.description)

    def renamed(self, name: str) -> "PipelineSpec":
        return PipelineSpec(name, self.representations, self.steps,
                            self.sample_count, self.description)

    def __repr__(self) -> str:
        chain = " -> ".join(rep.name for rep in self.representations)
        return f"PipelineSpec({self.name!r}: {chain})"
