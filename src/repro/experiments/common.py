"""Shared state and helpers for the experiment runners."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import repro.obs as obs
from repro.core.benchmark import AccelNASBench
from repro.core.dataset import (
    BenchmarkDataset,
    collect_accuracy_dataset,
    collect_device_dataset,
    sample_dataset_archs,
)
from repro.core.surrogate_fit import SurrogateFitter
from repro.hwsim.registry import DEVICE_METRICS
from repro.searchspace.mnasnet import ArchSpec
from repro.trainsim.schemes import P_STAR, TrainingScheme
from repro.trainsim.trainer import SimulatedTrainer

# Paper-scale defaults; experiment entry points accept smaller values for
# fast harness runs.
PAPER_NUM_ARCHS = 5200
PAPER_VALIDATION_ARCHS = 120


@dataclass
class ExperimentContext:
    """Caches datasets, fitted surrogates and the built benchmark.

    A context pins the dataset size, proxy scheme and seeds so that every
    experiment in a session operates on the same collected data — mirroring
    how the paper's tables and figures all derive from one collection run.

    Attributes:
        num_archs: Architectures in the shared dataset sample.
        scheme: Proxy training scheme used for ANB-Acc.
        sample_seed: Seed of the shared architecture sample.
    """

    num_archs: int = PAPER_NUM_ARCHS
    scheme: TrainingScheme = P_STAR
    sample_seed: int = 0
    trainer: SimulatedTrainer = field(default_factory=SimulatedTrainer)
    _archs: list[ArchSpec] | None = field(default=None, repr=False)
    _datasets: dict[str, BenchmarkDataset] = field(default_factory=dict, repr=False)
    _benchmark: AccelNASBench | None = field(default=None, repr=False)

    @property
    def archs(self) -> list[ArchSpec]:
        """The shared random architecture sample."""
        if self._archs is None:
            self._archs = sample_dataset_archs(self.num_archs, seed=self.sample_seed)
        return self._archs

    def accuracy_dataset(self) -> BenchmarkDataset:
        """ANB-Acc collected with the proxy scheme (cached)."""
        if "acc" not in self._datasets:
            with obs.span("experiment.accuracy_dataset", archs=self.num_archs):
                self._datasets["acc"] = collect_accuracy_dataset(
                    self.archs, self.scheme, trainer=self.trainer
                )
        return self._datasets["acc"]

    def device_dataset(self, device: str, metric: str) -> BenchmarkDataset:
        """ANB-{device}-{metric} (cached)."""
        key = f"{device}|{metric}"
        if key not in self._datasets:
            with obs.span(
                "experiment.device_dataset", device=device, metric=metric
            ):
                self._datasets[key] = collect_device_dataset(
                    self.archs, device, metric
                )
        return self._datasets[key]

    def device_targets(self) -> list[tuple[str, str]]:
        """All (device, metric) pairs of the paper's suite."""
        return [
            (device, metric)
            for device, metrics in DEVICE_METRICS.items()
            for metric in metrics
        ]

    def benchmark(self, fitter: SurrogateFitter | None = None) -> AccelNASBench:
        """The fully built Accel-NASBench (cached)."""
        if self._benchmark is None:
            with obs.span("experiment.benchmark", archs=self.num_archs):
                fitter = fitter if fitter is not None else SurrogateFitter()
                # One shared sample -> one encode, reused by all nine fits.
                features = fitter.encoder.encode(self.archs)
                acc_report = fitter.fit(
                    self.accuracy_dataset(), "xgb", features=features
                )
                perf_models = {}
                for device, metric in self.device_targets():
                    report = fitter.fit(
                        self.device_dataset(device, metric), "xgb", features=features
                    )
                    perf_models[(device, metric)] = report.model
                self._benchmark = AccelNASBench(
                    accuracy_model=acc_report.model,
                    perf_models=perf_models,
                    encoder=fitter.encoder,
                    meta={
                        "num_archs": self.num_archs,
                        "scheme": self.scheme.to_dict(),
                    },
                )
        return self._benchmark


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width ASCII table used by all experiment printouts."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_row(row):
        return "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


def save_result(result: dict, name: str, out_dir: str | Path = "results") -> Path:
    """Persist an experiment result dict as JSON; returns the path.

    The write is atomic, so an interrupted experiment never leaves a torn
    result file behind (a stale-but-complete previous result survives).
    """
    from repro.core.reliability import atomic_write

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    atomic_write(path, json.dumps(result, indent=2, default=_json_default))
    return path


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, ArchSpec):
        return obj.to_string()
    raise TypeError(f"not JSON serialisable: {type(obj)}")
