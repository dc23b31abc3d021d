"""Per-layer timing for traced runs, from the benchmark's own files.

:func:`install` wraps the public entry point of each layer so every call
records its duration, its *self* time (duration minus the wrapped calls
it made), and the rows it handled.  The program itself is not changed:
the wrappers replace attributes at run time in the traced process only.
End-to-end numbers always come from an untraced run.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass
class LayerStat:
    calls: int = 0
    rows: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    flagged: int = 0


def _len_first(args, result) -> int:
    return len(args[1])


def _batch_rows(array) -> int:
    return 1 if array.ndim == 1 else int(array.shape[0])


class LayerRecorder:
    """Accumulates a :class:`LayerStat` per layer name.

    Each thread keeps its own stack of open calls, so self time stays
    correct if a wrapped layer is ever called off the event loop thread.
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._local = threading.local()

    def wrap(
        self,
        fn: Callable,
        name: str,
        rows: Callable[[tuple, Any], int] | None = None,
        flagged: Callable[[Any], int] | None = None,
    ) -> Callable:
        stat = self.stats.setdefault(name, LayerStat())
        local = self._local

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - children
            if rows is not None:
                stat.rows += rows(args, result)
            if flagged is not None:
                stat.flagged += flagged(result)
            return result

        return timed

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {name: asdict(stat) for name, stat in self.stats.items()}


def install(recorder: LayerRecorder) -> LayerRecorder:
    """Wrap every measured layer entry point (before ``repro.cli`` is imported)."""
    import repro.core.timeseries_detector as ts_module
    import repro.persistence as persistence
    from repro.core.combined import CombinedDetector
    from repro.core.discretization import FeatureDiscretizer
    from repro.core.package_detector import PackageLevelDetector
    from repro.core.stream_engine import StreamEngine
    from repro.nn.network import StackedLSTMClassifier
    from repro.obs.historian import Historian
    from repro.obs.incidents import IncidentCorrelator
    from repro.obs.monitors import DriftMonitorBank
    from repro.serve.alerts import AlertPipeline

    wrap = recorder.wrap
    persistence.load_detector = wrap(persistence.load_detector, "persistence.load")
    FeatureDiscretizer.transform_batch = wrap(
        FeatureDiscretizer.transform_batch, "core.discretize", rows=_len_first
    )
    PackageLevelDetector.anomalous_codes_batch = wrap(
        PackageLevelDetector.anomalous_codes_batch, "core.package",
        rows=_len_first, flagged=lambda result: int(result.sum()),
    )
    StackedLSTMClassifier.step = wrap(
        StackedLSTMClassifier.step, "nn.step",
        rows=lambda args, result: _batch_rows(args[1]),
    )
    ts_module.CodeEncoder.encode_sequence = wrap(
        ts_module.CodeEncoder.encode_sequence, "core.encode", rows=_len_first
    )
    ts_module.top_k_sets = wrap(
        ts_module.top_k_sets, "core.topk",
        rows=lambda args, result: _batch_rows(args[0]),
    )
    ts_module.TimeSeriesDetector.observe_batch = wrap(
        ts_module.TimeSeriesDetector.observe_batch, "core.timeseries", rows=_len_first
    )
    StreamEngine.observe_batch = wrap(
        StreamEngine.observe_batch, "core.engine", rows=_len_first
    )
    CombinedDetector.detect = wrap(
        CombinedDetector.detect, "core.detect",
        rows=lambda args, result: len(result),
    )
    AlertPipeline.submit = wrap(AlertPipeline.submit, "alerts.submit")
    DriftMonitorBank.observe = wrap(DriftMonitorBank.observe, "monitors.observe")
    # The correlator is an alert sink: ``__call__`` is an alias of observe.
    observe = wrap(IncidentCorrelator.observe, "incidents.observe")
    IncidentCorrelator.observe = observe
    IncidentCorrelator.__call__ = observe
    Historian.append = wrap(Historian.append, "historian.append")
    return recorder


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the layers that ran, as ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}

    def stat(name: str) -> dict[str, float] | None:
        entry = stats.get(name)
        return entry if entry and entry["calls"] > 0 else None

    if (s := stat("persistence.load")) is not None:
        out["persistence.load_s"] = (s["seconds"] / s["calls"], "s")
    for layer, metric in (
        ("core.discretize", "core.discretize.us_per_row"),
        ("core.package", "core.package.us_per_row"),
        ("core.encode", "core.encode.us_per_row"),
        ("core.topk", "core.topk.us_per_row"),
        ("nn.step", "nn.step.us_per_row"),
    ):
        if (s := stat(layer)) is not None and s["rows"] > 0:
            out[metric] = (s["seconds"] / s["rows"] * 1e6, "us/row")
    if (s := stat("core.package")) is not None and s["rows"] > 0:
        out["core.package.flagged_share"] = (s["flagged"] / s["rows"], "ratio")
    if (s := stat("nn.step")) is not None:
        out["nn.step.us_per_call"] = (s["seconds"] / s["calls"] * 1e6, "us/call")
    if (s := stat("core.timeseries")) is not None and s["rows"] > 0:
        out["core.timeseries.self_us_per_row"] = (
            s["self_seconds"] / s["rows"] * 1e6, "us/row"
        )
    if (s := stat("core.engine")) is not None:
        out["core.engine.self_us_per_tick"] = (
            s["self_seconds"] / s["calls"] * 1e6, "us/tick"
        )
        out["core.engine.rows_per_tick"] = (s["rows"] / s["calls"], "rows/tick")
    if (s := stat("core.detect")) is not None and s["rows"] > 0:
        out["core.detect.self_us_per_pkg"] = (
            s["self_seconds"] / s["rows"] * 1e6, "us/pkg"
        )
    for layer in ("alerts.submit", "monitors.observe", "incidents.observe",
                  "historian.append"):
        if (s := stat(layer)) is not None:
            out[f"{layer}_us"] = (s["seconds"] / s["calls"] * 1e6, "us/call")
    return out
