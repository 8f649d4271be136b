"""Prometheus text-format exposition over the metrics registry.

Renders a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (plus any
caller-supplied extra gauges) as Prometheus text exposition format 0.0.4 —
the format every Prometheus-compatible scraper speaks:

- counters become ``anb_<name>_total`` with ``# TYPE ... counter``,
- gauges become ``anb_<name>`` with ``# TYPE ... gauge``,
- fixed-bucket histograms become ``anb_<name>_bucket{le="..."}`` series
  with cumulative counts, ``+Inf``, ``_sum`` and ``_count``,
- windowed-quantile instruments (:mod:`repro.obs.window`) become
  summaries: ``anb_<name>{quantile="0.99"}`` for the cumulative
  interpolated quantiles and ``anb_<name>{window="1m",quantile="0.99"}`` (plus
  ``_count``/``_sum`` per window) for the sliding windows.

Dotted internal names are sanitised to the Prometheus grammar
(``serve.requests.query`` → ``anb_serve_requests_query``) and the original
name is kept as the ``# HELP`` text, so dashboards can map back.  Output
is deterministic: names sorted, fixed sample order, shortest-round-trip
float formatting.

The serve layer exposes this as ``GET /metrics``; batch runs (collect,
fit, experiments) export the same text via the shared ``--prom-out`` CLI
flag.  ``python -m repro.obs.validate`` checks the rendered text against
the exposition grammar.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import MetricsRegistry, registry

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_PREFIX = "anb_"
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILE_KEY = re.compile(r"^p(\d+(?:\.\d+)?)$")


def metric_name(name: str) -> str:
    """Sanitise a dotted internal name into a Prometheus metric name."""
    flat = _INVALID_NAME_CHARS.sub("_", name)
    flat = re.sub(r"__+", "_", flat).strip("_")
    if not flat:
        raise ValueError(f"metric name {name!r} sanitises to nothing")
    if flat[0].isdigit():
        flat = "_" + flat
    return _NAME_PREFIX + flat


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition grammar."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Shortest round-trip rendering, with Prometheus inf/nan spellings."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _quantile_label(key: str) -> str:
    """Snapshot quantile key ("p99") -> Prometheus quantile value ("0.99")."""
    match = _QUANTILE_KEY.match(key)
    if match is None:
        return key
    return format_value(float(match.group(1)) / 100.0)


def _sample(name: str, labels: dict[str, str], value: float) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {format_value(value)}"
    return f"{name} {format_value(value)}"


def _render_window_block(lines: list[str], name: str, snap: dict) -> None:
    flat = metric_name(name)
    lines.append(f"# HELP {flat} {name} (windowed quantiles)")
    lines.append(f"# TYPE {flat} summary")
    for key, value in snap["quantiles"].items():
        if value is None:
            continue
        lines.append(_sample(flat, {"quantile": _quantile_label(key)}, value))
    lines.append(_sample(f"{flat}_sum", {}, snap["sum"]))
    lines.append(_sample(f"{flat}_count", {}, snap["count"]))
    for label, window in snap.get("windows", {}).items():
        for key, value in window["quantiles"].items():
            if value is None:
                continue
            lines.append(
                _sample(
                    flat,
                    {"window": label, "quantile": _quantile_label(key)},
                    value,
                )
            )
        lines.append(_sample(f"{flat}_sum", {"window": label}, window["sum"]))
        lines.append(
            _sample(f"{flat}_count", {"window": label}, window["count"])
        )


def render_exposition(
    snapshot: dict | None = None,
    extra_gauges: dict[str, float] | None = None,
) -> str:
    """Render a metrics snapshot as Prometheus text (trailing newline).

    Args:
        snapshot: A :meth:`MetricsRegistry.snapshot` dict; defaults to the
            process-wide registry's current snapshot.
        extra_gauges: Additional ``{dotted_name: value}`` gauges rendered
            alongside (the serve layer injects uptime/SLO/info gauges).
    """
    if snapshot is None:
        snapshot = registry().snapshot()
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        flat = metric_name(name) + "_total"
        lines.append(f"# HELP {flat} {name}")
        lines.append(f"# TYPE {flat} counter")
        lines.append(_sample(flat, {}, value))
    gauges = dict(snapshot.get("gauges", {}))
    for name, value in sorted((extra_gauges or {}).items()):
        gauges[name] = value
    for name, value in sorted(gauges.items()):
        flat = metric_name(name)
        lines.append(f"# HELP {flat} {name}")
        lines.append(f"# TYPE {flat} gauge")
        lines.append(_sample(flat, {}, value))
    for name, hist in snapshot.get("histograms", {}).items():
        flat = metric_name(name)
        lines.append(f"# HELP {flat} {name}")
        lines.append(f"# TYPE {flat} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["bucket_counts"]):
            cumulative += count
            lines.append(
                _sample(f"{flat}_bucket", {"le": format_value(bound)}, cumulative)
            )
        lines.append(_sample(f"{flat}_bucket", {"le": "+Inf"}, hist["count"]))
        lines.append(_sample(f"{flat}_sum", {}, hist["sum"]))
        lines.append(_sample(f"{flat}_count", {}, hist["count"]))
    for name, window in snapshot.get("windows", {}).items():
        _render_window_block(lines, name, window)
    return "\n".join(lines) + "\n"


def render_registry(reg: MetricsRegistry | None = None) -> str:
    """Render ``reg`` (default: the process-wide registry) as exposition text."""
    return render_exposition((reg or registry()).snapshot())


def export_prometheus(path, reg: MetricsRegistry | None = None) -> None:
    """Atomically write the registry's exposition text to ``path``."""
    from repro.core.reliability import atomic_write

    atomic_write(path, render_registry(reg))
