"""OpenMetrics text export of the metrics registry.

:func:`render_openmetrics` turns the process-global
:class:`~repro.obs.registry.MetricsRegistry` into the Prometheus /
OpenMetrics text exposition format, so any standard scrape pipeline can
ingest the reproduction's telemetry without this repo growing a
dependency:

* counters render as ``counter`` families (the mandatory ``_total``
  sample suffix is added exactly once, whether or not the registry name
  already carries it);
* gauges render as ``gauge`` families;
* histograms render as ``summary`` families — quantile samples from the
  (possibly reservoir-sampled) percentiles plus exact ``_count`` /
  ``_sum`` samples.

:func:`validate_openmetrics` is a strict line-level checker for the
subset of the grammar this exporter emits; the golden-file test pins the
exact rendering and CI validates every exported snapshot with it.

:class:`Snapshotter` writes the rendering to a file on a fixed cadence
(atomic rename, so scrapers never read a torn snapshot) — the
zero-dependency stand-in for an HTTP ``/metrics`` endpoint.
"""

from __future__ import annotations

import math
import os
import re
import threading
from pathlib import Path
from typing import Any

from .registry import REGISTRY, MetricsRegistry

_QUANTILES = ((0.5, 50.0), (0.95, 95.0), (0.99, 99.0))

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _sanitize_name(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(out):
        out = "_" + out
    return out


def _sanitize_label(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not _LABEL_NAME_OK.match(out):
        out = "_" + out
    return out


def _escape(value: Any) -> str:
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    out = float(value)
    if math.isnan(out):
        return "NaN"
    if math.isinf(out):
        return "+Inf" if out > 0 else "-Inf"
    return repr(out)


def _dedupe(name: str, used: set[str]) -> str:
    """``name``, suffixed ``_2``/``_3``/... if sanitization collided.

    Distinct raw names can sanitize to the same string (``layer-a`` and
    ``layer a`` both become ``layer_a``); emitting both verbatim would
    produce a sample with duplicate label names or a family declared
    twice — both rejected by :func:`validate_openmetrics`.  Insertion
    order makes the suffixes deterministic.
    """
    if name not in used:
        used.add(name)
        return name
    for i in range(2, len(used) + 2):
        candidate = f"{name}_{i}"
        if candidate not in used:
            used.add(candidate)
            return candidate
    raise AssertionError("unreachable: more suffixes than names")


def _labelset(labels: tuple[tuple[str, Any], ...],
              extra: tuple[tuple[str, str], ...] = ()) -> str:
    # Reserve the exporter-owned names (e.g. ``quantile``) first so a
    # user label that sanitizes onto one gets suffixed, not the reverse.
    used = {k for k, _ in extra}
    parts = [
        f'{_dedupe(_sanitize_label(k), used)}="{_escape(v)}"'
        for k, v in labels
    ] + [f'{k}="{v}"' for k, v in extra]
    return "{" + ",".join(parts) + "}" if parts else ""


def render_openmetrics(registry: MetricsRegistry | None = None) -> str:
    """The registry in OpenMetrics text format (ends with ``# EOF``)."""
    registry = REGISTRY if registry is None else registry
    families: dict[tuple[str, str], list[Any]] = {}
    for (kind, name, _labels), metric in registry.items():
        families.setdefault((kind, name), []).append(metric)

    lines: list[str] = []
    used_families: set[str] = set()
    for (kind, name), metrics in families.items():
        base = _sanitize_name(name)
        if kind == "counter":
            base = base[: -len("_total")] if base.endswith("_total") else base
        # Distinct registry names can sanitize to one family name (and a
        # gauge can collide with a counter or histogram family) — each
        # final family name must be declared exactly once.
        base = _dedupe(base, used_families)
        if kind == "counter":
            family = base
            lines.append(f"# TYPE {family} counter")
            for m in metrics:
                lines.append(
                    f"{family}_total{_labelset(m.labels)} "
                    f"{_format_value(m.value)}"
                )
        elif kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            for m in metrics:
                lines.append(
                    f"{base}{_labelset(m.labels)} {_format_value(m.value)}"
                )
        else:  # histogram -> summary
            lines.append(f"# TYPE {base} summary")
            for m in metrics:
                if m.count:
                    for q, p in _QUANTILES:
                        labels = _labelset(
                            m.labels, extra=(("quantile", str(q)),)
                        )
                        lines.append(
                            f"{base}{labels} "
                            f"{_format_value(m.percentile(p))}"
                        )
                lines.append(
                    f"{base}_count{_labelset(m.labels)} {m.count}"
                )
                lines.append(
                    f"{base}_sum{_labelset(m.labels)} "
                    f"{_format_value(m.total)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation (the subset of the OpenMetrics ABNF this exporter emits)
# ---------------------------------------------------------------------------

_LABEL_RE = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?:\{{(?P<labels>{_LABEL_RE}(?:,{_LABEL_RE})*)\}})?"
    r" (?P<value>[-+]?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|Inf)|NaN)$"
)
_LABEL_ITEM_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
)
_TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<type>counter|gauge|summary|histogram|info|stateset|unknown)$"
)
_SUFFIXES = {
    "counter": ("_total", "_created"),
    "summary": ("", "_count", "_sum", "_created"),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
}


def validate_openmetrics(text: str) -> None:
    """Raise ``ValueError`` unless ``text`` is well-formed OpenMetrics.

    Checks line shapes, family/sample name agreement (counter samples
    must carry ``_total``; summary samples the summary suffixes), unique
    family declarations, unique label names within each sample, and the
    mandatory final ``# EOF``.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    seen_families: set[str] = set()
    family: str | None = None
    family_type = "unknown"
    for i, line in enumerate(lines[:-1], start=1):
        if line.startswith("#"):
            m = _TYPE_RE.match(line)
            if m is None:
                if line.startswith("# HELP ") or line.startswith("# UNIT "):
                    continue
                raise ValueError(f"line {i}: malformed comment {line!r}")
            family = m.group("name")
            family_type = m.group("type")
            if family in seen_families:
                raise ValueError(
                    f"line {i}: family {family!r} declared twice"
                )
            seen_families.add(family)
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {i}: malformed sample {line!r}")
        name = m.group("name")
        labels_text = m.group("labels")
        if labels_text:
            label_names = _LABEL_ITEM_RE.findall(labels_text)
            if len(label_names) != len(set(label_names)):
                dupes = sorted(
                    {n for n in label_names if label_names.count(n) > 1}
                )
                raise ValueError(
                    f"line {i}: duplicate label name(s) {dupes} in sample"
                )
        if family is None:
            raise ValueError(f"line {i}: sample before any # TYPE")
        suffixes = _SUFFIXES.get(family_type, ("",))
        if not any(
            name == family + s for s in suffixes
        ) and name != family:
            raise ValueError(
                f"line {i}: sample {name!r} does not belong to "
                f"family {family!r} ({family_type})"
            )
        if family_type == "counter" and not name.endswith("_total") \
                and not name.endswith("_created"):
            raise ValueError(
                f"line {i}: counter sample {name!r} lacks '_total'"
            )


# ---------------------------------------------------------------------------
# Periodic snapshotter
# ---------------------------------------------------------------------------


class Snapshotter:
    """Write the OpenMetrics rendering to a file every ``interval_s``.

    Writes go to ``<path>.tmp`` then ``os.replace`` onto ``path``, so a
    concurrent reader always sees a complete exposition.  Use as a
    context manager around a serving session, or drive manually with
    :meth:`write_snapshot`.
    """

    def __init__(
        self,
        path: str | Path,
        interval_s: float = 30.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.path = Path(path)
        self.interval_s = interval_s
        self.registry = REGISTRY if registry is None else registry
        self.snapshots_written = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def write_snapshot(self) -> Path:
        """Render and atomically publish one snapshot; returns the path."""
        text = render_openmetrics(self.registry)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, self.path)
        self.snapshots_written += 1
        return self.path

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write_snapshot()

    def start(self) -> "Snapshotter":
        if self._thread is not None:
            raise RuntimeError("snapshotter already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="obs-snapshotter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_snapshot: bool = True) -> None:
        """Stop the cadence; by default publish one last snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if final_snapshot:
            self.write_snapshot()

    def __enter__(self) -> "Snapshotter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
