"""A lightweight, stdlib-only metrics registry (Prometheus-flavoured).

One :class:`MetricsRegistry` is created per run. The orchestrator fills
its families once, when the run ends, from the run's
:class:`~repro.sim.metrics.MetricsCollector` records
(:func:`repro.sim.metrics.export_run_metrics`); policy hook sites and
the outcome resolver feed their own families as they go. It supports
the three staple instrument types — monotone :class:`Counter`, settable
:class:`Gauge`, fixed-bucket :class:`Histogram` — each optionally split
by a fixed set of label names (``family.labels(func="f3").inc()``).
Instruments are get-or-create by name, so hook sites can call
``registry.counter("repro_css_scale_total")`` without threading
instrument handles around.

Export surfaces:

* :meth:`MetricsRegistry.snapshot` — a plain JSON-ready dict (every
  family, every labelled child, full histogram bucket vectors);
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` histogram series, deterministic sample order), so
  artifacts drop straight into promtool / Grafana tooling.

Updating an instrument never touches simulator state: metrics observe,
they do not steer — attaching a registry leaves runs bit-identical
(pinned by the differential tests in ``tests/obs``).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

#: Default histogram buckets, tuned for millisecond latencies.
DEFAULT_LATENCY_BUCKETS_MS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                              500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting that parses back exactly."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ======================================================================
# Instruments (the per-label-set children)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down (pool sizes, committed memory)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive) edges.

    ``counts[i]`` holds observations with ``value <= buckets[i]`` (and
    greater than the previous edge); ``counts[-1]`` is the +Inf overflow
    bucket.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]):
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, ``+Inf`` last (== :attr:`count`)."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


# ======================================================================
# Families


class _Family:
    """One named metric: type, help text, and labelled children."""

    __slots__ = ("name", "help", "kind", "labelnames", "_children",
                 "_make")

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: Sequence[str], make_child: Callable):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._children: Dict[Tuple[str, ...], object] = {}
        self._make = make_child

    def labels(self, **labels: object):
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    # Unlabelled convenience: a family with no label names behaves like
    # its single child, so `registry.counter("x").inc()` just works.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in deterministic (sorted) order."""
        return sorted(self._children.items())

    def samples(self) -> List[dict]:
        out = []
        for key, child in self.children():
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                out.append({"labels": labels,
                            "le": list(child.buckets),
                            "counts": list(child.counts),
                            "sum": child.sum, "count": child.count})
            else:
                out.append({"labels": labels, "value": child.value})
        return out


# ======================================================================
# Registry


class MetricsRegistry:
    """Per-run instrument registry with JSON and Prometheus export."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- get-or-create instruments -------------------------------------

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> _Family:
        return self._get_or_create(name, help_text, "counter", labelnames,
                                   Counter)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> _Family:
        return self._get_or_create(name, help_text, "gauge", labelnames,
                                   Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  labelnames: Sequence[str] = ()) -> _Family:
        edges = tuple(float(b) for b in buckets)
        if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("buckets must be non-empty and strictly "
                             "increasing")
        return self._get_or_create(name, help_text, "histogram",
                                   labelnames, lambda: Histogram(edges))

    def _get_or_create(self, name: str, help_text: str, kind: str,
                       labelnames: Sequence[str],
                       make_child: Callable) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"{name} is already registered as a {family.kind}")
            if tuple(labelnames) and tuple(labelnames) != family.labelnames:
                raise ValueError(
                    f"{name} is already registered with labels "
                    f"{family.labelnames}")
            return family
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = _Family(name, help_text, kind, labelnames, make_child)
        self._families[name] = family
        return family

    # -- introspection / export ----------------------------------------

    def families(self) -> List[_Family]:
        return [self._families[n] for n in sorted(self._families)]

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def snapshot(self) -> dict:
        """JSON-ready dump: every family with its labelled samples."""
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": family.samples(),
            }
            for family in self.families()
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} "
                             f"{_escape_label(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                base = list(zip(family.labelnames, key))
                if family.kind == "histogram":
                    running = 0
                    for edge, count in zip(child.buckets, child.counts):
                        running += count
                        lines.append(_sample_line(
                            family.name + "_bucket",
                            base + [("le", _fmt(edge))], running))
                    lines.append(_sample_line(
                        family.name + "_bucket", base + [("le", "+Inf")],
                        child.count))
                    lines.append(_sample_line(family.name + "_sum", base,
                                              child.sum))
                    lines.append(_sample_line(family.name + "_count",
                                              base, child.count))
                else:
                    lines.append(_sample_line(family.name, base,
                                              child.value))
        return "\n".join(lines) + ("\n" if lines else "")

    def save_json(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)

    def save_prometheus(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render_prometheus())


def _sample_line(name: str, labels: List[Tuple[str, str]],
                 value: float) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape_label(str(v))}"'
                        for k, v in labels)
        return f"{name}{{{body}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"
