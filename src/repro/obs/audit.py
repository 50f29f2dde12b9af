"""Decision-audit probe: structured records explaining policy choices.

A :class:`DecisionAudit` attached to a run receives one record per
policy decision worth explaining:

``css_scale``
    Every :meth:`CSSScalingMixin.scale` call — the four window stats
    ``T_i/T_e/T_d/T_p`` behind Algorithm 1, the branch taken
    (``speculate`` / ``disable`` / ``reopen`` / ``stay_queued``), the
    post-call ``bss_enabled`` state, and (when evaluated) the
    backlog-projection inputs.

``gate_flip``
    Each per-function ``bss_enabled`` transition, with timestamp, the
    comparison that caused it (``T_i>T_e`` or ``T_d>T_p``) and whether
    it fired from ``scale()`` or maintenance.

``eviction_decision``
    Each base ``make_room`` REPLACE decision — every victim's Eq. 3
    decomposition (``clock``, ``freq_per_min``, ``cost_ms``,
    ``size_mb``, ``warm_count`` = ``|F(c)|``, final ``priority``) plus
    a ranking snapshot of the surviving candidates.

Records are plain dicts (JSON-ready, compact keys mirroring
``event_to_dict``) kept in the same :class:`~repro.sim.eventlog.RecordLog`
ring and sink fan-out as the event log, and streamed through the same
sink core: :class:`AuditSink` is :class:`~repro.sim.telemetry.EventSink`,
:class:`AuditJsonlSink` a :class:`~repro.sim.telemetry.JsonlSink` that
writes the dicts as they are. The audit is strictly read-only: attaching
one leaves runs bit-identical to unaudited runs (pinned by
``tests/obs/test_audit_differential.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.sim.eventlog import RecordLog
from repro.sim.telemetry import EventSink, JsonlSink, read_jsonl

__all__ = ["AuditSink", "AuditJsonlSink", "DecisionAudit",
           "RECORD_KINDS", "read_audit_jsonl"]

#: Every record kind a :class:`DecisionAudit` can emit. ``scale_down``
#: records are minted by the orchestrator for policy-direct evictions
#: (TTL expiry, keep-alive decay) so cold-start attribution can blame
#: them by ``decision_id`` like any REPLACE decision.
RECORD_KINDS = ("css_scale", "gate_flip", "eviction_decision",
                "scale_down")

#: Audit sinks share the event sinks' contract: ``emit`` once per
#: record, idempotent ``close``, context-manager support.
AuditSink = EventSink


class AuditJsonlSink(JsonlSink):
    """Streams audit records to a JSONL sidecar file, one per line."""

    def __init__(self, path: Union[str, Path]):
        super().__init__(path, encode=None)


def read_audit_jsonl(path: Union[str, Path]) -> List[Dict]:
    """Load the records written by :class:`AuditJsonlSink`."""
    return read_jsonl(path)


class DecisionAudit(RecordLog):
    """In-memory record ring + sink fan-out for policy decisions.

    ``capacity=None`` keeps every record; a finite capacity keeps the
    most recent ones (sinks still see the full stream).
    """

    @property
    def records(self) -> Deque[Dict]:
        return self._ring

    def emit(self, record: Dict) -> int:
        """Record one decision; returns its stable ``decision_id``.

        Decision ids are assigned monotonically from 0 in emission order
        — the audit stream's line number — so sidecar files, the
        in-memory ring and cause stamps (``eviction:<id>``) all agree.
        The caller's dict is never mutated; the stamped copy is what the
        ring and the sinks see (``did`` key).
        """
        did = self.recorded
        stamped = dict(record)
        stamped["did"] = did
        self._append(stamped)
        return did

    def of_kind(self, kind: str) -> List[Dict]:
        return [r for r in self.records if r.get("kind") == kind]

    def record_by_id(self, did: int) -> Optional[Dict]:
        """The record with decision id ``did`` still held in the ring.

        O(1) for unbounded audits (ids are ring indexes); on a bounded
        ring the oldest records rotate out and return ``None``.
        """
        index = did - self.dropped
        if 0 <= index < len(self.records):
            return self.records[index]
        return None
