"""Benchmark-side spans around the public functions of each layer.

The wrappers are installed by patching attributes of the program's
modules for the duration of a traced replay; ``src/`` itself carries no
instrumentation.  Spans are kept in memory (name, start, end, parent,
request id, count) and written out when the run ends.  A layer's self
time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path

from common import now


class Tracer:
    """An in-memory span recorder for one single-threaded replay.

    ``overhead`` accumulates the seconds spent in the wrappers' own
    bookkeeping, outside every wrapped call: the cost tracing adds.
    """

    def __init__(self) -> None:
        # [name, start, end, parent, request, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.enabled = False
        self.overhead = 0.0

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(result)`` sizes it."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            entered = now()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, None, None, parent, self.request, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                self._stack.pop()
            if count is not None:
                span[5] = count(result)
            self.overhead += span[1] - entered + now() - span[2]
            return result

        return traced

    def layers(self, requests=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self milliseconds, and summed counts.

        ``requests`` keeps only the spans of those request ids.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "count": 0}
        )
        for index, (name, start, end, _, request, count) in enumerate(
            self.spans
        ):
            if requests is not None and request not in requests:
                continue
            row = table[name]
            row["calls"] += 1
            row["self_ms"] += (end - start - child_time[index]) * 1000.0
            row["count"] += count or 0
        return dict(table)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, count in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "count": count,
                        }
                    )
                    + "\n"
                )


def _targets():
    """(owner, attribute, span name, count) for every wrapped function.

    Module-level functions are patched where the caller looks them up
    (``from x import f`` binds a name in the importing module).
    """
    from repro.benefits.model import BenefitModel
    from repro.classifier.graphs import SimilarityGraph
    from repro.classifier.harmonic import HarmonicClassifier
    from repro.learning import replay, session
    from repro.learning.pool_learner import PoolLearner
    from repro.measures import stranger
    from repro.service.engine import RiskEngine
    from repro.service.wal import DurableOwnerStore, WriteAheadLog
    from repro.similarity.network import NetworkSimilarity

    def cached_pools_count(result):
        return len(result[0])  # (pools, groups, reused)

    return [
        (HarmonicClassifier, "predict", "harmonic", len),
        (SimilarityGraph, "from_profiles", "simgraph", len),
        (NetworkSimilarity, "for_strangers", "ns", None),
        (BenefitModel, "for_strangers", "benefits", None),
        (session, "build_pools", "pools", len),
        (replay, "build_pools_cached", "pools", cached_pools_count),
        (PoolLearner, "run", "pool_learner", lambda r: r.num_rounds),
        (stranger, "replay_session", "replay", None),
        (stranger, "result_digest", "digest", None),
        (DurableOwnerStore, "add_friendship", "store.add_friendship", None),
        (
            DurableOwnerStore,
            "remove_friendship",
            "store.remove_friendship",
            None,
        ),
        (DurableOwnerStore, "update_profile", "store.update_profile", None),
        (DurableOwnerStore, "touch", "store.touch", None),
        (WriteAheadLog, "append", "wal.append", None),
        (WriteAheadLog, "wait_durable", "wal.wait_durable", None),
        (RiskEngine, "score", "engine.score", None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install ``tracer``'s wrappers; restore the originals on exit."""
    saved = []
    for owner, attribute, name, count in _targets():
        raw = owner.__dict__[attribute]
        saved.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, count))
        else:
            wrapped = tracer.wrap(name, raw, count)
        setattr(owner, attribute, wrapped)
    try:
        yield tracer
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)
