"""In-process references: the flat-engine oracle, ``run_study``, replays.

An op is ``("score", owner, measure)`` or ``("mutate", body)`` where
``body`` is the ``POST /mutate`` document.
"""

from __future__ import annotations

from pathlib import Path

from common import now

#: The server's compaction cadence (``serve --compact-every`` default),
#: mirrored so a durable replay does the same store work.
COMPACT_EVERY = 256


def replay(
    population,
    seed: int,
    warmup: list,
    timed: list,
    wal_dir: Path | None = None,
    tracer=None,
):
    """Run ops through ``mutate_store`` + ``RiskEngine.score``.

    A flat :class:`~repro.service.OwnerStore` without ``wal_dir``, a
    group-commit :class:`~repro.service.DurableOwnerStore` with it.
    The store mutates ``population``'s graph in place, so a population
    serves one replay only.
    Only ``timed`` ops are traced and timed.  Returns the latest digest
    per ``(owner, measure)`` and the timed wall seconds.
    """
    from repro.service import (
        DurableOwnerStore,
        OwnerStore,
        RiskEngine,
        mutate_store,
    )

    if wal_dir is None:
        store = OwnerStore.from_population(population)
    else:
        store = DurableOwnerStore.open(
            wal_dir, population, fsync="group", compact_every=COMPACT_EVERY
        )
    engine = RiskEngine(store, seed=seed)
    digests: dict[tuple[int, str], str] = {}

    def apply(op) -> None:
        if op[0] == "score":
            digests[(op[1], op[2])] = engine.score(op[1], op[2]).digest
        else:
            ack = mutate_store(store, op[1]["op"], op[1])
            if wal_dir is not None:
                store.wal.wait_durable(ack["seq"])

    for op in warmup:
        apply(op)
    if tracer is not None:
        tracer.enabled = True
    start = now()
    for index, op in enumerate(timed):
        if tracer is not None:
            tracer.request = index
        apply(op)
    elapsed = now() - start
    if tracer is not None:
        tracer.enabled = False
    if wal_dir is not None:
        store.close()
    return digests, elapsed


def oracle_digests(population, seed: int, mutations: list, pairs) -> dict:
    """Cold digests after applying ``mutations`` to a flat store."""
    digests, _ = replay(
        population,
        seed,
        [("mutate", body) for body in mutations],
        [("score", owner, measure) for owner, measure in pairs],
    )
    return digests


def study_digests(population, seed: int) -> dict:
    """Per-owner digests of the batch study on the same cohort and seed."""
    from repro.experiments import run_study
    from repro.io.serialization import result_digest

    study = run_study(population, seed=seed)
    return {run.owner.user_id: result_digest(run.result) for run in study.runs}
