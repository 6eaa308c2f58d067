"""The workloads: what each sends, times and checks.

Every workload boots the real server from a generated dataset, drives
it over HTTP, reads its peak memory, stops it, and checks every digest
it served against the in-process oracle.  ``trace`` additionally
replays the exact op sequence in-process under span wrappers (see
:mod:`spans`) and probes the router and engine layers over HTTP.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import Counter

import oracle
import spans
from common import (
    OUT,
    Client,
    Server,
    SpeedProbe,
    backlog_profile,
    interquartile_mean,
    make_population,
    median,
    now,
    percentile,
    write_dataset,
)

MEASURES = ("stranger", "friendship", "neighborhood")
STORE_OPS = ("add_friendship", "remove_friendship", "update_profile", "touch")
NPROC = len(os.sched_getaffinity(0))


def failure_kind(reply) -> str | None:
    """``None`` for a 200, else ``http_<status>``, ``timeout`` or
    ``connection``; any of them misses every latency limit."""
    if reply.ok:
        return None
    return reply.error or f"http_{reply.status}"


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, name: str, stamp: dict) -> None:
        self.name = name
        self.stamp = stamp
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict[str, object] = {}
        self.attempted = 0
        self.failures: Counter = Counter()
        self.mismatches: list[str] = []
        self.layers: dict[str, tuple[float, str]] = {}
        #: Owners a mutation of unknown outcome may have changed, and
        #: the (owner, measure) pairs left unchecked because of it or
        #: because their last score failed.
        self.unknown_owners: set[int] = set()
        self.unverified: set[tuple[int, str]] = set()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def count(self, reply) -> bool:
        """Account one request; True when it succeeded."""
        self.attempted += 1
        kind = failure_kind(reply)
        if kind is not None:
            self.failures[kind] += 1
        return kind is None

    def count_mutation(self, reply, body: dict, universes: dict) -> bool:
        """Account one ``/mutate``; True when it was acknowledged.

        A failed mutation may still have been applied (a timeout, a lost
        connection, a router broadcast that reached some shards), so the
        owners it can change are left out of the digest check; the
        failure itself is already counted.
        """
        if self.count(reply):
            return True
        self.unknown_owners |= affected_owners(universes, body)
        return False

    def compare(self, label: str, served: dict, expected: dict) -> None:
        checked = 0
        for key, digest in sorted(expected.items()):
            if key[0] in self.unknown_owners or key not in served:
                self.unverified.add(key)
            elif served[key] != digest:
                self.mismatches.append(
                    f"{label} {key}: served {served[key]} != {digest}"
                )
            else:
                checked += 1
        if not checked:
            self.mismatches.append(f"{label}: no digest could be checked")


def universes_of(population) -> dict[int, frozenset[int]]:
    """Each owner's universe: the owner, its friends and its strangers."""
    return {
        owner: frozenset({owner, *handle.friends, *handle.strangers})
        for owner, handle in population.handles.items()
    }


def affected_owners(universes: dict, body: dict) -> set[int]:
    """Owners whose universe holds a user ``body`` names.

    The store invalidates exactly these owners for a mutation, so no
    other owner's digests can depend on it.
    """
    named = {body.get("owner"), body.get("a"), body.get("b"),
             body.get("profile", {}).get("id")}
    return {owner for owner, users in universes.items() if named & users}


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------
def _boot(run_dir, dataset, seed, shards=0, boots=1):
    """Launch the server ``boots`` times, each on a fresh WAL directory.

    Returns the last server, left running, and the median time from
    launch until ``/readyz`` answered 200.
    """
    times = []
    for index in range(boots):
        boot_dir = run_dir / f"boot{index}"
        boot_dir.mkdir()
        start = now()
        server = Server(boot_dir, dataset, seed, shards=shards)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        times.append(now() - start)
        if index < boots - 1:
            server.stop()
    return server, median(times)


def _score_path(owner: int, measure: str) -> str:
    return f"/score?owner={owner}&measure={measure}"


def _totals(document: dict) -> dict[str, float]:
    """Counters summed over the shards of a ``/metrics`` document."""
    blocks = document.get("shards", [document])
    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0) + (value or 0)

    for block in blocks:
        engine = block["engine"]
        add("requests", engine["requests"])
        add("cache_hits", engine["cache_hits"])
        for key in ("pools_reused", "pools_rerun", "ns_reused", "ns_recomputed"):
            add(key, engine["incremental"][key])
        add("coalesced", block["scheduler"]["coalesced_hits"])
        add("pending", block["scheduler"]["pending"])
        add("admitted", block["admission"]["admitted"])
        add("shed", block["admission"]["shed"])
        add("appends", block["wal"]["appends"])
        add("fsyncs", block["wal"]["fsyncs"])
    add("shard_unavailable", document.get("router", {}).get("shard_unavailable"))
    return total


class _PendingPoller:
    """Samples the scheduler backlog from ``/metrics`` while work runs."""

    def __init__(self, url: str, period: float = 0.25) -> None:
        self.peak = 0.0
        self._client = Client(url, timeout=10.0)
        self._stop = threading.Event()
        self._period = period
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            reply = self._client.get("/metrics")
            if reply.ok:
                self.peak = max(self.peak, _totals(reply.json())["pending"])

    def close(self) -> float:
        self._stop.set()
        self._thread.join(timeout=30)
        self._client.close()
        return self.peak


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(out: Outcome, before: dict, after: dict, pending_max):
    """Per-layer figures the server reports about the timed phase."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    ns_total = delta["ns_reused"] + delta["ns_recomputed"]
    pools_total = delta["pools_reused"] + delta["pools_rerun"]
    requests = delta["requests"] + delta["coalesced"]
    out.layers.update(
        {
            "replay.pools_reused_share": (
                _share(delta["pools_reused"], pools_total), "ratio"),
            "replay.ns_reused_share": (
                _share(delta["ns_reused"], ns_total), "ratio"),
            "wal.records_per_fsync": (
                _share(delta["appends"], delta["fsyncs"]), "count"),
            "wal.fsyncs": (delta["fsyncs"], "count"),
            "engine.cache_hit_rate": (
                _share(delta["cache_hits"], delta["requests"]), "ratio"),
            "admission.rejected_share": (
                _share(delta["shed"], delta["admitted"] + delta["shed"]),
                "ratio"),
            "scheduler.coalesced_share": (
                _share(delta["coalesced"], requests), "ratio"),
            "scheduler.pending_max": (pending_max, "count"),
            "router.shard_unavailable": (delta["shard_unavailable"], "count"),
        }
    )


def _hit_probe(url: str, owner: int, rounds: int = 40, gap: float = 0.0):
    """Median ms of a cache-hit stranger ``/score`` sent to ``url``.

    Back to back on one keep-alive connection, or ``gap`` seconds apart.
    """
    client = Client(url)
    try:
        samples = []
        for _ in range(rounds):
            time.sleep(gap)
            reply = client.get(_score_path(owner, "stranger"))
            if reply.ok:
                samples.append(reply.seconds * 1000.0)
    finally:
        client.close()
    return median(samples)


def _traced_replay(out, shape, seed, warmup, timed, run_dir, cold_ops=0):
    """Replay the run's ops in process under spans; fills ``out.layers``.

    The exact op sequence runs over a group-commit ``DurableOwnerStore``
    on a freshly generated cohort (a store mutates the cohort's graph in
    place).  Returns the replay's digests, checked like the server's.
    The first ``cold_ops`` timed ops are cold scores, whose self time
    per layer is also printed on its own.

    Tracing overhead is the wrappers' own measured bookkeeping time: on
    a shared 2-core host a second, untraced replay differs from the
    traced one by run-to-run noise (about 10%), which dwarfs the
    wrappers.
    """
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        digests, replay_s = oracle.replay(
            make_population(seed=seed, **shape), seed, warmup, timed,
            wal_dir=run_dir / "replay-traced", tracer=tracer,
        )
    tracer.dump(OUT / f"{out.name}-seed{out.stamp['seed']}-spans.jsonl")
    table = tracer.layers()

    def total(span, field="self_ms"):
        return table.get(span, {}).get(field, 0)

    def mean(span, field="self_ms"):
        calls = total(span, "calls")
        return total(span, field) / calls if calls else 0.0

    store_calls = sum(total(f"store.{op}", "calls") for op in STORE_OPS)
    store_ms = sum(total(f"store.{op}") for op in STORE_OPS)
    out.layers.update(
        {
            "harmonic.self_ms": (total("harmonic"), "ms"),
            "harmonic.calls": (total("harmonic", "calls"), "count"),
            "harmonic.unlabeled_mean": (mean("harmonic", "count"), "count"),
            "simgraph.self_ms": (total("simgraph"), "ms"),
            "simgraph.nodes_mean": (mean("simgraph", "count"), "count"),
            "ns.self_ms": (total("ns"), "ms"),
            "pools.self_ms": (total("pools"), "ms"),
            "pools.count": (total("pools", "count"), "count"),
            "benefits.self_ms": (total("benefits"), "ms"),
            "pool_learner.self_ms": (total("pool_learner"), "ms"),
            "pool_learner.rounds": (total("pool_learner", "count"), "count"),
            "replay.self_ms": (total("replay"), "ms"),
            "digest.self_ms": (total("digest"), "ms"),
            "store.mutate_ms": (
                store_ms / store_calls if store_calls else 0.0, "ms"),
            "wal.append_ms": (mean("wal.append"), "ms"),
            "engine.score_self_ms": (total("engine.score"), "ms"),
            "tracing.overhead_ms": (tracer.overhead * 1000.0, "ms"),
            "tracing.overhead_share": (
                tracer.overhead / (replay_s - tracer.overhead), "ratio"),
        }
    )
    for op in STORE_OPS:
        out.layers[f"store.{op}_ms"] = (mean(f"store.{op}"), "ms")
    if cold_ops:
        cold = tracer.layers(requests=range(cold_ops))
        out.info["cold_self_ms"] = {
            name: round(row["self_ms"], 1)
            for name, row in sorted(
                cold.items(), key=lambda item: -item[1]["self_ms"])
        }
    return digests


# ---------------------------------------------------------------------------
# mutate-rescore, whose set-up is the cold paper-scale pipeline
# ---------------------------------------------------------------------------
MUTATE = {"owners": 4, "strangers": 3661, "friends": 40}
#: (kind, steps) in every round of the loop: friend-stranger edges move
#: NS through the owner's mutual friends; stranger-stranger edges and
#: profile edits touch a few strangers' NS or benefits; touch forces a
#: full revalidation that still reuses unchanged pools.  The counts give
#: each kind a sixth to a third of the loop's time at its mean rescore
#: cost measured on a 2-core host: friend-stranger edge ~0.45 s, touch
#: ~0.28 s, profile edit ~0.32 s, stranger-stranger edge ~0.045 s.  The
#: first two vary 0.03-2.5 s a step with how many pools rerun.
#: Seeds vary which users a step names and the order within a round,
#: not how many steps of each kind a round runs.
MUTATE_ROUND = (
    ("friend_stranger_edge", 1),
    ("stranger_stranger_edge", 16),
    ("update_profile", 1),
    ("touch", 2),
)
#: The loop runs whole rounds until ``--seconds`` have passed, and at
#: least this many: 200 steps, so that ten rescores lie beyond p95.
MIN_ROUNDS = 10


class MutationMix:
    """The seeded mutation stream of mutate-rescore, a round at a time.

    Edge steps toggle: they add the edge when it is absent and remove it
    when present, judged against the cohort plus the steps so far.
    """

    def __init__(self, population, rng: random.Random) -> None:
        self.population = population
        self.rng = rng
        self.owners = [owner.user_id for owner in population.owners]
        self._edges: dict[tuple[int, int], bool] = {}
        self._step = 0
        self.kinds = [kind for kind, _ in MUTATE_ROUND]

    def _toggle(self, a: int, b: int) -> dict:
        key = (min(a, b), max(a, b))
        present = self._edges.get(key)
        if present is None:
            present = self.population.graph.are_friends(a, b)
        self._edges[key] = not present
        op = "remove_friendship" if present else "add_friendship"
        return {"op": op, "a": a, "b": b}

    def round(self) -> list[tuple[int, str, dict]]:
        """The next round's steps: (owner, kind, ``/mutate`` body)."""
        kinds = [kind for kind, n in MUTATE_ROUND for _ in range(n)]
        self.rng.shuffle(kinds)
        return [self._next(kind) for kind in kinds]

    def _next(self, kind: str) -> tuple[int, str, dict]:
        from repro.io.serialization import profile_to_dict

        rng = self.rng
        self._step += 1
        owner = rng.choice(self.owners)
        handle = self.population.handles[owner]
        if kind == "friend_stranger_edge":
            body = self._toggle(
                rng.choice(handle.friends), rng.choice(handle.strangers))
        elif kind == "stranger_stranger_edge":
            body = self._toggle(*rng.sample(handle.strangers, 2))
        elif kind == "update_profile":
            user = rng.choice(handle.strangers)
            profile = profile_to_dict(self.population.graph.profile(user))
            profile["attributes"]["location"] = f"town-{self._step}"
            body = {"op": "update_profile", "profile": profile}
        else:
            body = {"op": "touch", "owner": owner}
        return owner, kind, body


def mutate_rescore(run_dir, seed: int, seconds: int, traced: bool):
    shape = MUTATE
    out = Outcome(
        "mutate-rescore",
        {**shape, "seed": seed, "nproc": NPROC, "shards": 0,
         "fsync": "group", "loop": "closed", "clients": 1,
         "round": dict(MUTATE_ROUND), "min_rounds": MIN_ROUNDS},
    )
    population = make_population(seed=seed, **shape)
    owners = [owner.user_id for owner in population.owners]
    strangers = sum(len(population.handles[o].strangers) for o in owners[1:])
    universes = universes_of(population)
    mix = MutationMix(population, random.Random(seed))
    pairs = [(owner, "stranger") for owner in owners]
    dataset = write_dataset(population, run_dir / "cohort.json")
    speed = SpeedProbe()
    server, boot_s = _boot(run_dir, dataset, seed)
    cold: dict[tuple[int, str], str] = {}
    served: dict[tuple[int, str], str] = {}
    acked: list[dict] = []
    timed_ops: list = []
    cold_s, rescore, ack = [], [], []
    busy_s = 0.0  # the loop's steps, without the probes between them
    busy_by_kind = {kind: 0.0 for kind in mix.kinds}
    by_kind = {kind: [] for kind in mix.kinds}
    try:
        client = Client(server.url, timeout=170.0)
        # set-up: every owner's cold score, the paper-scale pipeline;
        # the first one also pays the engine's one-time lazy set-up
        for owner in owners:
            reply = client.get(_score_path(owner, "stranger"))
            if not out.count(reply):
                raise RuntimeError(f"set-up score failed: {reply.status}")
            cold[(owner, "stranger")] = reply.json()["digest"]
            cold_s.append(reply.seconds)
            timed_ops.append(("score", owner, "stranger"))
        served.update(cold)
        setup_s = boot_s + sum(cold_s)
        before = _totals(client.get_json("/metrics"))
        poller = _PendingPoller(server.url) if traced else None
        loop_start = now()
        rounds = 0
        while rounds < MIN_ROUNDS or now() - loop_start < seconds:
            rounds += 1
            for owner, kind, body in mix.round():
                start = now()
                reply = client.post("/mutate", body)
                if not out.count_mutation(reply, body, universes):
                    busy_s += now() - start
                    busy_by_kind[kind] += now() - start
                    speed.sample()
                    continue
                ack.append(reply.seconds)
                acked.append(body)
                timed_ops.append(("mutate", body))
                score = client.get(_score_path(owner, "stranger"))
                timed_ops.append(("score", owner, "stranger"))
                if out.count(score):
                    elapsed = now() - start
                    rescore.append(elapsed)
                    by_kind[kind].append(elapsed)
                    served[(owner, "stranger")] = score.json()["digest"]
                else:
                    # the digest served before the mutation is stale now
                    served.pop((owner, "stranger"), None)
                busy_s += now() - start
                busy_by_kind[kind] += now() - start
                speed.sample()
        pending_max = poller.close() if poller else 0.0
        after = _totals(client.get_json("/metrics"))
        if traced:
            _layer_metrics(out, before, after, pending_max)
            out.layers["engine.hit_ms"] = (
                _hit_probe(server.url, owners[0]), "ms")
        client.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    if traced:
        # the cold digests against the batch study on a fresh copy of
        # the cohort: in traced runs only, which keeps the untraced run
        # within its time budget
        study = oracle.study_digests(make_population(seed=seed, **shape), seed)
        out.compare("run_study", cold,
                    {(o, "stranger"): d for o, d in study.items()})
    out.compare("engine oracle", served,
                oracle.oracle_digests(population, seed, acked, pairs))
    latency_s = interquartile_mean(by_kind["stranger_stranger_edge"])
    steady = ("stranger_stranger_edge", "touch")
    rate = (sum(len(by_kind[kind]) for kind in steady)
            / sum(busy_by_kind[kind] for kind in steady))
    # times at reference host speed (see SpeedProbe), from probes taken
    # between the loop's steps: a few in the shorter set-up read a
    # third off in some runs, and the host's speed drifts over minutes,
    # not within one run
    scale = speed.scale()
    out.metrics = {
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (rss, "MB"),
        # the typical delta rescore: a stranger-stranger edge, whose
        # cost does not hinge on how many pools rerun.  A friend-stranger
        # edge or a profile edit reruns no pool or ~0.4-2.5 s of them,
        # about as often either way, so the middle half of all steps
        # moved with how many of the few heavy steps a seed made cheap
        "latency_ms": (latency_s * scale * 1000.0, "ms"),
        # the kinds whose cost does not hinge on chance: stranger-stranger
        # edges and touch, whose full revalidation replays every pool.
        # Over all kinds, ten runs spread by 0.23 of their median, from
        # how many of a run's 20 friend-stranger edges and profile edits
        # happened to rerun pools; that rate is printed
        "rate_per_s": (rate / scale, "1/s"),
    }
    out.info = {
        "as_measured": {"setup_s": setup_s, "latency_ms": latency_s * 1000.0,
                        "rate_per_s": rate},
        "rescore_rate_all_kinds_per_s": (
            len(rescore) / busy_s / scale, "1/s", len(rescore)),
        "probe_ms": (median(speed.samples) * 1000.0, "ms",
                     len(speed.samples)),
        "cold_score_p50_s": (median(cold_s[1:]), "s", len(cold_s) - 1),
        "cold_score_max_s": (max(cold_s[1:]), "s", len(cold_s) - 1),
        "cold_strangers_per_s": (
            strangers / sum(cold_s[1:]), "1/s", strangers),
        "rescore_p50_ms": (median(rescore) * 1000.0, "ms", len(rescore)),
        "rescore_p95_ms": (
            percentile(rescore, 95) * 1000.0, "ms", len(rescore)),
        "mutate_ack_p50_ms": (median(ack) * 1000.0, "ms", len(ack)),
        **{
            f"rescore_p50_ms.{kind}": (
                median(values) * 1000.0 if values else 0.0, "ms",
                len(values))
            for kind, values in by_kind.items()
        },
    }
    if traced:
        out.compare("traced replay", served, _traced_replay(
            out, shape, seed, [], timed_ops, run_dir, cold_ops=len(owners)))
        _no_router(out)
    return out


def _no_router(out: Outcome) -> None:
    """Unsharded workloads have no router hop and no broadcast."""
    for name in ("router.hop_ms", "router.hop_paced_ms", "router.broadcast_ms"):
        out.layers[name] = (0.0, "ms")

# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
SERVE = {"owners": 16, "strangers": 300, "friends": 40}
SHARDS = 2
#: Launches whose median launch-to-ready time enters setup_s; the
#: 16 x 300 cohort boots in about 3 s.
SETUP_BOOTS = 3
CONNECTIONS = min(2, NPROC)
#: Low enough that each connection idles ~1/3 s between requests.  At
#: higher rates some responses wait ~40 ms for the client's delayed ACK
#: behind the router's two-write responses, and how many do depends on
#: timing, so the typical latency doubled between otherwise equal runs;
#: router.hop_ms shows that stall, the max-rate search its throughput cost.
REFERENCE_RATE = 6.0
#: A step meets the limit when this percentile of its latencies is at
#: most LIMIT_MS.  A step sends 60-100 requests: their p99 is their
#: maximum, which one stall decides, and flipped the search's first
#: step between runs.
LIMIT_MS = 250.0
LIMIT_PERCENTILE = 90
#: Where the max-rate search starts, and how long each of its steps runs.
SEARCH_START = 30.0
STEP_SECONDS = 2.5
#: Rate ratio the max-rate search brackets by, and the finest it resolves.
SEARCH_STRIDE = 1.25
SEARCH_RESOLUTION = 1.05
#: An overloaded step stops sending once it runs this late: its limit is
#: already missed, and its backlog would only stretch the run.
ABANDON_LATE_S = 1.0
#: Back-to-back cache hits that time the serving path for latency_ms.
#: The open-loop latencies at the reference rate are printed, not gated:
#: on a shared 2-core host their typical value halved or doubled between
#: 10-second windows on the same running server, while this closed-loop
#: figure held within a few percent between runs.
SERIAL_HITS = 40


#: Requests per block of 40, sent in a seeded order within each block:
#: 70% scores, 15% owner-addressed touch, 15% broadcast mutations.
SERVE_READS = 28
SERVE_WRITES = (("touch", 6), ("add_friendship", 3), ("update_profile", 3))


#: Seeds the order of request classes, which is the same for every run.
SERVE_PATTERN_SEED = 0


class ServeMix:
    """The request stream of serve-mixed.

    Every block of 40 requests has the same make-up and order of request
    classes in every run: the measures split the scores evenly, owners
    are read with Zipf-like popularity (fixed counts per popularity
    rank), and mutations cycle through all ranks.  The run's seed only
    assigns ranks to owners and picks the users a mutation names, so
    runs differ in the cohort, not in how many requests of each class
    (cache hit or warm rescore, per measure) they send.

    Broadcasts commute: every edge is new and added once, and every
    profile update edits a different user, so the final state does not
    depend on the order two connections' requests land in.
    """

    def __init__(self, population, rng: random.Random) -> None:
        self.population = population
        self.rng = rng
        self._pattern = random.Random(SERVE_PATTERN_SEED)
        owners = [owner.user_id for owner in population.owners]
        self._by_rank = rng.sample(owners, len(owners))
        weights = [1.0 / rank for rank in range(1, len(owners) + 1)]
        self._reads = [
            rank
            for rank, count in enumerate(_quotas(SERVE_READS, weights))
            for _ in range(count)
        ]
        self._write_ranks = self._pattern.sample(
            range(len(owners)), len(owners))
        self._written = 0
        self._added: set[tuple[int, int]] = set()
        users = sorted(
            s for o in owners for s in population.handles[o].strangers
        )
        rng.shuffle(users)
        self._profile_users = iter(users)
        self._serial = 0
        self._block: list[tuple[str, int, str | None]] = []

    def _next_block(self) -> list[tuple[str, int, str | None]]:
        pattern = self._pattern
        measures = [MEASURES[i % len(MEASURES)] for i in range(SERVE_READS)]
        pattern.shuffle(measures)
        block = [
            ("score", rank, measure)
            for rank, measure in zip(self._reads, measures)
        ]
        for kind, count in SERVE_WRITES:
            for _ in range(count):
                ranks = self._write_ranks
                block.append((kind, ranks[self._written % len(ranks)], None))
                self._written += 1
        pattern.shuffle(block)
        return block

    def next(self) -> tuple[str, str, dict | None, str]:
        """(method, path, body, class) of the next request."""
        from repro.io.serialization import profile_to_dict

        if not self._block:
            self._block = self._next_block()
        kind, rank, measure = self._block.pop()
        owner = self._by_rank[rank]
        if kind == "score":
            return "GET", _score_path(owner, measure), None, "score"
        if kind == "touch":
            return "POST", "/mutate", {"op": "touch", "owner": owner}, "touch"
        self._serial += 1
        if kind == "add_friendship":
            strangers = self.population.handles[owner].strangers
            while True:
                a, b = sorted(self.rng.sample(strangers, 2))
                if (a, b) not in self._added and not (
                    self.population.graph.are_friends(a, b)
                ):
                    break
            self._added.add((a, b))
            body = {"op": "add_friendship", "a": a, "b": b}
            return "POST", "/mutate", body, "broadcast"
        user = next(self._profile_users)
        profile = profile_to_dict(self.population.graph.profile(user))
        profile["attributes"]["location"] = f"town-{self._serial}"
        body = {"op": "update_profile", "profile": profile}
        return "POST", "/mutate", body, "broadcast"


def _quotas(total: int, weights: list[float]) -> list[int]:
    """``total`` split in proportion to ``weights`` (largest remainder)."""
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: counts[i] - shares[i]
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def open_loop(url: str, requests: list, rate: float):
    """Send ``requests`` at ``rate``/s over ``CONNECTIONS`` connections.

    Each request is due at a fixed offset from the start and is timed
    from that due time, so a stall also charges the requests it delays.
    Returns per-request ``(due, sent, done, reply)``, or ``None`` for a
    request never sent because the step was abandoned.
    """
    start = now() + 0.05
    due = [start + index / rate for index in range(len(requests))]
    results: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def worker():
        client = Client(url, timeout=10.0)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                delay = due[index] - now()
                if delay > 0:
                    time.sleep(delay)
                elif -delay > ABANDON_LATE_S:
                    return
                sent = now()
                method, path, body, _ = requests[index]
                reply = client.request(method, path, body)
                results[index] = (due[index], sent, now(), reply)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _step_summary(out: Outcome, requests, results, rate, served, acked, ops,
                  universes):
    """Account a rate step; returns its row (latency from due times)."""
    latencies, lateness, broadcast, hits = [], [], [], []
    failures: Counter = Counter()
    sent_results = [r for r in results if r is not None]
    for (method, path, body, kind), result in zip(requests, results):
        if result is None:
            continue
        due, sent, done, reply = result
        lateness.append(sent - due)
        if body is None:
            ok = out.count(reply)
        else:
            ok = out.count_mutation(reply, body, universes)
        if not ok:
            failures[failure_kind(reply)] += 1
            latencies.append(float("inf"))  # a failure misses any limit
            continue
        latencies.append(done - due)
        if kind == "broadcast":
            broadcast.append(done - sent)
        if body is None:
            document = reply.json()
            served[(document["owner"], document["measure"])] = (
                document["digest"])
            if document["source"] == "cache":
                hits.append(done - due)
            ops.append(("score", document["owner"], document["measure"]))
        else:
            acked.append(body)
            ops.append(("mutate", body))
    abandoned = len(results) - len(sent_results)
    completed = len(sent_results) - sum(failures.values())
    span = (max(r[2] for r in sent_results) - min(r[0] for r in sent_results)
            if sent_results else 0.0)
    backlog_max, backlog_end = backlog_profile(
        [r[0] for r in sent_results], [r[1] for r in sent_results])
    limit_ms = percentile(latencies, LIMIT_PERCENTILE) * 1000.0
    return {
        "rate": rate,
        "n": len(sent_results),
        # replies per second, first due time to last reply
        "throughput": completed / span if span else 0.0,
        "abandoned": abandoned,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "p50_ms": median(latencies) * 1000.0,
        "hits": len(hits),
        "hit_iqm_ms": (interquartile_mean(hits) * 1000.0 if hits
                       else float("inf")),
        "p95_ms": percentile(latencies, 95) * 1000.0,
        "p99_ms": percentile(latencies, 99) * 1000.0,
        "late_p50_ms": median(lateness) * 1000.0,
        "late_max_ms": max(lateness) * 1000.0,
        "backlog_max": backlog_max,
        "backlog_end": backlog_end,
        "broadcast": broadcast,
        "meets_limit": not failures and not abandoned
        and limit_ms <= LIMIT_MS and backlog_end <= CONNECTIONS,
    }


def serve_mixed(run_dir, seed: int, seconds: int, traced: bool):
    shape = SERVE
    out = Outcome(
        "serve-mixed",
        {**shape, "seed": seed, "nproc": NPROC, "shards": SHARDS,
         "fsync": "group", "loop": "open", "connections": CONNECTIONS,
         "reference_rate": REFERENCE_RATE,
         "limit": f"p{LIMIT_PERCENTILE} <= {LIMIT_MS:g} ms"},
    )
    population = make_population(seed=seed, **shape)
    owners = [owner.user_id for owner in population.owners]
    pairs = [(owner, measure) for owner in owners for measure in MEASURES]
    universes = universes_of(population)
    mix = ServeMix(population, random.Random(seed))
    dataset = write_dataset(population, run_dir / "cohort.json")
    server, boot_s = _boot(
        run_dir, dataset, seed, shards=SHARDS, boots=SETUP_BOOTS)
    served: dict[tuple[int, str], str] = {}
    acked: list[dict] = []
    ops: list = []
    steps: list[dict] = []
    try:
        client = Client(server.url, timeout=60.0)
        setup_s = boot_s
        for owner, measure in pairs:
            reply = client.get(_score_path(owner, measure))
            if not out.count(reply):
                raise RuntimeError(f"set-up score failed: {reply.status}")
            setup_s += reply.seconds
        before = _totals(client.get_json("/metrics"))
        poller = _PendingPoller(server.url) if traced else None

        def run_step(rate, duration):
            requests = [mix.next() for _ in range(round(rate * duration))]
            results = open_loop(server.url, requests, rate)
            row = _step_summary(
                out, requests, results, rate, served, acked, ops, universes)
            steps.append(row)
            return row

        reference = run_step(REFERENCE_RATE, seconds)
        # the reply rate the best step measured: the offered rates form
        # a fixed ladder, and many runs settle on the same rung
        best = _search_max_rate(run_step)
        max_rps = best["throughput"] if best else 0.0
        pending_max = poller.close() if poller else 0.0
        after = _totals(client.get_json("/metrics"))
        if traced:
            _layer_metrics(out, before, after, pending_max)
            _router_probe(out, client, server.url, owners[0])
            out.layers["router.broadcast_ms"] = (
                median(reference["broadcast"]) * 1000.0, "ms")
        final = {}
        for owner, measure in pairs:
            reply = client.get(_score_path(owner, measure))
            if out.count(reply):
                final[(owner, measure)] = reply.json()["digest"]
        # one client's cache hits back to back through the router; the
        # final reads above left every score cached
        serial = []
        for _ in range(SERIAL_HITS):
            reply = client.get(_score_path(owners[0], "stranger"))
            if out.count(reply):
                serial.append(reply.seconds)
        client.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    out.compare("engine oracle", final,
                oracle.oracle_digests(population, seed, acked, pairs))
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "latency_ms": (median(serial) * 1000.0, "ms"),
        "rate_per_s": (max_rps, "1/s"),
    }
    out.info = {
        "serve_p50_ms": (reference["p50_ms"], "ms", reference["n"]),
        "serve_hit_iqm_ms": (
            reference["hit_iqm_ms"], "ms", reference["hits"]),
        "serve_p95_ms": (reference["p95_ms"], "ms", reference["n"]),
        "serve_p99_ms": (reference["p99_ms"], "ms", reference["n"]),
        "serve_max_rps": (max_rps, "1/s", len(steps) - 1),
        "serve_max_offered_rps": (
            best["rate"] if best else 0.0, "1/s", len(steps) - 1),
        "serve_serial_hit_p50_ms": (
            median(serial) * 1000.0, "ms", len(serial)),
        "steps": [
            {k: (round(v, 3) if isinstance(v, float) else v)
             for k, v in row.items() if k != "broadcast"}
            for row in steps
        ],
    }
    if traced:
        warmup = [("score", owner, measure) for owner, measure in pairs]
        timed = ops + [("score", owner, measure) for owner, measure in pairs]
        out.compare("traced replay", final, _traced_replay(
            out, shape, seed, warmup, timed, run_dir))
    return out


def _search_max_rate(run_step) -> dict | None:
    """The step of the highest rate meeting the limit, to
    ``SEARCH_RESOLUTION``; ``None`` when not even 1 req/s meets it.

    Brackets from ``SEARCH_START`` in steps of ``SEARCH_STRIDE``, then
    bisects geometrically until the bracket is no wider than the
    resolution.
    """
    low = high = best = None
    rate = SEARCH_START
    while low is None or high is None or high / low > SEARCH_RESOLUTION:
        row = run_step(rate, STEP_SECONDS)
        if row["meets_limit"]:
            low, best = rate, row
        else:
            high = rate
            if rate < 1.0:
                return None
        if low is None:
            rate = high / SEARCH_STRIDE
        elif high is None:
            rate = low * SEARCH_STRIDE
        else:
            rate = (low * high) ** 0.5
    return best


def _router_probe(out: Outcome, client: Client, router_url: str, owner: int):
    """Same cache-hit request via the router and straight to its shard."""
    shard = next(
        row["shard"] for row in client.get_json("/owners")["owners"]
        if row["owner"] == owner
    )
    shards = client.get_json("/shards")["supervisor"]["shards"]
    shard_url = next(row["url"] for row in shards if row["shard"] == shard)
    direct = _hit_probe(shard_url, owner)
    out.layers["engine.hit_ms"] = (direct, "ms")
    out.layers["router.hop_ms"] = (_hit_probe(router_url, owner) - direct, "ms")
    # paced like one connection's share of the reference rate
    gap = CONNECTIONS / REFERENCE_RATE
    out.layers["router.hop_paced_ms"] = (
        _hit_probe(router_url, owner, 10, gap)
        - _hit_probe(shard_url, owner, 10, gap), "ms")


WORKLOADS = {
    "mutate-rescore": mutate_rescore,
    "serve-mixed": serve_mixed,
}
