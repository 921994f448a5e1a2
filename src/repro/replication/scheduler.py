"""Replication scheduling, edge health and convergence checking.

The scheduler walks a topology's connection documents and fires a symmetric
replication exchange per edge — either on the shared discrete-event clock
(``attach``) or synchronously round by round (``run_round``, which the
convergence experiments use because "rounds to convergence" is the metric).

Links are *expected* to fail (drops, flaps, crashes — see
``repro.sim.faults``), so every edge carries a
:class:`~repro.core.stats.LinkHealth` record: failed exchanges retry with
exponential backoff plus seeded jitter, and repeated failures open a
circuit breaker (healthy → degraded → suspended) that only lets periodic
probes through until one succeeds. Nothing is skipped silently — every
unreachable, deferred, failed and retried edge is counted in both the
per-edge health record and the round's :class:`ReplicationStats`.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.core.database import NotesDatabase
from repro.core.stats import LinkHealth
from repro.errors import LinkFailure, ReplicationError
from repro.replication.network import SimulatedNetwork
from repro.replication.replicator import ReplicationStats, Replicator
from repro.replication.topology import ConnectionDoc, ReplicationTopology
from repro.sim.events import EventScheduler


def converged(databases: Iterable[NotesDatabase]) -> bool:
    """Whether every replica holds the identical document/stub state.

    Fast path: the rolling ``state_fingerprint`` (O(1) to read) plus the
    stub key set. Equal fingerprints mean identical live-document
    revisions, so matching fingerprints and stubs decide convergence
    without building snapshots. Unequal fingerprints fall back to the
    full O(total docs) comparison, because the fingerprint also covers
    the *trash* — which scheduled replication does not carry, so it may
    legitimately differ between otherwise-converged replicas.
    """
    snapshots = list(databases)
    if len(snapshots) < 2:
        return True
    first = snapshots[0]
    fingerprint = first.state_fingerprint()
    stubs = set(first.stubs)
    if all(
        db.state_fingerprint() == fingerprint and set(db.stubs) == stubs
        for db in snapshots[1:]
    ):
        return True
    first_docs = {
        doc.unid: (doc.seq, tuple(doc.seq_time)) for doc in first.all_documents()
    }
    for db in snapshots[1:]:
        docs = {
            doc.unid: (doc.seq, tuple(doc.seq_time)) for doc in db.all_documents()
        }
        if docs != first_docs or set(db.stubs) != stubs:
            return False
    return True


class ReplicationScheduler:
    """Drives a topology's connections over a network of servers.

    Parameters
    ----------
    backoff_base / backoff_cap:
        First-failure retry delay in virtual seconds, doubling per
        consecutive failure up to the cap.
    failure_threshold:
        Consecutive failures that open an edge's circuit breaker.
    probe_interval:
        Base delay between probes while an edge is suspended (also
        doubling, capped at ``backoff_cap``).
    jitter:
        Backoff delays stretch by up to this fraction, drawn from the
        scheduler's own seeded RNG — deterministic per ``seed``, and
        desynchronizing retries that failed together.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        topology: ReplicationTopology,
        replicator: Replicator | None = None,
        *,
        backoff_base: float = 1.0,
        backoff_cap: float = 32.0,
        failure_threshold: int = 3,
        probe_interval: float = 4.0,
        jitter: float = 0.25,
        seed: int = 0xFA17,
    ) -> None:
        self.network = network
        self.topology = topology
        self.replicator = replicator or Replicator(network=network)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self.jitter = jitter
        self.rounds = 0
        self.total = ReplicationStats()
        self.edge_health: dict[tuple[str, str], LinkHealth] = {}
        self._rng = random.Random(seed)

    def _edge(self, connection: ConnectionDoc) -> LinkHealth:
        key = (connection.server_a, connection.server_b)
        health = self.edge_health.get(key)
        if health is None:
            health = LinkHealth()
            self.edge_health[key] = health
        return health

    def _exchange(self, server_a: str, server_b: str,
                  connection=None, into: ReplicationStats | None = None,
                  ) -> ReplicationStats:
        """Fire one edge's symmetric exchange for every shared replica.

        Merges into ``into`` pull by pull, so the partial work of an
        exchange that dies mid-flight is still accounted. Raises
        :class:`LinkFailure` when the link drops it (callers count the
        failure; nothing is swallowed).
        """
        from repro.replication.selective import SelectiveReplication

        stats = into if into is not None else ReplicationStats()
        a = self.network.server(server_a)
        b = self.network.server(server_b)
        selective_a = selective_b = None
        if connection is not None:
            if connection.selective_a:
                selective_a = SelectiveReplication(connection.selective_a)
            if connection.selective_b:
                selective_b = SelectiveReplication(connection.selective_b)
        for replica_id, db_a in a.databases.items():
            db_b = b.replica_of(replica_id)
            if db_b is None:
                continue
            if self.replicator.is_noop(db_a, db_b):
                stats.noop_pairs += 1
                continue
            self.replicator.replicate(
                db_a, db_b,
                selective_a=selective_a, selective_b=selective_b,
                into=stats,
            )
        return stats

    def _attempt(self, connection: ConnectionDoc,
                 stats: ReplicationStats) -> bool:
        """Try one edge, honouring its health gate; returns True on a
        completed exchange."""
        edge = self._edge(connection)
        now = self.network.clock.now
        if not edge.ready(now):
            edge.record_deferral()
            stats.edges_deferred += 1
            return False
        if not self.network.is_reachable(connection.server_a,
                                         connection.server_b):
            edge.record_skip()
            stats.edges_skipped += 1
            return False
        if edge.begin_attempt():
            stats.edges_retried += 1
        stats.edges_attempted += 1
        try:
            self._exchange(connection.server_a, connection.server_b,
                           connection, into=stats)
        except LinkFailure as exc:
            stats.edges_failed += 1
            edge.record_failure(
                now,
                str(exc),
                backoff_base=self.backoff_base,
                backoff_cap=self.backoff_cap,
                failure_threshold=self.failure_threshold,
                probe_interval=self.probe_interval,
                jitter=self.jitter * self._rng.random(),
            )
            return False
        edge.record_success()
        return True

    def run_round(self) -> ReplicationStats:
        """Fire every connection once (in document order); returns stats."""
        stats = ReplicationStats()
        for connection in self.topology.connections:
            self._attempt(connection, stats)
        self.rounds += 1
        self.total.merge_from(stats)
        return stats

    def rounds_to_convergence(
        self, databases: list[NotesDatabase], max_rounds: int = 64
    ) -> int:
        """Run rounds until all ``databases`` converge; returns the count.

        The clock advances a little between rounds so replication history
        entries are distinguishable (and backoff windows expire). Raises
        after ``max_rounds``.
        """
        if converged(databases):
            return 0
        for round_number in range(1, max_rounds + 1):
            self.network.clock.advance(1.0)
            self.run_round()
            if converged(databases):
                return round_number
        raise ReplicationError(
            f"no convergence after {max_rounds} rounds "
            f"(topology={self.topology.name})"
        )

    def attach(self, events: EventScheduler) -> None:
        """Schedule each connection on the discrete-event loop.

        A failed attempt additionally schedules a one-shot retry at the
        edge's backoff deadline, so recovery does not wait for the next
        full interval; deferred and skipped attempts just wait.
        """
        for connection in self.topology.connections:
            label = f"repl {connection.server_a}<->{connection.server_b}"

            def fire(c=connection, label=label) -> None:
                stats = ReplicationStats()
                self._attempt(c, stats)
                self.total.merge_from(stats)
                if stats.edges_failed:
                    edge = self._edge(c)
                    if edge.next_attempt_at > self.network.clock.now:
                        events.at(edge.next_attempt_at,
                                  lambda: fire(c, label),
                                  label=label + " retry")

            events.every(connection.interval, fire, label=label)
