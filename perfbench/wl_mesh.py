"""``replica_mesh``: a clustered hub, three spokes, mail, unreliable links.

Two hub servers form a cluster (``ClusterReplicator``: live pushes on every
local change, ``catch_up()`` every round to drain links a fault stalled).
Three spokes replicate with ``hub1`` under a ``ReplicationScheduler``, and
a ``MailRouter`` carries spoke-to-spoke memos through ``hub2``. The two
hubs also replicate on a schedule, every ``BACKUP_EVERY`` rounds, as Domino
clusters are set up: cluster replication is the fast path between members,
not the only one. A seeded ``FaultPlan`` drops connections and aborts
exchanges mid-flight on every link. Each round every replica edits
Zipf-chosen shared documents, so the same document changes on several
replicas at once and conflicts occur. The run ends by healing the network
and draining until every replica has converged and every memo was
delivered or dead-lettered.

Replication, cluster and mail each own their links (spokes to hub1,
hub1 to hub2, spokes to hub2), so wire counts split by layer per link; the
hubs' scheduled replication shares the cluster's link.
All databases live in memory: storage and the web front stay out.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

from gen import Zipf, body, log_uniform_sizes, vocabulary
from repro.cluster import ClusterReplicator
from repro.core import NotesDatabase
from repro.mail import Directory, MailRouter, make_memo
from repro.replication import (
    ReplicationScheduler,
    ReplicationTopology,
    Replicator,
    SimulatedNetwork,
    converged,
)
from repro.sim import FaultPlan, LinkFaultProfile, VirtualClock, derive_rng

NAME = "replica_mesh"
TRACE_BLOCK = 1  # rounds per traced / untraced block
WINDOW = 200  # rounds per throughput window
COUNT_OPS = 40
# Set-up builds per run: one takes about 60 ms, so a median of three
# would rest on timings short enough for a scheduler tick to move.
SETUPS = 9
COUNTS = ("replication.docs_scanned_per_transferred",
          "replication.transfers_per_delivery", "replication.conflicts",
          "replication.edges_failed", "replication.edges_retried",
          "cluster.interrupted", "mail.transfers", "mail.retries",
          "network.bytes", "network.messages", "fault_trace_length",
          "cluster_backup_docs")
HUBS = ("hub1", "hub2")
SPOKES = ("spoke1", "spoke2", "spoke3")
PRELOAD_DOCS = 2000
VOCABULARY = 1000
BODY_POOL = 128
BODY_BYTES = (200, 2000)
USERS_PER_SPOKE = 4
# Notes live this many rounds before their creator deletes them, and users
# read (then delete) their mail every round, so the databases stop growing
# and memory does not depend on how many rounds a run completes.
NOTE_LIFETIME = 40
UPDATES_PER_REPLICA = 2  # per round; one replica also creates a note
ROUND_SECONDS = 30.0
FAULTS = LinkFaultProfile(drop_probability=0.1, abort_probability=0.25,
                          abort_after=(2, 12))
HEAL_ROUNDS = 400
# Rounds between two scheduled replications of the cluster mates (one
# virtual hour); while healing, every round.
BACKUP_EVERY = 120
# Heal ends after this many consecutive rounds that move nothing.
QUIET_ROUNDS = 3


class Inputs:
    def __init__(self, seed: int) -> None:
        rng = derive_rng(seed, NAME, "inputs")
        self.seed = seed
        words = vocabulary(rng, VOCABULARY)
        zipf = Zipf(len(words))
        self.bodies = [body(rng, words, zipf, size) for size in
                       log_uniform_sizes(rng, *BODY_BYTES, BODY_POOL)]
        self.preload = [
            {"Form": "Topic", "Subject": f"topic {index}",
             "Body": rng.choice(self.bodies)}
            for index in range(PRELOAD_DOCS)
        ]
        self.fault_seed = rng.getrandbits(32)
        self.users = {spoke: [f"user{index}/{spoke}"
                              for index in range(USERS_PER_SPOKE)]
                      for spoke in SPOKES}


class State:
    def __init__(self, inputs: Inputs, tracer=None) -> None:
        self.inputs = inputs
        seed = inputs.seed
        self.clock = VirtualClock()
        self.network = SimulatedNetwork(self.clock)
        for server in HUBS + SPOKES:
            self.network.add_server(server)
        hub = NotesDatabase("mesh", clock=self.clock,
                            rng=derive_rng(seed, NAME, "unids"), server="hub1")
        self.network.server("hub1").add_database(hub)
        self.shared = []
        for items in inputs.preload:
            self.clock.advance(1)
            self.shared.append(hub.create(items, author="loader").unid)
        self.replicas = [hub]
        copier = Replicator(network=self.network)
        for server in HUBS[1:] + SPOKES:
            replica = hub.new_replica(server)
            self.network.server(server).add_database(replica)
            copier.replicate(hub, replica)
            self.replicas.append(replica)
        self.cluster = ClusterReplicator(self.network)
        for member in self.replicas[:2]:
            if tracer is None:
                self.cluster.attach(member)
            else:
                # The cluster's change handler is a closure: time it by
                # wrapping it on its way through the public subscribe().
                subscribe = member.subscribe
                member.subscribe = lambda handler, subscribe=subscribe: (
                    subscribe(tracer.shim(handler, "cluster.push")))
                self.cluster.attach(member)
                del member.subscribe
        self.scheduler = ReplicationScheduler(
            self.network,
            ReplicationTopology.hub_spoke("hub1", list(SPOKES)),
            Replicator(network=self.network, batch_size=16),
            seed=derive_rng(seed, NAME, "scheduler").getrandbits(32),
        )
        self.backup = ReplicationScheduler(
            self.network, ReplicationTopology.hub_spoke("hub1", ["hub2"]),
            Replicator(network=self.network, batch_size=16),
            seed=derive_rng(seed, NAME, "backup").getrandbits(32),
        )
        directory = Directory(clock=self.clock, seed=7)
        for spoke, users in inputs.users.items():
            for user in users:
                directory.register_person(user, spoke)
        self.router = MailRouter(self.network, directory)
        for spoke in SPOKES:
            self.router.add_route(spoke, "hub2")
        self.plan = self.network.install_faults(
            FaultPlan(inputs.fault_seed, self.clock, FAULTS))
        self.rng = derive_rng(seed, NAME, "ops")
        # Mild skew: hot documents collide across replicas now and then.
        self.zipf = Zipf(PRELOAD_DOCS, 0.6)
        # (unid, server) -> the token of that replica's last edit.
        self.last_edit: dict[tuple[str, str], str] = {}
        self.submitted = 0
        self.read = 0  # memos users read and deleted
        self.notes: deque = deque()  # (replica, unid) in creation order
        self.rounds = 0
        self.work_seconds = 0.0
        # Traffic of the set-up copies, subtracted from the run's counts.
        stats = self.network.stats
        self.traffic_start = (stats.bytes_sent, stats.messages,
                              dict(stats.by_link))


def setup(inputs: Inputs, workdir: str, tracer=None) -> State:
    return State(inputs, tracer)


def discard(state: State) -> None:
    pass


def trace(state: State, tracer) -> None:
    tracer.wrap(state.scheduler.replicator, "pull", "replication.pull")
    tracer.wrap(state.backup.replicator, "pull", "replication.pull")
    tracer.wrap(state.cluster, "catch_up", "cluster.catch_up")
    tracer.wrap(state.router, "route_step", "mail.route_step")
    for replica in state.replicas:
        tracer.wrap(replica, "create", "core.create")
        tracer.wrap(replica, "update", "core.update")
        tracer.wrap(replica, "delete", "core.delete")


def op(state: State, rec) -> None:
    """One round: every replica writes, each spoke mails, then one pass
    of scheduled replication, cluster catch-up and mail routing."""
    rng = state.rng
    state.rounds += 1
    bodies = state.inputs.bodies
    for replica in state.replicas:
        server = replica.server
        for _ in range(UPDATES_PER_REPLICA):
            unid = state.shared[state.zipf.draw(rng)]
            token = f"{server}.{state.rounds}.{rng.getrandbits(24):06x}"
            rec.write(replica.update, unid,
                      {f"Edit_{server}": token, "Body": rng.choice(bodies)},
                      author=f"user/{server}")
            state.last_edit[(unid, server)] = token
    replica = state.replicas[state.rounds % len(state.replicas)]
    note = rec.write(replica.create,
                     {"Form": "Note", "Subject": f"note {state.rounds}",
                      "Body": rng.choice(bodies)}, author="user/creator")
    state.notes.append((replica, note.unid))
    if len(state.notes) > NOTE_LIFETIME:
        replica, unid = state.notes.popleft()
        rec.write(replica.delete, unid, author="user/creator")
    for spoke in SPOKES:
        others = [user for other, users in state.inputs.users.items()
                  if other != spoke for user in users]
        sender = rng.choice(state.inputs.users[spoke])
        memo = make_memo(sender, rng.choice(others), f"round {state.rounds}",
                         rng.choice(bodies))
        rec.request("memo", state.router.submit, memo, spoke)
        state.submitted += 1
    start = perf_counter()
    state.scheduler.run_round()
    if state.rounds % BACKUP_EVERY == 0:
        state.backup.run_round()
    state.cluster.catch_up()
    state.router.route_step()
    state.work_seconds += perf_counter() - start
    state.read += _read_mail(state)
    state.clock.advance(ROUND_SECONDS)


def _read_mail(state: State) -> int:
    """Every user reads and deletes the memos delivered to them."""
    read = 0
    for users in state.inputs.users.values():
        for user in users:
            mail = state.router.mail_file(user)
            for unid in mail.unids():
                if mail.get(unid).get("Form") == "Memo":
                    read += 1
                mail.delete(unid, author=user)
    return read


def _installed(state: State) -> int:
    total, backup = state.scheduler.total, state.backup.total
    return (total.docs_transferred + total.stubs_transferred + total.conflicts
            + backup.docs_transferred + backup.stubs_transferred
            + backup.conflicts + state.cluster.stats.drained
            + state.router.stats.transfers)


def finish(state: State, rec, tracer) -> dict:
    total, backup = state.scheduler.total, state.backup.total
    network = state.network.stats
    start_bytes, start_messages, start_links = state.traffic_start
    wire_bytes = network.bytes_sent - start_bytes
    installed = _installed(state)
    repl_links = {("hub1", spoke) for spoke in SPOKES}
    repl_messages = sum(
        count - start_links.get((src, dst), (0, 0))[1]
        for (src, dst), (_, count) in network.by_link.items()
        if (src, dst) in repl_links or (dst, src) in repl_links)
    repl_aborts = sum(
        1 for event in state.plan.trace
        if event.kind == "abort" and event.subject in
        {f"hub1<->{spoke}" for spoke in SPOKES})
    # Stubs travel without a network transfer; count documents only.
    delivered_repl = total.docs_transferred + total.conflicts
    report = {
        "repl_docs_per_s": installed / state.work_seconds,
        "wire_bytes_per_doc": wire_bytes / max(installed, 1),
        "replication.docs_scanned_per_transferred":
            total.docs_scanned / max(total.docs_transferred, 1),
        "replication.transfers_per_delivery":
            (repl_messages + repl_aborts) / max(delivered_repl, 1),
        # Counts cover the hubs' scheduled replication too; the ratios
        # above cover the spokes' links, where replication alone runs.
        "replication.edges_failed": total.edges_failed + backup.edges_failed,
        "replication.edges_retried":
            total.edges_retried + backup.edges_retried,
        "replication.conflicts": (total.conflicts + backup.conflicts
                                  + state.cluster.stats.conflicts),
        "cluster.interrupted": state.cluster.stats.interrupted,
        "mail.transfers": state.router.stats.transfers,
        "mail.retries": state.router.stats.retries,
        "network.bytes": wire_bytes,
        "network.messages": network.messages - start_messages,
        "fault_trace_length": len(state.plan.trace),
        "rounds": state.rounds,
        # Documents the hubs' scheduled replication carried between the
        # cluster mates: conflict documents a cluster push made on the
        # receiving member, which the cluster never pushes back (README),
        # and changes it moved before a stalled cluster link drained.
        "cluster_backup_docs": backup.docs_transferred,
    }
    failures = _heal(state)
    return {"report": report, "failures": failures}


def _heal(state: State) -> list[str]:
    """Stop injecting faults, drain everything, check nothing was lost."""
    state.plan.deactivate()
    quiet = 0
    for _ in range(HEAL_ROUNDS):
        state.clock.advance(600.0)
        moved = state.scheduler.run_round()
        backup = state.backup.run_round()
        drained = state.cluster.catch_up()
        routed = state.router.route_step()
        busy = (moved.docs_transferred + moved.stubs_transferred
                + moved.conflicts + moved.edges_failed
                + backup.docs_transferred + backup.stubs_transferred
                + backup.conflicts + backup.edges_failed + drained + routed
                + state.router.pending())
        quiet = 0 if busy else quiet + 1
        if quiet >= QUIET_ROUNDS:
            break
    failures = []
    if not converged(state.replicas):
        failures.append("replicas did not converge after heal")
    hub = state.replicas[0]
    missing = 0
    for (unid, server), token in state.last_edit.items():
        held = [hub.get(unid)] + hub.responses(unid)
        if not any(doc.get(f"Edit_{server}") == token for doc in held):
            missing += 1
    if missing:
        failures.append(f"{missing} acknowledged edits missing after heal")
    delivered = state.read + _read_mail(state)
    dead = sum(len(state.router.dead_letter_box(server))
               for server in HUBS + SPOKES)
    if delivered + dead != state.submitted:
        failures.append(f"memos: {delivered} delivered + {dead} dead-lettered"
                        f" != {state.submitted} submitted")
    return failures
