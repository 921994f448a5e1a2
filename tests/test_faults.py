"""Tests for deterministic fault injection and the retry machinery.

Covers the :class:`FaultPlan` itself (replayable drops, flaps, aborts,
crash windows), resumable replication exchanges (mid-pass cursor
checkpoints, resume-after-abort, the all-or-nothing ablation), the
scheduler's per-edge circuit breaker, mail retry backoff with
dead-lettering, and the cluster replicator's resumable drains.
"""

import pytest

from repro.bench.runners import build_deployment, populate
from repro.cluster import ClusterReplicator
from repro.core.stats import DEGRADED, HEALTHY, SUSPENDED, LinkHealth
from repro.errors import LinkFailure, ReplicationError, SimulationError
from repro.mail import Directory, MailRouter, make_memo
from repro.replication import (
    ReplicationScheduler,
    ReplicationTopology,
    Replicator,
    SimulatedNetwork,
    converged,
)
from repro.sim import FaultPlan, LinkFaultProfile, VirtualClock, derive_rng


class TestDeriveRng:
    def test_same_inputs_same_stream(self):
        a = derive_rng(42, "link", "x<->y")
        b = derive_rng(42, "link", "x<->y")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_subject_different_stream(self):
        a = derive_rng(42, "link", "x<->y")
        b = derive_rng(42, "link", "x<->z")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestFaultPlan:
    def test_profile_validation(self):
        with pytest.raises(SimulationError):
            LinkFaultProfile(drop_probability=1.5)
        with pytest.raises(SimulationError):
            LinkFaultProfile(abort_after=(0, 3))

    def test_drop_raises_and_traces(self, clock):
        plan = FaultPlan(1, clock, LinkFaultProfile(drop_probability=1.0))
        with pytest.raises(LinkFailure):
            plan.begin_attempt("a", "b")
        assert [e.kind for e in plan.trace] == ["drop"]
        assert plan.trace[0].subject == "a<->b"

    def test_flap_takes_link_down_then_self_heals(self, clock):
        plan = FaultPlan(
            2, clock,
            LinkFaultProfile(flap_probability=1.0, flap_duration=(5.0, 5.0)),
        )
        with pytest.raises(LinkFailure):
            plan.begin_attempt("a", "b")
        assert not plan.available("a", "b")
        clock.advance(4.9)
        assert not plan.available("a", "b")
        clock.advance(0.2)
        assert plan.available("a", "b")

    def test_abort_budget_allows_n_transfers_then_fires(self, clock):
        plan = FaultPlan(
            3, clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(3, 3)),
        )
        plan.begin_attempt("a", "b")
        for _ in range(3):
            plan.on_transfer("a", "b")
        with pytest.raises(LinkFailure):
            plan.on_transfer("a", "b")
        assert [e.kind for e in plan.trace] == ["abort-armed", "abort"]

    def test_next_attempt_clears_stale_abort_budget(self, clock):
        plan = FaultPlan(
            3, clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(1, 1)),
        )
        plan.begin_attempt("a", "b")
        plan.on_transfer("a", "b")  # spends the budget down to zero
        plan.begin_attempt("a", "b")  # re-arms fresh, no instant abort
        plan.on_transfer("a", "b")

    def test_crash_window_downs_server_on_clock(self, clock):
        plan = FaultPlan(4, clock)
        plan.crash("srv1", at=10.0, duration=5.0)
        assert plan.server_up("srv1")
        clock.advance(10.0)
        assert not plan.server_up("srv1")
        assert not plan.available("srv0", "srv1")
        clock.advance(5.0)
        assert plan.server_up("srv1")
        assert [e.kind for e in plan.trace] == ["crash", "restart"]

    def test_schedule_crashes_is_seed_deterministic(self, clock):
        one = FaultPlan(7, clock)
        two = FaultPlan(7, clock)
        other = FaultPlan(8, clock)
        for plan in (one, two, other):
            plan.schedule_crashes(["s0", "s1"], horizon=500.0,
                                  mean_interval=60.0, outage=(5.0, 20.0))
        assert one.trace == two.trace
        assert one.trace != other.trace

    def test_identical_seeds_replay_identical_fault_schedule(self):
        traces = []
        for _ in range(2):
            clock = VirtualClock()
            plan = FaultPlan(
                99, clock,
                LinkFaultProfile(drop_probability=0.4, flap_probability=0.2,
                                 abort_probability=0.3),
            )
            for _ in range(40):
                clock.advance(1.0)
                try:
                    plan.begin_attempt("a", "b")
                    for _ in range(4):
                        plan.on_transfer("a", "b")
                except LinkFailure:
                    pass
            traces.append(plan.trace)
        assert traces[0] == traces[1]

    def test_deactivate_stops_injection_keeps_trace(self, clock):
        plan = FaultPlan(5, clock, LinkFaultProfile(drop_probability=1.0))
        with pytest.raises(LinkFailure):
            plan.begin_attempt("a", "b")
        plan.deactivate()
        plan.begin_attempt("a", "b")  # no longer raises
        assert len(plan.trace) == 1


@pytest.fixture
def faulty_pair():
    """Two replicas over a network, source populated with 30 docs."""
    deployment = build_deployment(2, seed=11)
    source, target = deployment.databases
    populate(source, 30, deployment.rng, body_bytes=64)
    deployment.clock.advance(1)
    return deployment, source, target


class TestResumableExchange:
    def test_cursor_checkpoints_per_batch(self, faulty_pair):
        deployment, source, target = faulty_pair
        rep = Replicator(network=deployment.network, batch_size=10)
        stats = rep.pull(target, source)
        assert stats.docs_transferred == 30
        assert stats.cursor_checkpoints == 3
        assert (
            target.replication_seq[(source.server, "receive")]
            == source.update_seq
        )

    def test_aborted_pull_resumes_from_cursor(self, faulty_pair):
        deployment, source, target = faulty_pair
        plan = deployment.network.install_faults(FaultPlan(
            0, deployment.clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(5, 5)),
        ))
        rep = Replicator(network=deployment.network, batch_size=4)
        with pytest.raises(LinkFailure):
            rep.pull(target, source)
        # 5 transfers completed before the abort; the cursor checkpointed
        # after the first full batch of 4.
        assert len(target) == 5
        assert target.replication_seq[(source.server, "receive")] > 0
        plan.deactivate()
        stats = rep.pull(target, source)
        # Resume re-examines at most one batch past the cursor and ships
        # only what is still missing — never the whole database again.
        assert stats.docs_transferred == 25
        assert stats.docs_examined <= 25 + rep.batch_size
        assert converged([source, target])

    def test_all_or_nothing_ablation_wastes_the_aborted_exchange(
        self, faulty_pair
    ):
        deployment, source, target = faulty_pair
        plan = deployment.network.install_faults(FaultPlan(
            0, deployment.clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(5, 5)),
        ))
        rep = Replicator(network=deployment.network, resumable=False)
        with pytest.raises(LinkFailure):
            rep.pull(target, source)
        # Nothing installed, no cursor recorded: the transfer was wasted.
        assert len(target) == 0
        assert (source.server, "receive") not in target.replication_seq
        plan.deactivate()
        stats = rep.pull(target, source)
        assert stats.docs_transferred == 30  # the full suffix, again
        assert converged([source, target])

    def test_interrupted_pass_still_counts_partial_work(self, faulty_pair):
        deployment, source, target = faulty_pair
        deployment.network.install_faults(FaultPlan(
            0, deployment.clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(5, 5)),
        ))
        rep = Replicator(network=deployment.network)
        from repro.replication import ReplicationStats

        stats = ReplicationStats()
        with pytest.raises(LinkFailure):
            rep.pull(target, source, into=stats)
        assert stats.docs_transferred == 5
        assert stats.bytes_transferred > 0


class TestSchedulerHealth:
    def _world(self, drop_probability=1.0, seed=1):
        deployment = build_deployment(2, seed=21)
        populate(deployment.origin, 10, deployment.rng, body_bytes=64)
        deployment.clock.advance(1)
        plan = deployment.network.install_faults(FaultPlan(
            seed, deployment.clock,
            LinkFaultProfile(drop_probability=drop_probability),
        ))
        topology = ReplicationTopology.mesh(["srv0", "srv1"])
        scheduler = ReplicationScheduler(deployment.network, topology)
        return deployment, plan, scheduler

    def test_failures_degrade_then_open_the_breaker(self):
        deployment, _, scheduler = self._world()
        edge = None
        for _ in range(scheduler.failure_threshold):
            # March past every backoff window so no attempt is deferred.
            deployment.clock.advance(scheduler.backoff_cap * 2)
            scheduler.run_round()
            edge = next(iter(scheduler.edge_health.values()))
        assert edge.state == SUSPENDED
        assert edge.consecutive_failures == scheduler.failure_threshold
        assert scheduler.total.edges_failed == scheduler.failure_threshold

    def test_backoff_defers_attempts_until_deadline(self):
        deployment, _, scheduler = self._world()
        scheduler.run_round()
        edge = next(iter(scheduler.edge_health.values()))
        assert edge.state == DEGRADED
        assert edge.next_attempt_at > deployment.clock.now
        stats = scheduler.run_round()  # deadline not reached yet
        assert stats.edges_deferred == 1
        assert stats.edges_attempted == 0

    def test_probe_success_closes_the_breaker(self):
        deployment, plan, scheduler = self._world()
        for _ in range(scheduler.failure_threshold):
            deployment.clock.advance(scheduler.backoff_cap * 2)
            scheduler.run_round()
        plan.deactivate()  # the fault clears
        deployment.clock.advance(scheduler.backoff_cap * 2)
        stats = scheduler.run_round()
        edge = next(iter(scheduler.edge_health.values()))
        assert edge.state == HEALTHY
        assert edge.consecutive_failures == 0
        assert stats.edges_retried == 1
        assert edge.probes == 1
        assert converged(deployment.databases)

    def test_unreachable_edges_are_counted_not_silent(self):
        deployment, _, scheduler = self._world(drop_probability=0.0)
        deployment.network.partition("srv0", "srv1")
        stats = scheduler.run_round()
        assert stats.edges_skipped == 1
        assert stats.edges_attempted == 0
        edge = next(iter(scheduler.edge_health.values()))
        assert edge.skips == 1

    def test_convergence_despite_heavy_drop_rate(self):
        deployment, _, scheduler = self._world(drop_probability=0.3, seed=3)
        rounds = scheduler.rounds_to_convergence(
            deployment.databases, max_rounds=64
        )
        assert rounds >= 1
        assert converged(deployment.databases)

    def test_quiet_edges_skip_as_noop_without_a_pass(self):
        deployment, _, scheduler = self._world(drop_probability=0.0)
        scheduler.rounds_to_convergence(deployment.databases)
        scheduler.run_round()  # echo round: cursors pass the installs
        stats = scheduler.run_round()  # now provably quiet
        assert stats.noop_pairs == 1
        assert stats.docs_scanned == 0
        assert stats.docs_examined == 0

    def test_identical_seed_identical_retry_trace(self):
        outcomes = []
        for _ in range(2):
            deployment, plan, scheduler = self._world(
                drop_probability=0.5, seed=17
            )
            scheduler.rounds_to_convergence(
                deployment.databases, max_rounds=64
            )
            edge = next(iter(scheduler.edge_health.values()))
            outcomes.append((
                plan.trace,
                edge.attempts, edge.failures, edge.retries,
                [db.state_fingerprint() for db in deployment.databases],
            ))
        assert outcomes[0] == outcomes[1]


class TestLinkHealthUnit:
    def test_suspended_delay_doubles_per_probe_failure(self):
        health = LinkHealth()
        kwargs = dict(backoff_base=1.0, backoff_cap=100.0,
                      failure_threshold=2, probe_interval=4.0, jitter=0.0)
        assert health.record_failure(0.0, "x", **kwargs) == 1.0
        assert health.state == DEGRADED
        assert health.record_failure(0.0, "x", **kwargs) == 4.0
        assert health.state == SUSPENDED
        assert health.record_failure(0.0, "x", **kwargs) == 8.0

    def test_jitter_stretches_delay(self):
        health = LinkHealth()
        delay = health.record_failure(
            0.0, "x", backoff_base=2.0, backoff_cap=100.0,
            failure_threshold=9, probe_interval=4.0, jitter=0.5,
        )
        assert delay == pytest.approx(3.0)


@pytest.fixture
def faulty_mail():
    clock = VirtualClock()
    network = SimulatedNetwork(clock)
    for name in ("hq", "emea"):
        network.add_server(name)
    directory = Directory(clock=clock)
    directory.register_person("alice/Acme", "hq")
    directory.register_person("bob/Acme", "emea")
    router = MailRouter(network, directory, max_attempts=3)
    router.add_route("hq", "emea")
    return clock, network, router


class TestMailRetry:
    def test_transfer_failure_holds_with_backoff(self, faulty_mail):
        clock, network, router = faulty_mail
        network.install_faults(FaultPlan(
            1, clock, LinkFaultProfile(drop_probability=1.0),
        ))
        router.submit(make_memo("alice/Acme", "bob/Acme", "hi"), "hq")
        router.deliver_all()
        assert router.stats.transfer_failures == 1
        assert router.pending() == 1
        held = router.mailbox("hq").get(router.mailbox("hq").unids()[0])
        assert held.get("$RetryAfter") > clock.now
        assert held.get("$RouteAttempts") == 1
        # Before the deadline the memo is not even attempted.
        router.route_step()
        assert router.stats.transfer_failures == 1

    def test_retry_after_backoff_delivers_when_fault_clears(self, faulty_mail):
        clock, network, router = faulty_mail
        plan = network.install_faults(FaultPlan(
            1, clock, LinkFaultProfile(drop_probability=1.0),
        ))
        router.submit(make_memo("alice/Acme", "bob/Acme", "hi"), "hq")
        router.deliver_all()
        plan.deactivate()
        clock.advance(router.retry_cap * 2)
        stats = router.deliver_all()
        assert stats.delivered == 1
        assert stats.retries >= 1
        assert stats.dead_lettered == 0

    def test_exhausted_attempts_dead_letter_with_report(self, faulty_mail):
        clock, network, router = faulty_mail
        network.install_faults(FaultPlan(
            1, clock, LinkFaultProfile(drop_probability=1.0),
        ))
        router.submit(make_memo("alice/Acme", "bob/Acme", "doomed"), "hq")
        for _ in range(router.max_attempts + 1):
            router.deliver_all()
            clock.advance(router.retry_cap * 2)
        assert router.stats.dead_lettered == 1
        dead = router.dead_letter_box("hq")
        report = dead.get(dead.unids()[0])
        assert report.get("Form") == "DeliveryFailure"
        assert report.get("FailedRecipients") == ["bob/Acme"]
        assert router.stats.bounced == 1  # NDR went back to alice
        inbox = router.mail_file("alice/Acme")
        forms = [inbox.get(unid).get("Form") for unid in inbox.unids()]
        assert "NonDelivery" in forms

    def test_backoff_grows_and_is_capped(self, faulty_mail):
        _, _, router = faulty_mail
        assert router._backoff(1) >= router.retry_base
        assert router._backoff(12) <= router.retry_cap * (
            1.0 + router.retry_jitter
        )


class TestClusterResumableDrain:
    def _cluster(self):
        deployment = build_deployment(2, seed=31)
        a, b = deployment.databases
        cluster = ClusterReplicator(deployment.network)
        cluster.attach(a)
        cluster.attach(b)
        return deployment, a, b, cluster

    def test_live_push_failure_stalls_the_link(self):
        deployment, a, b, cluster = self._cluster()
        deployment.network.install_faults(FaultPlan(
            1, deployment.clock, LinkFaultProfile(drop_probability=1.0),
        ))
        a.create({"S": "doomed push"})
        assert cluster.stats.interrupted == 1
        assert len(b) == 0
        assert cluster.backlog_size == 1

    def test_interrupted_drain_resumes_not_restarts(self):
        deployment, a, b, cluster = self._cluster()
        deployment.network.partition("srv0", "srv1")
        for index in range(10):
            a.create({"S": f"offline {index}"})
        deployment.network.partition("srv0", "srv1", partitioned=False)
        plan = deployment.network.install_faults(FaultPlan(
            1, deployment.clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(4, 4)),
        ))
        first = cluster.catch_up()
        assert first == 4  # the abort killed the drain after 4 pushes
        assert cluster.stats.interrupted == 1
        assert len(b) == 4
        plan.deactivate()
        second = cluster.catch_up()
        assert second == 6  # only the remainder — the cursor held
        assert converged([a, b])
        assert cluster.backlog_size == 0

    def test_pending_events_survive_an_interrupted_drain(self):
        deployment, a, b, cluster = self._cluster()
        doc = a.create({"S": "keep"})
        victim = a.create({"S": "soft"})
        assert len(b) == 2
        deployment.network.partition("srv0", "srv1")
        a.update(doc.unid, {"S": "edited"})
        a.soft_delete(victim.unid)  # journaled: the drain's second entry
        deployment.network.partition("srv0", "srv1", partitioned=False)
        plan = deployment.network.install_faults(FaultPlan(
            1, deployment.clock,
            LinkFaultProfile(abort_probability=1.0, abort_after=(1, 1)),
        ))
        cluster.catch_up()  # pushes the edit, dies before the soft delete
        assert cluster.stats.interrupted == 1
        plan.deactivate()
        cluster.catch_up()
        assert b.try_get(victim.unid) is None  # the soft delete arrived
        assert b.get(doc.unid).get("S") == "edited"


class TestConvergedFastPath:
    def test_fingerprint_short_circuit(self, faulty_pair):
        deployment, source, target = faulty_pair
        rep = Replicator(network=deployment.network)
        rep.replicate(source, target)
        assert converged([source, target])
        assert source.state_fingerprint() == target.state_fingerprint()

    def test_trash_divergence_does_not_break_convergence(self, faulty_pair):
        deployment, source, target = faulty_pair
        rep = Replicator(network=deployment.network)
        rep.replicate(source, target)
        # A soft delete journals but ships nothing (the revision is
        # unchanged); the trash entry is local-only, so fingerprints
        # diverge while the replicas are still converged — the fast path
        # must fall back, not misreport.
        source.soft_delete(source.unids()[0])
        rep.replicate(source, target)
        assert converged([source, target]) == (
            {d.unid for d in source.all_documents()}
            == {d.unid for d in target.all_documents()}
        )
