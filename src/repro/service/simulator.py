"""Closed-loop multi-client traffic against a sharded CLAM cluster.

The paper's motivating deployments (WAN optimizers, dedup farms, content
directories) serve many concurrent clients, each issuing its next request
only after the previous one completes — a *closed loop*.  The simulator
models M such clients over one :class:`~repro.service.cluster.ClusterService`:

* Each client owns a deterministic RNG and a Zipf-skewed key generator
  (:class:`repro.workloads.keygen.ZipfKeyGenerator`), so a few hot keys —
  and therefore a few hot shards — dominate, exactly the skew that makes
  load balancing interesting.
* Clients submit fixed-size batches; each batch's simulated completion time
  (the :class:`~repro.service.batch.BatchResult` makespan) advances that
  client's private timeline, where its next request starts.  The client with
  the earliest timeline goes next, so submission interleaving emerges from
  the latencies themselves rather than a fixed round-robin.
* The report aggregates per-client and per-shard load, end-to-end request
  latency percentiles, and flags **hot shards** whose share of operations
  exceeds ``hot_shard_threshold`` times the mean.
* A **failure schedule** (a sequence of :class:`FailureEvent`\\ s) can crash,
  heal or recover shards at chosen request counts, turning the simulator
  into a deterministic fault-injection harness: the report then also carries
  the availability observed through the outage and the
  :class:`~repro.service.rebalance.MigrationReport` of each recovery.

Everything is deterministic given the spec's seed.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.service.cluster import ClusterService, hot_shards, imbalance_factor
from repro.service.rebalance import AutoscaleDecision, AutoscalePolicy, KeyMigrator, MigrationReport
from repro.workloads.keygen import ZipfKeyGenerator, fingerprint_for
from repro.workloads.metrics import LatencySummary, summarize_latencies
from repro.workloads.workload import Operation, OpKind

#: Size in bytes of every value a client writes.
VALUE_SIZE = 8

#: Simulated time a client loses on a request that fails with
#: :class:`~repro.core.errors.ShardUnavailableError` (its timeout before
#: giving up on the batch).
FAILURE_TIMEOUT_MS = 1.0


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative description of a multi-client traffic pattern.

    Attributes
    ----------
    num_clients:
        Number of concurrent closed-loop clients.
    requests_per_client:
        Batched requests each client issues over the run.
    batch_size:
        Operations per request batch (1 = unbatched single operations).
    lookup_fraction / update_fraction:
        Operation mix; the remainder are inserts of new keys.
    key_space:
        Distinct keys the Zipf generator draws from.
    zipf_skew:
        Zipf exponent; higher values concentrate traffic on fewer keys.
    hot_shard_threshold:
        A shard is flagged hot when its operation share exceeds this multiple
        of the mean per-shard share.
    seed:
        Master seed; each client derives an independent substream.
    """

    num_clients: int = 8
    requests_per_client: int = 50
    batch_size: int = 8
    lookup_fraction: float = 0.5
    update_fraction: float = 0.1
    key_space: int = 5_000
    zipf_skew: float = 1.1
    hot_shard_threshold: float = 1.5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if self.requests_per_client <= 0:
            raise ValueError("requests_per_client must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for name in ("lookup_fraction", "update_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.lookup_fraction + self.update_fraction > 1.0:
            raise ValueError("operation fractions must sum to at most 1")
        if self.key_space <= 0:
            raise ValueError("key_space must be positive")
        if self.zipf_skew <= 0:
            raise ValueError("zipf_skew must be positive")
        if self.hot_shard_threshold < 1.0:
            raise ValueError("hot_shard_threshold must be at least 1")


#: Actions a :class:`FailureEvent` may take.
_FAILURE_ACTIONS = ("fail", "heal", "recover", "scale-out", "scale-in")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled fault action during a traffic run.

    Attributes
    ----------
    at_request:
        Global request count (0-based) at which the event fires, just before
        that request is dispatched.
    action:
        ``"fail"`` injects a fault into ``shard_id``'s devices
        (:meth:`ClusterService.fail_shard`), ``"heal"`` clears it
        (:meth:`ClusterService.heal_shard`), ``"recover"`` runs
        :meth:`~repro.service.rebalance.KeyMigrator.recover` over whatever
        shards the error counters have marked down, ``"scale-out"`` starts an
        online migration onto a joining shard and ``"scale-in"`` starts
        draining ``shard_id`` off the ring (both stepped between requests so
        the move overlaps live traffic).  All three go through the
        simulator's :class:`~repro.service.rebalance.KeyMigrator`, and each
        first drains a migration still in flight.
    shard_id:
        Target shard (required for ``fail``/``heal``/``scale-in``; optional
        for ``scale-out``, which auto-names the joining shard; ignored by
        ``recover``).
    mode:
        Fault flavour for ``fail`` — see :meth:`ClusterService.fail_shard`.
    """

    at_request: int
    action: str
    shard_id: Optional[str] = None
    mode: str = "crash"

    def __post_init__(self) -> None:
        if self.at_request < 0:
            raise ConfigurationError("at_request must be non-negative")
        if self.action not in _FAILURE_ACTIONS:
            raise ConfigurationError(
                f"action must be one of {_FAILURE_ACTIONS}, got {self.action!r}"
            )
        if self.action in ("fail", "heal", "scale-in") and self.shard_id is None:
            raise ConfigurationError(f"{self.action!r} events need a shard_id")


def fire_failure_event(
    event: FailureEvent,
    cluster: ClusterService,
    migrator: KeyMigrator,
) -> Optional[MigrationReport]:
    """Apply one scheduled event to ``cluster``; a ``recover`` returns its report."""
    cluster.events.record(
        "schedule_fired",
        action=event.action,
        shard=event.shard_id,
        at_request=event.at_request,
    )
    if event.action == "fail":
        cluster.fail_shard(event.shard_id, mode=event.mode)
    elif event.action == "heal":
        cluster.heal_shard(event.shard_id)
    else:
        # One membership change at a time: a still-running migration is
        # drained before the next scheduled one starts.
        if cluster.migration is not None:
            migrator.run_to_completion()
        if event.action == "scale-out":
            migrator.start_add(event.shard_id)
        elif event.action == "scale-in":
            migrator.start_remove(event.shard_id)
        else:
            return migrator.recover()
    return None


def fire_due_events(pending: deque[FailureEvent], dispatched: float, fire, outcome) -> None:
    """Fire, in order, the events scheduled at or before request number ``dispatched``.

    ``pending`` is what is left of a schedule, sorted by ``at_request``.  A
    driver calls this before every dispatch and once more, with ``math.inf``,
    after the last: a trailing ``recover`` must not be lost just because the
    workload finished first.  ``fire`` applies one event; ``outcome`` (the
    run's report) gains a ``fired_events`` row for it and any recovery report.
    """
    while pending and pending[0].at_request <= dispatched:
        event = pending.popleft()
        report = fire(event)
        outcome.fired_events.append((event.at_request, event.action, event.shard_id))
        if report is not None:
            outcome.recovery_reports.append(report)


@dataclass
class ClientReport:
    """One client's view of the run."""

    client_id: int
    requests: int = 0
    operations: int = 0
    finish_time_ms: float = 0.0
    request_latencies_ms: List[float] = field(default_factory=list)


@dataclass
class TrafficReport:
    """Aggregate outcome of one simulated traffic run."""

    spec: TrafficSpec
    operations: int = 0
    requests: int = 0
    duration_ms: float = 0.0
    clients: List[ClientReport] = field(default_factory=list)
    ops_per_shard: Dict[str, int] = field(default_factory=dict)
    busy_ms_per_shard: Dict[str, float] = field(default_factory=dict)
    hot_shards: List[str] = field(default_factory=list)
    dispatch_saved_ms: float = 0.0
    lookup_hits: int = 0
    lookups: int = 0
    #: Requests that failed with ShardUnavailableError (an outage window with
    #: too few live replicas); ``requests`` counts only successful ones.
    failed_requests: int = 0
    #: Schedule events that fired during the run, as (request_no, action, shard).
    fired_events: List[Tuple[int, str, Optional[str]]] = field(default_factory=list)
    #: Reports from scheduled ``recover`` events, in firing order.
    recovery_reports: List[MigrationReport] = field(default_factory=list)
    #: Reports of the migrations the simulator's migrator has completed
    #: (scheduled scale events, autoscaler decisions and recoveries alike),
    #: in completion order.
    migrations: List[MigrationReport] = field(default_factory=list)
    #: Decisions the attached autoscale policy took during the run.
    autoscale_decisions: List[AutoscaleDecision] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of issued requests that completed (1.0 = no failures)."""
        issued = self.requests + self.failed_requests
        return self.requests / issued if issued else 1.0

    @property
    def throughput_ops_per_second(self) -> float:
        """Operations completed per simulated second of the whole run."""
        if self.duration_ms <= 0:
            return 0.0
        return self.operations / (self.duration_ms / 1000.0)

    @property
    def lookup_success_rate(self) -> float:
        """Fraction of lookups that found a value."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    @property
    def imbalance_factor(self) -> float:
        """Hottest shard's operation share over the mean share."""
        return imbalance_factor(self.ops_per_shard.values())

    def request_latency_summary(self) -> LatencySummary:
        """Latency summary over every request in the run."""
        samples: List[float] = []
        for client in self.clients:
            samples.extend(client.request_latencies_ms)
        return summarize_latencies(samples)


def _value_for(key: bytes) -> bytes:
    """A deterministic :data:`VALUE_SIZE`-byte value derived from the key."""
    return (key * (VALUE_SIZE // max(1, len(key)) + 1))[:VALUE_SIZE]


class _Client:
    """Deterministic operation source for one simulated client."""

    def __init__(self, client_id: int, spec: TrafficSpec) -> None:
        self.client_id = client_id
        self._spec = spec
        self._rng = random.Random((spec.seed << 8) ^ client_id)
        self._keys = ZipfKeyGenerator(
            key_space=spec.key_space,
            skew=spec.zipf_skew,
            seed=(spec.seed << 8) ^ (client_id + 0x9E37),
        )
        self._next_fresh = 0

    def next_batch(self) -> List[Operation]:
        spec = self._spec
        operations: List[Operation] = []
        for _ in range(spec.batch_size):
            draw = self._rng.random()
            if draw < spec.lookup_fraction:
                operations.append(Operation(OpKind.LOOKUP, self._keys.next_key()))
            elif draw < spec.lookup_fraction + spec.update_fraction:
                key = self._keys.next_key()
                operations.append(Operation(OpKind.UPDATE, key, _value_for(key)))
            else:
                key = fingerprint_for(
                    self._next_fresh,
                    namespace=b"client-%d-%d" % (self.client_id, spec.seed),
                )
                self._next_fresh += 1
                operations.append(Operation(OpKind.INSERT, key, _value_for(key)))
        return operations


class TrafficSimulator:
    """Runs a :class:`TrafficSpec` against a cluster and reports the outcome.

    ``schedule`` is an optional sequence of :class:`FailureEvent`\\ s fired by
    global request count, making the simulator double as a deterministic
    failover harness (``benchmarks/bench_failover.py`` kills and recovers a
    shard mid-workload exactly this way).
    """

    def __init__(
        self,
        cluster: ClusterService,
        spec: Optional[TrafficSpec] = None,
        schedule: Optional[Sequence[FailureEvent]] = None,
        migrator: Optional[KeyMigrator] = None,
        autoscaler: Optional[AutoscalePolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.spec = spec if spec is not None else TrafficSpec()
        self.schedule = sorted(schedule or (), key=lambda event: event.at_request)
        #: Migrator driving scheduled ``scale-out``/``scale-in``/``recover``
        #: events; its :meth:`~repro.service.rebalance.KeyMigrator.step` is
        #: called once per dispatched request while a migration is in flight
        #: — whoever started it, an
        #: :class:`~repro.service.rebalance.AutoscalePolicy` decision included
        #: — so the move overlaps foreground traffic and its report lands in
        #: this migrator's ``reports``.
        self.migrator = migrator if migrator is not None else KeyMigrator(cluster)
        #: Optional autoscale policy ticked on every dispatched request.
        self.autoscaler = autoscaler

    def warmup(self, num_keys: Optional[int] = None) -> int:
        """Pre-populate the cluster with the hottest Zipf keys.

        Closed-loop lookup traffic against an empty cluster would miss on
        every key; inserting the ``num_keys`` most popular identifiers first
        gives lookups a realistic hit rate.  Returns the keys inserted.
        """
        spec = self.spec
        count = num_keys if num_keys is not None else min(spec.key_space, 1_000)
        operations = []
        for identifier in range(count):
            key = fingerprint_for(identifier)
            operations.append(Operation(OpKind.INSERT, key, _value_for(key)))
        self.cluster.execute_batch(operations)
        return count

    def run(self) -> TrafficReport:
        """Execute the full closed-loop run and return the aggregate report."""
        spec = self.spec
        report = TrafficReport(spec=spec)
        clients = [_Client(client_id, spec) for client_id in range(spec.num_clients)]
        reports = [ClientReport(client_id=c.client_id) for c in clients]
        # Min-heap of (client_time_ms, client_id): the client whose timeline
        # is furthest behind submits next, like an event-driven scheduler.
        ready: List[Tuple[float, int]] = [(0.0, c.client_id) for c in clients]
        heapq.heapify(ready)
        remaining = [spec.requests_per_client] * spec.num_clients
        # Pre-seed every serving shard so idle shards count toward the mean in
        # imbalance and hot-shard calculations (all-zero entries are honest:
        # an idle shard is the strongest signal of imbalance).
        report.ops_per_shard = {shard_id: 0 for shard_id in self.cluster.shard_ids}
        report.busy_ms_per_shard = {shard_id: 0.0 for shard_id in self.cluster.shard_ids}

        # Request metrics go to the cluster-level registry when telemetry is
        # on.  Hot shards are judged on what each shard served during the run,
        # read off its always-on counters: the baseline subtracts warmup and
        # earlier runs, and the counters also see the read-repair, hint and
        # migration work the report's batch accounting never does.
        registry = self.cluster.telemetry
        request_hist = registry.histogram("request_latency_ms") if registry is not None else None
        ops_baseline = self.cluster.stats.operations_per_shard()

        issued = 0
        pending = deque(self.schedule)

        def fire(event: FailureEvent) -> Optional[MigrationReport]:
            return fire_failure_event(event, self.cluster, self.migrator)

        while ready:
            fire_due_events(pending, issued, fire, report)
            if self.autoscaler is not None:
                decision = self.autoscaler.tick(issued)
                if decision is not None:
                    report.autoscale_decisions.append(decision)
            if self.cluster.migration is not None:
                self.migrator.step()
            client_time, client_id = heapq.heappop(ready)
            client_report = reports[client_id]
            issued += 1
            try:
                batch = self.cluster.execute_batch(clients[client_id].next_batch())
            except ShardUnavailableError:
                # An outage window with too few live replicas: the request
                # times out; the client retires it and moves on.
                report.failed_requests += 1
                client_report.finish_time_ms = client_time + FAILURE_TIMEOUT_MS
                if registry is not None:
                    registry.counter("requests_failed").inc()
            else:
                latency = batch.makespan_ms
                if registry is not None:
                    registry.counter("requests_completed").inc()
                    registry.counter("operations_completed").inc(batch.operations)
                    request_hist.observe(latency)
                client_report.requests += 1
                client_report.operations += batch.operations
                client_report.request_latencies_ms.append(latency)
                client_report.finish_time_ms = client_time + latency
                report.requests += 1
                report.operations += batch.operations
                report.dispatch_saved_ms += batch.dispatch_saved_ms
                for shard_id, stats in batch.per_shard.items():
                    report.ops_per_shard[shard_id] = (
                        report.ops_per_shard.get(shard_id, 0) + stats.operations
                    )
                    report.busy_ms_per_shard[shard_id] = (
                        report.busy_ms_per_shard.get(shard_id, 0.0) + stats.busy_ms
                    )
                    report.lookups += stats.lookups
                    report.lookup_hits += stats.lookup_hits
            remaining[client_id] -= 1
            if remaining[client_id] > 0:
                heapq.heappush(ready, (client_report.finish_time_ms, client_id))

        fire_due_events(pending, math.inf, fire, report)

        # A migration still in flight when the workload ends is drained: the
        # run's contract is that every started membership change completes
        # (or raises if it stalled with nowhere to place keys).
        if self.cluster.migration is not None:
            self.migrator.run_to_completion()
        report.migrations = list(self.migrator.reports)

        report.clients = reports
        report.duration_ms = max((c.finish_time_ms for c in reports), default=0.0)
        report.hot_shards = self._detect_hot_shards(ops_baseline)
        return report

    def _detect_hot_shards(self, baseline: Dict[str, float]) -> List[str]:
        """Shards whose operations since ``baseline`` exceed the threshold.

        Every shard the cluster serves counts toward the mean, idle ones
        included: an idle shard is the strongest signal of imbalance.
        """
        loads = {
            shard_id: operations - baseline.get(shard_id, 0.0)
            for shard_id, operations in self.cluster.stats.operations_per_shard().items()
        }
        return hot_shards(loads, self.spec.hot_shard_threshold)
