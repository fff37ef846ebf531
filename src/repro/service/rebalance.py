"""Online elastic rebalancing: streaming key-range migration under live traffic.

The rebalancing layer turns a membership change — a shard joining or leaving
the ring, or dead shards leaving the cluster — into a *migration* the cluster
can perform while it keeps serving.  It is the one way membership changes and
keys move between replica sets: scale-out, scale-in and failure recovery
(:meth:`KeyMigrator.recover`) all change the ring here, diff it with
:func:`changed_arcs` and stream the arcs.

* :func:`changed_arcs` computes the **exact** set of key-range arcs whose
  preference list changes between two rings.  Preference lists are piecewise
  constant between ring points (see
  :meth:`~repro.service.router.ShardRouter.preference_at`), so segmenting the
  ring at the union of both rings' boundary points and comparing the lists at
  each segment's inclusive end covers the whole key space with no sampling.
* :class:`MigrationState` is the placement overlay installed on
  :attr:`ClusterService.migration` while arcs move, and the only holder of the
  migration's progress, so any migrator can drive it.  A **pending** arc still
  routes to its old owners; a **migrating** arc routes every read and write to
  the *union* of old and new owners, old owners first — the double-read window
  that keeps lookups hitting the authoritative copy and the write forwarding
  that keeps the new owners current; a **done** arc routes to its new owners
  only.
* :class:`KeyMigrator` drives the move: it snapshots the old ring, applies the
  membership change, seeds each arc's copy queue by scanning its old owners'
  keys, then streams keys — in key order, so the copy sequence depends on the
  keys alone — in bounded :meth:`~KeyMigrator.step` batches interleaved with
  live traffic, each a sub-batch per shard it touches.  An arc whose queue
  drains is **cut over** atomically (one state flip) and the copies on owners
  that left its preference list are retired.  A key counts as copied only
  once at least one *live* new-ring replica is confirmed to hold it, so
  killing the joining shard mid-migration at ``replication_factor >= 2``
  degrades to hinted handoff instead of data loss.  An arc is given up as
  lost only when every one of its old owners has left the cluster, which only
  a recovery's membership change does: a planned scale-out or scale-in keeps
  the leaving shard instantiated until its last arc cuts over, so it stalls
  instead of losing keys.  A recovery reports in a :class:`MigrationReport`
  like any other migration.
* :class:`AutoscalePolicy` layers elasticity on top: driven by per-shard
  operation deltas (the hot-shard signal), read off each shard's always-on
  counters, it starts a scale-out or scale-in migration during a
  :class:`~repro.service.simulator.TrafficSimulator` run, with cooldown and
  one-membership-change-at-a-time discipline.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import ConfigurationError, DeviceFailedError, ShardUnavailableError
from repro.core.hashing import KeyLike, ring_position
from repro.service.batch import DIRECTED_OP_MS
from repro.service.cluster import ClusterService, hot_shards, imbalance_factor
from repro.service.router import RING_SPACE, ShardRouter
from repro.workloads.workload import OpKind

#: Consecutive zero-progress steps after which
#: :meth:`KeyMigrator.run_to_completion` gives up on a stalled migration.
STALL_LIMIT = 3


class ArcState(Enum):
    """Lifecycle of one migration arc."""

    PENDING = "pending"
    MIGRATING = "migrating"
    DONE = "done"


@dataclass(eq=False)  # each arc is its own object: sets of arcs hash by identity
class MigrationArc:
    """One contiguous key-range arc whose preference list is changing.

    ``start`` is exclusive and ``end`` inclusive, matching the router's arc
    convention; an arc may wrap through 0.  ``keys`` is every key its old
    owners' scans found (kept current by :meth:`MigrationState.note_write`),
    ``pending`` the subset still awaiting a confirmed copy.  The fields after
    the replica lists are the arc's progress, which only the migration moves.
    """

    start: int
    end: int
    old_replicas: Tuple[str, ...]
    new_replicas: Tuple[str, ...]
    state: ArcState = field(default=ArcState.PENDING, init=False)
    seeded: bool = field(default=False, init=False)
    keys: Set[bytes] = field(default_factory=set, init=False)
    pending: Set[bytes] = field(default_factory=set, init=False)
    copied: int = field(default=0, init=False)

    @property
    def length(self) -> int:
        """Arc length in ring units (start == end means the whole ring)."""
        return (self.end - self.start) % RING_SPACE or RING_SPACE

    @property
    def fraction(self) -> float:
        """Fraction of the key space the arc covers."""
        return self.length / RING_SPACE

    def contains(self, position: int) -> bool:
        """Whether a ring position falls inside this (wrap-aware) arc."""
        return 0 < (position - self.start) % RING_SPACE <= self.length

    @property
    def union_replicas(self) -> Tuple[str, ...]:
        """Old owners first, then the new owners not already among them.

        The placement of a migrating arc: old-first ordering makes the first
        live replica — what lookups and batched reads consult — the
        authoritative old primary throughout the double-read window.
        """
        return self.old_replicas + tuple(
            shard_id for shard_id in self.new_replicas if shard_id not in self.old_replicas
        )


def changed_arcs(
    old_router: ShardRouter,
    new_router: ShardRouter,
    replication_factor: int,
) -> List[MigrationArc]:
    """Exact arcs whose preference list differs between two rings.

    Segments the ring at the union of both rings' boundary points; preference
    lists are constant on each segment, so evaluating both routers at the
    segment's inclusive end classifies every key in it.  Adjacent segments
    with identical (old, new) lists are merged.
    """
    boundaries = sorted(set(old_router.boundary_points()) | set(new_router.boundary_points()))
    arcs: List[MigrationArc] = []
    previous = boundaries[-1]
    for point in boundaries:
        old_pref = old_router.preference_at(point, replication_factor)
        new_pref = new_router.preference_at(point, replication_factor)
        if old_pref != new_pref:
            if (
                arcs
                and arcs[-1].end == previous
                and arcs[-1].old_replicas == old_pref
                and arcs[-1].new_replicas == new_pref
            ):
                arcs[-1].end = point
            else:
                arcs.append(
                    MigrationArc(
                        start=previous,
                        end=point,
                        old_replicas=old_pref,
                        new_replicas=new_pref,
                    )
                )
        previous = point
    # The first and last arcs may be two halves of one arc wrapping through 0.
    if (
        len(arcs) >= 2
        and arcs[0].start == arcs[-1].end
        and arcs[0].old_replicas == arcs[-1].old_replicas
        and arcs[0].new_replicas == arcs[-1].new_replicas
    ):
        arcs[-1].end = arcs[0].end
        arcs.pop(0)
    return arcs


class MigrationState:
    """One migration in flight: the placement overlay and the progress.

    Installed on :attr:`ClusterService.migration` by a :class:`KeyMigrator`
    *after* the ring has been mutated, so ``router`` here is already the new
    ring: keys outside any arc (and keys in done arcs) route normally, while
    pending/migrating arcs override placement per :class:`ArcState`.  The
    counters are the migration's own, so any migrator can step it; the
    ``started_*`` readings are the cluster clock's before the membership change.
    """

    def __init__(
        self,
        arcs: List[MigrationArc],
        router: ShardRouter,
        replication_factor: int,
        direction: str,
        subject: str,
        moved_fraction: float,
        started_ms: float,
        started_busy_ms: float,
    ) -> None:
        self.arcs = sorted(arcs, key=lambda arc: arc.end)
        self._ends = [arc.end for arc in self.arcs]
        self._router = router
        self._replication_factor = replication_factor
        self.direction = direction
        self.subject = subject
        self.moved_fraction = moved_fraction
        self.started_ms = started_ms
        self.started_busy_ms = started_busy_ms
        self.steps = 0
        self.blocked_retries = 0
        self.keys_seeded = 0
        self.keys_copied = 0
        self.keys_retired = 0
        #: Consecutive steps that confirmed zero keys while some were blocked.
        self.stalled_steps = 0
        #: Copies written, per new owner.
        self.keys_gained: Dict[str, int] = {}
        #: Seeded keys each old owner that answered missed (deleted or evicted
        #: since the scan; nothing to move, so the key also counts as copied).
        self.keys_lost = 0
        #: Share of the key space none of whose old owners is left to scan.
        self.lost_fraction = 0.0

    def arc_for_hash(self, position: int) -> Optional[MigrationArc]:
        """The arc containing a ring position, or None if no arc covers it.

        Arcs are disjoint and sorted by inclusive end; a wrapping arc (the one
        through 0) necessarily has the smallest end, so the usual
        first-end-at-or-after bisect plus a containment check covers both the
        wrap-around probe and the gaps between arcs.
        """
        if not self.arcs:
            return None
        index = bisect_left(self._ends, position)
        if index == len(self._ends):
            index = 0
        arc = self.arcs[index]
        return arc if arc.contains(position) else None

    def replicas_for(self, key: KeyLike) -> Tuple[str, ...]:
        """The shards an operation on ``key`` must consult right now; reads and
        writes see the same placement (in the double-read window reads so they
        never miss, writes so the new owners stay current for the cut-over)."""
        arc = self.arc_for_hash(ring_position(key))
        if arc is None:
            return self._router.preference_list(key, self._replication_factor)
        if arc.state is ArcState.MIGRATING:
            return arc.union_replicas
        if arc.state is ArcState.PENDING:
            return arc.old_replicas
        return arc.new_replicas

    def note_write(self, key_bytes: bytes, alive: bool) -> None:
        """Fold one applied write into the owning arc's bookkeeping.

        A write landing in a pending arc must join its copy queue (the arc's
        owners have not changed yet); in a migrating arc the dual-write
        already placed the value on the new owners, so the key leaves the
        queue instead.  Deletes leave both sets — there is nothing to move or
        retire any more.
        """
        arc = self.arc_for_hash(ring_position(key_bytes))
        if arc is None or arc.state is ArcState.DONE:
            return
        if alive:
            arc.keys.add(key_bytes)
            if arc.state is ArcState.PENDING:
                arc.pending.add(key_bytes)
            else:
                arc.pending.discard(key_bytes)
        else:
            arc.keys.discard(key_bytes)
            arc.pending.discard(key_bytes)


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one completed migration, a recovery's included.

    A recovery's ``subject`` is its failed shards joined by commas, and its
    ``keys_seeded`` the keys the survivors' scans found in the changed arcs.
    A recovery with no shard down moved nothing and reports zeros.
    """

    direction: str
    subject: str
    arcs: int = 0
    moved_fraction: float = 0.0
    keys_seeded: int = 0
    keys_copied: int = 0
    keys_retired: int = 0
    steps: int = 0
    blocked_retries: int = 0
    #: Cluster time from the membership change to the last cut-over.
    duration_ms: float = 0.0
    #: Copies written, per new owner.
    keys_gained: Dict[str, int] = field(default_factory=dict)
    #: Seeded keys no old owner that answered still held.
    keys_lost: int = 0
    #: Share of the key space whose old owners had all left the cluster, so
    #: no scan found its keys (a recovery's loss at ``replication_factor=1``).
    lost_fraction: float = 0.0
    #: Simulated shard-side work (:attr:`ClockEnsemble.busy_ms` delta) —
    #: nonzero even when the shards worked behind the cluster-time frontier.
    work_ms: float = 0.0

    @property
    def keys_re_replicated(self) -> int:
        """Seeded keys now held by their new preference lists."""
        return self.keys_seeded - self.keys_lost

    @property
    def copies_written(self) -> int:
        """Individual (key, shard) copies the migration wrote."""
        return sum(self.keys_gained.values())


class KeyMigrator:
    """Streams a membership change's key-range arcs while traffic continues.

    One migration at a time: :meth:`start_add` / :meth:`start_remove` /
    :meth:`recover` snapshot the old ring, apply the membership change,
    seed the arc queues by scanning the old owners and install the
    :class:`MigrationState` overlay.
    :meth:`step` then copies a bounded batch of keys (call it from the traffic
    loop to interleave with requests), cutting arcs over as their queues
    drain — in one sub-batch per shard it reads, writes or retires from,
    however many keys it moves.  :meth:`run_to_completion` drains everything,
    raising once :data:`STALL_LIMIT` consecutive steps made no progress
    because no live replica was left to copy from or confirm on.  Both act
    on whatever migration ``cluster.migration`` holds, whichever migrator
    started it; a migrator keeps only its settings and the reports of the
    migrations it completed.

    Parameters
    ----------
    batch_size:
        Copy attempts per :meth:`step` (the knob trading migration speed for
        foreground interference).
    max_active_arcs:
        Arcs in the migrating (double-read) state at once; the rest stay
        pending — and cheaply routed to their old owners — until a slot frees.
    """

    def __init__(
        self,
        cluster: ClusterService,
        batch_size: int = 64,
        max_active_arcs: int = 4,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if max_active_arcs <= 0:
            raise ConfigurationError("max_active_arcs must be positive")
        self.cluster = cluster
        self.batch_size = batch_size
        self.max_active_arcs = max_active_arcs
        #: Reports of the migrations this migrator completed, in order.
        self.reports: List[MigrationReport] = []

    def _snapshot(self) -> Tuple[ShardRouter, Tuple[float, float]]:
        """Preconditions, an independent copy of the current (old) ring and
        the cluster clock's ``(now_ms, busy_ms)`` before the change."""
        cluster = self.cluster
        if cluster.migration is not None:
            raise ConfigurationError("a key migration is already in flight")
        router = cluster.router
        started = (cluster.clock.now_ms, cluster.clock.busy_ms)
        return ShardRouter(router.shard_ids, virtual_nodes=router.virtual_nodes), started

    # -- Starting a migration -----------------------------------------------------------

    def start_add(self, shard_id: Optional[str] = None) -> str:
        """Provision a shard and start streaming its arcs to it online.

        Returns the joining shard's id: ``shard_id``, or when not given
        ``shard-{N}`` for N shards, stepping past names already taken.
        """
        old_router, started = self._snapshot()
        cluster = self.cluster
        if shard_id is None:
            index = len(cluster.shards)
            while f"shard-{index}" in cluster.shards:
                index += 1
            shard_id = f"shard-{index}"
        cluster._build_shard(shard_id)
        cluster.router.add_shard(shard_id)
        cluster.events.record("shard_added", shard=shard_id)
        self._install("scale-out", shard_id, old_router, started)
        return shard_id

    def start_remove(self, shard_id: str) -> str:
        """Take a shard off the ring and start draining its data online.

        The leaving shard stays instantiated — and keeps serving as an old
        owner through the double-read window — until the last of its arcs
        cuts over, at which point it is decommissioned.
        """
        old_router, started = self._snapshot()
        router = self.cluster.router
        if shard_id not in router:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        if len(router) - 1 < self.cluster.replication_factor:
            raise ConfigurationError(
                f"removing {shard_id!r} would leave fewer shards than "
                f"replication_factor={self.cluster.replication_factor}"
            )
        router.remove_shard(shard_id)
        self._install("scale-in", shard_id, old_router, started)
        return shard_id

    def recover(self) -> MigrationReport:
        """Take the shards marked down out of the cluster and re-replicate their arcs.

        One membership change: every down shard leaves the ring and
        ``cluster.shards`` (:meth:`ClusterService.decommission_shard`) before
        any key moves, so each changed arc is streamed from its surviving old
        owners, and an arc none of them is left to answer for is lost.  The
        migration runs to completion here; a survivor that stops answering
        stalls it (:class:`ShardUnavailableError`) with the migration still
        installed, for any migrator to finish once that shard heals.

        Returns the report, which is also the cluster's ``last_recovery``.
        With no shard down nothing changes: the report is all zeros and
        ``last_recovery`` keeps the previous recovery's.
        """
        cluster = self.cluster
        failed = cluster.down_shard_ids
        if not failed:
            return MigrationReport("recovery", "")
        old_router, started = self._snapshot()
        for shard_id in failed:
            cluster.router.remove_shard(shard_id)
            cluster.decommission_shard(shard_id)
        self._install("recovery", ",".join(failed), old_router, started)
        report = self.run_to_completion()
        cluster.recoveries += 1
        cluster.events.record(
            "recovery",
            shards=list(failed),
            keys_re_replicated=report.keys_re_replicated,
            copies_written=report.copies_written,
            keys_lost=report.keys_lost,
            lost_fraction=report.lost_fraction,
            duration_ms=report.duration_ms,
        )
        cluster.last_recovery = report
        return report

    def _install(
        self,
        direction: str,
        subject: str,
        old_router: ShardRouter,
        started: Tuple[float, float],
    ) -> None:
        """Install the migration from ``old_router`` to the cluster's ring.
        Its moved fraction is the key space whose primary changes: integer arc
        lengths summed, divided once, each arc counted once."""
        cluster = self.cluster
        arcs = changed_arcs(old_router, cluster.router, cluster.replication_factor)
        moved = (
            sum(arc.length for arc in arcs if arc.old_replicas[0] != arc.new_replicas[0])
            / RING_SPACE
        )
        state = MigrationState(
            arcs, cluster.router, cluster.replication_factor, direction, subject, moved, *started
        )
        for arc in arcs:
            if cluster.shards.keys().isdisjoint(arc.old_replicas):
                arc.seeded = True  # no old owner is left to scan: nothing will arrive
                state.lost_fraction += arc.fraction
        self._scan(state)
        cluster.migration = state
        cluster.events.record(
            "migration_started",
            direction=direction,
            shard=subject,
            arcs=len(arcs),
            keys=state.keys_seeded,
            moved_fraction=moved,
        )
        if cluster.telemetry is not None:
            cluster.telemetry.counter("migrations_started").inc()

    def _scan(self, state: MigrationState) -> None:
        """Seed the waiting arcs from one key scan per live old owner.

        A scan seeds every arc its shard is an old owner of, with the keys
        hashing into it.  An owner that is down or fails its scan (one shard
        error) leaves its arcs to the others; one none answered for waits.
        """
        cluster = self.cluster
        waiting = {shard for arc in state.arcs if not arc.seeded for shard in arc.old_replicas}
        for shard_id in sorted(waiting):
            if not cluster.is_live(shard_id):
                continue
            shard = cluster.shards[shard_id]
            shard.clock.advance(DIRECTED_OP_MS)
            try:
                keys = shard.live_keys()
            except DeviceFailedError:
                cluster.record_shard_error(shard_id)
                continue
            owned = {arc for arc in state.arcs if shard_id in arc.old_replicas}
            for arc in owned:
                arc.seeded = True
            for key in keys:
                arc = state.arc_for_hash(ring_position(key))
                if arc in owned and arc.state is not ArcState.DONE and key not in arc.keys:
                    arc.keys.add(key)
                    arc.pending.add(key)
                    state.keys_seeded += 1

    # -- Driving the migration ----------------------------------------------------------

    def step(self, budget: Optional[int] = None) -> int:
        """Attempt up to ``budget`` key copies; returns the keys confirmed.

        Each migrating arc's queue is drained smallest key first, the step's
        keys together (:meth:`_copy`).  Keys whose copy cannot be confirmed
        (no reachable old replica, or no live new-ring replica to hold the
        value) stay queued for the next step rather than dropped; an arc
        whose queue drains cuts over; the migration completes — and on
        scale-in decommissions the leaving shard — once every arc is done.
        An arc no old owner's key scan has answered for yet counts as blocked.
        """
        state = self.cluster.migration
        if state is None:
            raise ConfigurationError("no key migration in flight")
        budget = self.batch_size if budget is None else budget
        if budget <= 0:
            raise ConfigurationError("budget must be positive")
        state.steps += 1
        self._scan(state)
        self._promote_arcs(state)
        visited: List[MigrationArc] = []
        batch: List[Tuple[MigrationArc, bytes]] = []
        for arc in state.arcs:
            if arc.state is not ArcState.MIGRATING:
                continue
            visited.append(arc)
            batch.extend((arc, key) for key in heapq.nsmallest(budget - len(batch), arc.pending))
            if len(batch) >= budget:
                break
        safe = self._copy(state, batch)
        for arc, key in batch:
            if key in safe:
                arc.pending.discard(key)
                arc.copied += 1
        copied = len(safe)
        blocked = sum(1 for arc in state.arcs if not arc.seeded) + len(batch) - copied
        self._cut_over(state, [arc for arc in visited if not arc.pending])
        state.keys_copied += copied
        state.blocked_retries += blocked
        if copied == 0 and blocked > 0:
            state.stalled_steps += 1
        elif copied > 0:
            state.stalled_steps = 0
        self._promote_arcs(state)
        if all(arc.state is ArcState.DONE for arc in state.arcs):
            self._complete(state)
        return copied

    def run_to_completion(self) -> MigrationReport:
        """Step the migration in flight until it completes; raise if it stalls."""
        state = self.cluster.migration
        if state is None:
            raise ConfigurationError("no key migration in flight")
        while self.cluster.migration is not None:
            self.step()
            if state.stalled_steps >= STALL_LIMIT:
                raise ShardUnavailableError(
                    f"migration of {state.subject!r} stalled: {state.stalled_steps} "
                    "consecutive steps with every pending key blocked (no live "
                    "replica to read from or confirm on)"
                )
        return self.reports[-1]

    def _promote_arcs(self, state: MigrationState) -> None:
        active = sum(1 for arc in state.arcs if arc.state is ArcState.MIGRATING)
        for arc in state.arcs:
            if active >= self.max_active_arcs:
                break
            if arc.state is ArcState.PENDING and arc.seeded:
                arc.state = ArcState.MIGRATING
                active += 1

    def _copy(self, state: MigrationState, batch: List[Tuple[MigrationArc, bytes]]) -> Set[bytes]:
        """Copy a step's keys to their arcs' new owners; returns those now safe.

        Reads old-first (the authoritative side), writes every new owner not
        already holding a key, and for a key no new owner took confirms — and
        repairs if needed — a surviving old owner that stays in the new
        preference list (prefix stability at ``replication_factor >= 2``).  A
        new owner that is down, or fails its sub-batch, is hinted for its keys,
        so a joining shard killed mid-migration catches up on heal instead of
        losing keys.
        """
        cluster, executor = self.cluster, self.cluster.executor
        copies = executor.first_copies({key: arc.old_replicas for arc, key in batch})
        safe: Set[bytes] = set()
        moving: Dict[bytes, Tuple[MigrationArc, bytes]] = {}
        writes: Dict[str, List[Tuple[OpKind, bytes, bytes]]] = {}
        for arc, key in batch:
            if key not in copies:
                continue  # no old owner answered: blocked
            value = copies[key][0]
            if value is None:  # deleted while queued: nothing to move
                arc.keys.discard(key)
                state.keys_lost += 1
                safe.add(key)
                continue
            moving[key] = (arc, value)
            for target in arc.new_replicas:
                if target not in arc.old_replicas:
                    writes.setdefault(target, []).append((OpKind.INSERT, key, value))
        done = executor.execute_directed({t: w for t, w in writes.items() if cluster.is_live(t)})
        for target, operations in writes.items():
            if target in done:
                state.keys_gained[target] = state.keys_gained.get(target, 0) + len(operations)
                safe.update(key for _, key, _ in operations)
            else:
                for _, key, _ in operations:
                    cluster._record_hint(target, key)
        survivors = {
            key: [shard_id for shard_id in arc.new_replicas if shard_id in arc.old_replicas]
            for key, (arc, _) in moving.items()
            if key not in safe
        }
        repairs: Dict[str, List[Tuple[OpKind, bytes, bytes]]] = {}
        for key, (value, shard_id) in executor.first_copies(survivors).items():
            if value is not None:
                safe.add(key)
            else:
                repairs.setdefault(shard_id, []).append((OpKind.INSERT, key, moving[key][1]))
        for shard_id, results in executor.execute_directed(repairs).items():
            cluster.read_repairs += len(results)
            safe.update(key for _, key, _ in repairs[shard_id])
        return safe

    def _cut_over(self, state: MigrationState, arcs: List[MigrationArc]) -> None:
        """Atomically retire drained arcs.

        The state flip is the atomic step: from the next operation on, keys in
        an arc route to the new owners only.  Copies on owners that left the
        preference list are then deleted, one sub-batch per retiring owner (a
        scale-in's leaving shard is skipped — it is decommissioned wholesale
        at completion).
        """
        for arc in arcs:
            arc.state = ArcState.DONE
        retired = self._delete_keys(
            (arc, shard_id)
            for arc in arcs
            for shard_id in arc.old_replicas
            if shard_id not in arc.new_replicas and shard_id != state.subject
        )
        for arc in arcs:
            state.keys_retired += retired[arc]
            self.cluster.events.record(
                "arc_cut_over",
                shard=state.subject,
                arc_start=f"{arc.start:016x}",
                arc_end=f"{arc.end:016x}",
                keys=len(arc.keys),
                copied=arc.copied,
                retired=retired[arc],
            )

    def _delete_keys(self, copies: Iterable[Tuple[MigrationArc, str]]) -> Counter:
        """Delete each arc's keys from the live shard paired with it, one
        sub-batch per shard; counts the deletes that ran per arc."""
        cluster = self.cluster
        deletes: Dict[str, List[Tuple[OpKind, bytes, bytes]]] = {}
        owners: Dict[str, List[MigrationArc]] = {}
        for arc, shard_id in copies:
            if cluster.is_live(shard_id):
                keys = sorted(arc.keys)
                deletes.setdefault(shard_id, []).extend((OpKind.DELETE, key, b"") for key in keys)
                owners.setdefault(shard_id, []).extend([arc] * len(keys))
        ran: Counter = Counter()
        for shard_id in cluster.executor.execute_directed(deletes):
            ran.update(owners[shard_id])
        return ran

    def _complete(self, state: MigrationState) -> None:
        cluster = self.cluster
        report = MigrationReport(
            direction=state.direction,
            subject=state.subject,
            arcs=len(state.arcs),
            moved_fraction=state.moved_fraction,
            keys_seeded=state.keys_seeded,
            keys_copied=state.keys_copied,
            keys_retired=state.keys_retired,
            steps=state.steps,
            blocked_retries=state.blocked_retries,
            duration_ms=cluster.clock.now_ms - state.started_ms,
            keys_gained=dict(state.keys_gained),
            keys_lost=state.keys_lost,
            lost_fraction=state.lost_fraction,
            work_ms=cluster.clock.busy_ms - state.started_busy_ms,
        )
        cluster.migration = None
        if report.direction == "scale-in":
            cluster.decommission_shard(report.subject)
        cluster.events.record(
            "migration_done",
            direction=report.direction,
            shard=report.subject,
            keys_copied=report.keys_copied,
            keys_retired=report.keys_retired,
            steps=report.steps,
        )
        if cluster.telemetry is not None:
            cluster.telemetry.counter("migrations_completed").inc()
            cluster.telemetry.counter("migration_keys_copied").inc(report.keys_copied)
        self.reports.append(report)


@dataclass(frozen=True)
class AutoscaleConfig:
    """Thresholds and pacing for :class:`AutoscalePolicy`.

    Scale-out triggers when any shard's operation share since the last
    evaluation exceeds ``hot_shard_threshold`` times the mean.  Scale-in
    triggers when no shard is hot and the load imbalance is at most
    ``scale_in_imbalance`` — the fleet is provably over-provisioned.
    ``cooldown`` requests must pass after a decision before the next one, and
    decisions are only evaluated every ``evaluate_every`` requests (and never
    while a migration is still in flight).
    """

    min_shards: int = 2
    max_shards: int = 12
    hot_shard_threshold: float = 1.5
    scale_in_imbalance: float = 1.2
    evaluate_every: int = 50
    cooldown: int = 200

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ConfigurationError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ConfigurationError("max_shards must be at least min_shards")
        if self.hot_shard_threshold < 1.0:
            raise ConfigurationError("hot_shard_threshold must be at least 1")
        if self.scale_in_imbalance < 1.0:
            raise ConfigurationError("scale_in_imbalance must be at least 1")
        if self.evaluate_every <= 0:
            raise ConfigurationError("evaluate_every must be positive")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")


@dataclass(frozen=True)
class AutoscaleDecision:
    """One membership change the policy decided on."""

    action: str
    shard: str
    at_request: int
    reason: str
    hot_shards: Tuple[str, ...] = ()


class AutoscalePolicy:
    """Decides shard membership from live load.

    Reads the operations each shard has served
    (:meth:`ClusterStats.operations_per_shard`, deltas between evaluations —
    the same signal the simulator's hot-shard detector uses) and starts
    migrations with a fresh :class:`KeyMigrator`; whatever steps the
    cluster's migrations (the :class:`TrafficSimulator`'s migrator) drives
    them to completion.  The counters are always on, so the policy acts the
    same with telemetry on or off.
    """

    def __init__(
        self,
        cluster: ClusterService,
        config: Optional[AutoscaleConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else AutoscaleConfig()
        #: Decisions taken, in order.
        self.decisions: List[AutoscaleDecision] = []
        self._baseline = cluster.stats.operations_per_shard()
        self._last_eval = 0
        self._last_action: Optional[int] = None

    def tick(self, at_request: int) -> Optional[AutoscaleDecision]:
        """Evaluate the load at the given request count; maybe act.

        Returns the decision taken this tick, or None.  Call it once per
        dispatched request (the :class:`TrafficSimulator` does); evaluation
        and cooldown pacing are handled internally.
        """
        config = self.config
        if at_request - self._last_eval < config.evaluate_every:
            return None
        self._last_eval = at_request
        current = self.cluster.stats.operations_per_shard()
        loads = {
            shard_id: value - self._baseline.get(shard_id, 0.0)
            for shard_id, value in current.items()
        }
        self._baseline = current
        if self.cluster.migration is not None:
            return None
        if self._last_action is not None and at_request - self._last_action < config.cooldown:
            return None
        live_loads = {
            shard_id: load for shard_id, load in loads.items() if self.cluster.is_live(shard_id)
        }
        if sum(live_loads.values()) <= 0:  # idle since the last evaluation
            return None
        hot = hot_shards(live_loads, config.hot_shard_threshold)
        num_shards = len(self.cluster.router)
        decision: Optional[AutoscaleDecision] = None
        if hot and num_shards < config.max_shards:
            subject = KeyMigrator(self.cluster).start_add()
            decision = AutoscaleDecision(
                action="scale-out",
                shard=subject,
                at_request=at_request,
                reason=f"hot shards {hot}",
                hot_shards=tuple(hot),
            )
        elif not hot and num_shards > max(config.min_shards, self.cluster.replication_factor):
            imbalance = imbalance_factor(live_loads.values())
            if imbalance <= config.scale_in_imbalance:
                victim = min(live_loads, key=lambda shard_id: (live_loads[shard_id], shard_id))
                KeyMigrator(self.cluster).start_remove(victim)
                decision = AutoscaleDecision(
                    action="scale-in",
                    shard=victim,
                    at_request=at_request,
                    reason=f"balanced fleet (imbalance {imbalance:.2f})",
                )
        if decision is not None:
            self._last_action = at_request
            self.decisions.append(decision)
            self.cluster.events.record(
                "autoscale_decision",
                action=decision.action,
                shard=decision.shard,
                at_request=at_request,
                reason=decision.reason,
            )
        return decision
