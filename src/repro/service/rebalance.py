"""Online elastic rebalancing: streaming key-range migration under live traffic.

The rebalancing layer turns a membership change — a shard joining or leaving
the ring, or dead shards leaving the cluster — into a *migration* the cluster
can perform while it keeps serving.  It is the one way keys move between
replica sets: scale-out, scale-in and failure recovery
(:class:`~repro.service.recovery.RecoveryCoordinator`) all stream arcs here.

* :func:`changed_arcs` computes the **exact** set of key-range arcs whose
  preference list changes between two rings.  Preference lists are piecewise
  constant between ring points (see
  :meth:`~repro.service.router.ShardRouter.preference_at`), so segmenting the
  ring at the union of both rings' boundary points and comparing the lists at
  each segment's inclusive end covers the whole key space with no sampling.
* :class:`MigrationState` is the placement overlay installed on
  :attr:`ClusterService.migration` while arcs move.  A **pending** arc still
  routes to its old owners; a **migrating** arc routes every read and write to
  the *union* of old and new owners, old owners first — the double-read window
  that keeps lookups hitting the authoritative copy and the write forwarding
  that keeps the new owners current; a **done** arc routes to its new owners
  only.
* :class:`KeyMigrator` drives the move: it snapshots the old ring, applies the
  membership change, seeds each arc's copy queue by scanning its old owners'
  keys, then streams keys — in key order, so the copy sequence depends on the
  keys alone — in bounded :meth:`~KeyMigrator.step` batches interleaved with
  live traffic.  An arc whose queue drains is **cut over** atomically (one
  state flip) and the copies on owners that left its preference list are
  retired.  A key counts as copied only once at least one *live* new-ring
  replica is confirmed to hold it, so killing the joining shard mid-migration
  at ``replication_factor >= 2`` degrades to hinted handoff instead of data
  loss.  An arc is given up as lost only when every one of its old owners has
  left the cluster, which only a recovery's membership change does: a planned
  scale-out or scale-in keeps the leaving shard instantiated until its last
  arc cuts over, so it stalls instead of losing keys.
* :class:`AutoscalePolicy` layers elasticity on top: driven by per-shard
  operation deltas (the hot-shard signal), read off each shard's always-on
  counters, it starts a scale-out or scale-in migration during a
  :class:`~repro.service.simulator.TrafficSimulator` run, with cooldown and
  one-membership-change-at-a-time discipline.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.core.hashing import KeyLike, ring_position
from repro.service.cluster import ClusterService, imbalance_factor
from repro.service.router import RING_SPACE, HandoffStats, ShardRouter

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
    retired: int = field(default=0, init=False)

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
    """Placement overlay consulted by every cluster operation while arcs move.

    Installed on :attr:`ClusterService.migration` by a :class:`KeyMigrator`
    *after* the ring has been mutated, so ``router`` here is already the new
    ring: keys outside any arc (and keys in done arcs) route normally, while
    pending/migrating arcs override placement per :class:`ArcState`.
    """

    def __init__(
        self,
        arcs: List[MigrationArc],
        router: ShardRouter,
        replication_factor: int,
    ) -> None:
        self.arcs = sorted(arcs, key=lambda arc: arc.end)
        self._ends = [arc.end for arc in self.arcs]
        self._router = router
        self._replication_factor = replication_factor

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
    """Outcome of one completed migration."""

    direction: str
    subject: str
    arcs: int
    moved_fraction: float
    keys_seeded: int
    keys_copied: int
    keys_retired: int
    steps: int
    blocked_retries: int
    duration_ms: float


class KeyMigrator:
    """Streams a membership change's key-range arcs while traffic continues.

    One migration at a time: :meth:`start_add` / :meth:`start_remove` /
    :meth:`start_recovery` snapshot the old ring, apply the membership change,
    seed the arc queues by scanning the old owners and install the
    :class:`MigrationState` overlay.
    :meth:`step` then copies a bounded batch of keys (call it from the traffic
    loop to interleave with requests), cutting arcs over as their queues
    drain; :meth:`run_to_completion` drains everything, raising once
    :data:`STALL_LIMIT` consecutive steps made no progress because no live
    replica was left to copy from or confirm on.

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
        #: Reports of completed migrations, in completion order.
        self.reports: List[MigrationReport] = []
        self._state: Optional[MigrationState] = None
        self._begin("", "", 0.0, 0.0)

    def _begin(self, direction: str, subject: str, moved: float, started_ms: float) -> None:
        """Zero the progress counters (the public ones outlive the migration)."""
        self._direction = direction
        self._subject = subject
        self._moved_fraction = moved
        self._steps = 0
        self._blocked_retries = 0
        self._keys_copied = 0
        self._keys_retired = 0
        self._keys_seeded = 0
        self._started_ms = started_ms
        #: Consecutive steps that confirmed zero keys while some were blocked.
        self.stalled_steps = 0
        #: Copies the migration wrote, per new owner.
        self.keys_gained: Dict[str, int] = {}
        #: Seeded keys the migration found no value for: each old owner that
        #: answered missed it (deleted or evicted since the scan; nothing to
        #: move, so the key also counts as copied).
        self.keys_lost = 0
        #: Share of the key space the migration lost: arcs none of whose old
        #: owners is left in the cluster to scan.
        self.lost_fraction = 0.0

    @property
    def active(self) -> bool:
        """Whether this migrator currently owns an in-flight migration."""
        return self._state is not None and self.cluster.migration is self._state

    def _require_active(self) -> MigrationState:
        if not self.active:
            raise ConfigurationError("no key migration in flight")
        return self._state

    def _snapshot_router(self) -> ShardRouter:
        """Preconditions plus an independent copy of the current (old) ring."""
        if self.cluster.migration is not None:
            raise ConfigurationError("a key migration is already in flight")
        router = self.cluster.router
        return ShardRouter(router.shard_ids, virtual_nodes=router.virtual_nodes)

    # -- Starting a migration -----------------------------------------------------------

    def start_add(self, shard_id: Optional[str] = None) -> str:
        """Provision a shard and start streaming its arcs to it online.

        Returns the joining shard's id (auto-named when not given).
        """
        old_router = self._snapshot_router()
        handoff = self.cluster.add_shard(shard_id)
        subject = handoff.added[0]
        self._install("scale-out", subject, old_router, handoff.moved_fraction)
        return subject

    def start_remove(self, shard_id: str) -> str:
        """Take a shard off the ring and start draining its data online.

        The leaving shard stays instantiated — and keeps serving as an old
        owner through the double-read window — until the last of its arcs
        cuts over, at which point it is decommissioned.
        """
        old_router = self._snapshot_router()
        router = self.cluster.router
        if shard_id not in router:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        if len(router) - 1 < self.cluster.replication_factor:
            raise ConfigurationError(
                f"removing {shard_id!r} would leave fewer shards than "
                f"replication_factor={self.cluster.replication_factor}"
            )
        handoff = router.remove_shard(shard_id)
        self._install("scale-in", shard_id, old_router, handoff.moved_fraction)
        return shard_id

    def start_recovery(self, shard_ids: Sequence[str]) -> List[HandoffStats]:
        """Take dead shards out of the cluster and start re-replicating their arcs.

        One membership change: every shard leaves the ring and
        ``cluster.shards`` (:meth:`ClusterService.remove_shard`) before any
        key moves, so each changed arc is streamed from its surviving old
        owners, and a key none of them is left to answer for is lost.
        Returns each removal's handoff.
        """
        old_router = self._snapshot_router()
        handoffs = [self.cluster.remove_shard(shard_id) for shard_id in shard_ids]
        moved = sum(handoff.moved_fraction for handoff in handoffs)
        self._install("recovery", ",".join(shard_ids), old_router, moved)
        return handoffs

    def _install(
        self,
        direction: str,
        subject: str,
        old_router: ShardRouter,
        moved_fraction: float,
    ) -> None:
        cluster = self.cluster
        arcs = changed_arcs(old_router, cluster.router, cluster.replication_factor)
        state = self._state = MigrationState(arcs, cluster.router, cluster.replication_factor)
        self._begin(direction, subject, moved_fraction, cluster.clock.now_ms)
        for arc in arcs:
            if cluster.shards.keys().isdisjoint(arc.old_replicas):
                arc.seeded = True  # no old owner is left to scan: nothing will arrive
                self.lost_fraction += arc.fraction
        self._scan(state)
        cluster.migration = state
        cluster.events.record(
            "migration_started",
            direction=direction,
            shard=subject,
            arcs=len(arcs),
            keys=self._keys_seeded,
            moved_fraction=moved_fraction,
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
            keys = cluster._shard_op(shard_id, "live_keys") if cluster.is_live(shard_id) else None
            if keys is None:
                continue
            owned = {arc for arc in state.arcs if shard_id in arc.old_replicas}
            for arc in owned:
                arc.seeded = True
            for key in keys:
                arc = state.arc_for_hash(ring_position(key))
                if arc in owned and arc.state is not ArcState.DONE and key not in arc.keys:
                    arc.keys.add(key)
                    arc.pending.add(key)
                    self._keys_seeded += 1

    # -- Driving the migration ----------------------------------------------------------

    def step(self, budget: Optional[int] = None) -> int:
        """Attempt up to ``budget`` key copies; returns the keys confirmed.

        Each migrating arc's queue is drained smallest key first.  Keys whose
        copy cannot be confirmed (no reachable old replica, or no live
        new-ring replica to hold the value) stay queued for the next step
        rather than dropped; an arc cuts over the moment its queue drains;
        the migration completes — and on scale-in decommissions the leaving
        shard — once every arc is done.  An arc no old owner's key scan has
        answered for yet counts as blocked.
        """
        state = self._require_active()
        budget = self.batch_size if budget is None else budget
        if budget <= 0:
            raise ConfigurationError("budget must be positive")
        self._steps += 1
        self._scan(state)
        self._promote_arcs(state)
        attempts = 0
        copied = 0
        blocked = sum(1 for arc in state.arcs if not arc.seeded)
        for arc in state.arcs:
            if arc.state is not ArcState.MIGRATING:
                continue
            for key in heapq.nsmallest(budget - attempts, arc.pending):
                attempts += 1
                if self._copy_key(arc, key):
                    arc.pending.discard(key)
                    arc.copied += 1
                    copied += 1
                else:
                    blocked += 1
            if not arc.pending:
                self._cut_over(arc)
            if attempts >= budget:
                break
        self._keys_copied += copied
        self._blocked_retries += blocked
        if copied == 0 and blocked > 0:
            self.stalled_steps += 1
        elif copied > 0:
            self.stalled_steps = 0
        self._promote_arcs(state)
        if all(arc.state is ArcState.DONE for arc in state.arcs):
            self._complete()
        return copied

    def run_to_completion(self, budget: Optional[int] = None) -> MigrationReport:
        """Step until the migration completes; raise if it stalls."""
        self._require_active()
        while self.cluster.migration is not None:
            self.step(budget)
            if self.stalled_steps >= STALL_LIMIT:
                raise ShardUnavailableError(
                    f"migration of {self._subject!r} stalled: {self.stalled_steps} "
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

    def _copy_key(self, arc: MigrationArc, key: bytes) -> bool:
        """Copy one key to the arc's new owners; True once its copy is safe.

        Reads old-first (the authoritative side), writes every new owner not
        already holding the key, and falls back to confirming — and repairing
        if needed — a surviving old owner that stays in the new preference
        list.  Unreachable new owners get hinted-handoff entries, so a joining
        shard killed mid-migration catches up on heal instead of losing keys.
        """
        cluster = self.cluster
        answered, value = cluster._first_live_copy(key, arc.old_replicas)
        if not answered:
            return False
        if value is None:
            # Deleted while queued (or never fully replicated): nothing to move.
            arc.keys.discard(key)
            self.keys_lost += 1
            return True
        placed = False
        for target in arc.new_replicas:
            if target in arc.old_replicas:
                continue
            if (
                cluster.is_live(target)
                and cluster._shard_op(target, "insert", key, value) is not None
            ):
                placed = True
                self.keys_gained[target] = self.keys_gained.get(target, 0) + 1
            else:
                cluster._record_hint(target, key)
        if not placed:
            # Every genuinely-new owner is unreachable.  The key is still safe
            # if a surviving old owner remains in the new preference list (the
            # prefix-stability guarantee at replication_factor >= 2): verify —
            # and repair — that copy before counting the key as confirmed.
            for survivor in arc.new_replicas:
                if survivor not in arc.old_replicas or not cluster.is_live(survivor):
                    continue
                result = cluster._shard_op(survivor, "lookup", key)
                if result is None:
                    continue
                if result.found:
                    placed = True
                    break
                if cluster._read_repair(survivor, key, value):
                    placed = True
                    break
        return placed

    def _cut_over(self, arc: MigrationArc) -> None:
        """Atomically retire one drained arc.

        The state flip is the atomic step: from the next operation on, keys in
        the arc route to the new owners only.  Copies on owners that left the
        preference list are then deleted (a scale-in's leaving shard is
        skipped — it is decommissioned wholesale at completion).
        """
        cluster = self.cluster
        arc.state = ArcState.DONE
        retiring = tuple(
            shard_id
            for shard_id in arc.old_replicas
            if shard_id not in arc.new_replicas and shard_id != self._subject
        )
        for key in sorted(arc.keys):
            for shard_id in retiring:
                if not cluster.is_live(shard_id):
                    continue
                if cluster._shard_op(shard_id, "delete", key) is not None:
                    arc.retired += 1
        self._keys_retired += arc.retired
        cluster.events.record(
            "arc_cut_over",
            shard=self._subject,
            arc_start=f"{arc.start:016x}",
            arc_end=f"{arc.end:016x}",
            keys=len(arc.keys),
            copied=arc.copied,
            retired=arc.retired,
        )

    def _complete(self) -> MigrationReport:
        cluster = self.cluster
        state = self._state
        report = MigrationReport(
            direction=self._direction,
            subject=self._subject,
            arcs=len(state.arcs),
            moved_fraction=self._moved_fraction,
            keys_seeded=self._keys_seeded,
            keys_copied=self._keys_copied,
            keys_retired=self._keys_retired,
            steps=self._steps,
            blocked_retries=self._blocked_retries,
            duration_ms=cluster.clock.now_ms - self._started_ms,
        )
        cluster.migration = None
        self._state = None
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
        return report

    def abort(self) -> None:
        """Undo an in-flight migration that has not cut any arc over yet.

        Scrubs the copies already streamed to the new owners (so an aborted
        scale-out cannot resurrect deleted keys later), restores the old ring
        and, for a scale-out, decommissions the half-joined shard.  Once an
        arc has cut over its old copies are gone — the migration can only be
        drained forward from there.  A recovery is never undone: its shards
        have already left the cluster.
        """
        state = self._require_active()
        if self._direction == "recovery":
            raise ConfigurationError("cannot abort a recovery; drain it with run_to_completion")
        if any(arc.state is ArcState.DONE for arc in state.arcs):
            raise ConfigurationError(
                "cannot abort: an arc already cut over (its old copies are "
                "retired); drain the migration with run_to_completion instead"
            )
        cluster = self.cluster
        scrubbed = 0
        for arc in state.arcs:
            for key in sorted(arc.keys):
                for target in arc.new_replicas:
                    if target in arc.old_replicas or not cluster.is_live(target):
                        continue
                    if cluster._shard_op(target, "delete", key) is not None:
                        scrubbed += 1
        cluster.migration = None
        self._state = None
        if self._direction == "scale-out":
            cluster.remove_shard(self._subject)
        else:
            cluster.router.add_shard(self._subject)
        cluster.events.record(
            "migration_aborted",
            direction=self._direction,
            shard=self._subject,
            keys_scrubbed=scrubbed,
        )


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
    migrations through a :class:`KeyMigrator`.  The counters are always on, so
    the policy acts the same with telemetry on or off.
    """

    def __init__(
        self,
        cluster: ClusterService,
        migrator: KeyMigrator,
        config: Optional[AutoscaleConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.migrator = migrator
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
        if not live_loads:
            return None
        mean = sum(live_loads.values()) / len(live_loads)
        if mean <= 0:
            return None
        hot = sorted(
            shard_id
            for shard_id, load in live_loads.items()
            if load > config.hot_shard_threshold * mean
        )
        num_shards = len(self.cluster.router)
        decision: Optional[AutoscaleDecision] = None
        if hot and num_shards < config.max_shards:
            subject = self.migrator.start_add()
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
                self.migrator.start_remove(victim)
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
