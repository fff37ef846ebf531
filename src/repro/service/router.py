"""Consistent-hash routing of keys onto CLAM shards.

A :class:`ShardRouter` places ``virtual_nodes`` points per shard on a 64-bit
hash ring (the same FNV-1a/fmix64 construction the rest of the library uses,
see :mod:`repro.core.hashing`) and routes each key to the shard owning the
first ring point at or after the key's hash.  Virtual nodes smooth out the
ownership imbalance inherent to a handful of physical shards.

The router only places points and moves no data.  A membership change goes
through :class:`~repro.service.rebalance.KeyMigrator`, whose
:func:`~repro.service.rebalance.changed_arcs` segments the old and new rings
at their :meth:`~ShardRouter.boundary_points` to find *exactly* which key
ranges change hands — and so which fraction of the key space moves.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple

from repro.core.errors import ConfigurationError
from repro.core.hashing import RING_SEED, KeyLike, fnv1a_64, ring_position, to_key_bytes

#: Size of the hash ring (64-bit hash space).
RING_SPACE = 1 << 64


def _ring_point(shard_id: str, vnode: int) -> int:
    return fnv1a_64(to_key_bytes(shard_id) + b"#%d" % vnode, RING_SEED)


class ShardRouter:
    """Deterministic consistent-hash router over named shards.

    Parameters
    ----------
    shard_ids:
        Initial shard names (order-insensitive; routing depends only on the
        set of names and ``virtual_nodes``).
    virtual_nodes:
        Ring points per shard.  More virtual nodes give a more uniform split
        at the cost of a marginally larger ring (routing stays O(log n)).
    """

    def __init__(self, shard_ids: Iterable[str], virtual_nodes: int = 64) -> None:
        if virtual_nodes <= 0:
            raise ConfigurationError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self._owners: Dict[int, str] = {}
        self._points: List[int] = []
        self._shards: List[str] = []
        initial = list(shard_ids)
        if not initial:
            raise ConfigurationError("ShardRouter needs at least one shard")
        if len(set(initial)) != len(initial):
            raise ConfigurationError("shard ids must be unique")
        for shard_id in initial:
            self._place_shard(shard_id)
        self._rebuild_index()

    # -- Ring maintenance ---------------------------------------------------------------

    def _place_shard(self, shard_id: str) -> None:
        self._shards.append(shard_id)
        for vnode in range(self.virtual_nodes):
            point = _ring_point(shard_id, vnode)
            incumbent = self._owners.get(point)
            # Hash collisions between 64-bit ring points are vanishingly rare;
            # break ties deterministically so routing never depends on
            # insertion order.
            if incumbent is None or shard_id < incumbent:
                self._owners[point] = shard_id

    def _rebuild_index(self) -> None:
        self._points = sorted(self._owners)
        #: n -> the preference tuple of every ring point (see
        #: :meth:`_preference_table`).  Every ring mutation ends here, so a
        #: table never outlives the ring it was built from.
        self._preferences: Dict[int, List[Tuple[str, ...]]] = {}

    def _preference_table(self, n: int) -> List[Tuple[str, ...]]:
        """First ``n`` distinct owners at or after each ring point, in ring
        order, then the first point's again (a position past the last point
        wraps to it), so a bisect result indexes the table as it is.

        The chain at a point is its owner followed by the next point's chain
        without that owner, so one walk from the first point seeds the table
        and the rest fills backwards round the ring.
        """
        limit = min(n, len(self._shards))
        owners = [self._owners[point] for point in self._points]
        first: List[str] = []
        for owner in owners:
            if owner not in first:
                first.append(owner)
                if len(first) == limit:
                    break
        table = [tuple(first)] * (len(owners) + 1)
        for index in range(len(owners) - 1, 0, -1):
            owner, successor = owners[index], table[index + 1]
            if successor[0] != owner:
                successor = (owner, *[s for s in successor if s != owner][: limit - 1])
            table[index] = successor
        return table

    def _rebuild_owners(self) -> None:
        self._owners = {}
        shards, self._shards = self._shards, []
        for shard_id in shards:
            self._place_shard(shard_id)
        self._rebuild_index()

    # -- Introspection ------------------------------------------------------------------

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """Current shard names, sorted."""
        return tuple(sorted(self._shards))

    def boundary_points(self) -> Tuple[int, ...]:
        """Sorted ring points.  Routing — and therefore every preference
        list — is constant on each arc between consecutive points, which is
        what lets the rebalancing layer compute *exact* migration arcs by
        segmenting the ring at the union of two rings' boundary points."""
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def ownership_fractions(self) -> Dict[str, float]:
        """Exact fraction of the key space each shard owns (sums to 1)."""
        fractions: Dict[str, float] = {shard_id: 0.0 for shard_id in self._shards}
        previous = self._points[-1]
        for point in self._points:  # arc (previous, point] belongs to point's owner
            length = (point - previous) % RING_SPACE or RING_SPACE
            fractions[self._owners[point]] += length / RING_SPACE
            previous = point
        return fractions

    # -- Routing ------------------------------------------------------------------------

    def route(self, key: KeyLike) -> str:
        """Shard owning ``key``: first ring point at or after the key's hash.

        The ring word is memoised on the key's digest
        (:func:`~repro.core.hashing.ring_position`), so the shard that then
        executes the operation is handed the digest the router already built.
        """
        position = bisect_left(self._points, ring_position(key))
        if position == len(self._points):
            position = 0
        return self._owners[self._points[position]]

    def route_many(self, keys: Iterable[KeyLike]) -> List[str]:
        """Shard owner for each key, in order."""
        return [self.route(key) for key in keys]

    def preference_list(self, key: KeyLike, n: int) -> Tuple[str, ...]:
        """First ``n`` distinct shards on the ring at or after ``key``'s hash.

        The replica placement rule of the service layer: a key with
        replication factor N lives on ``preference_list(key, N)``.  Entry 0 is
        always :meth:`route`'s owner, and the list is a *prefix-stable chain*:
        removing one shard from the ring deletes that shard from the list and
        shifts the next distinct successor in — every other entry keeps its
        position (the property a recovery's exact handoff reasoning,
        :meth:`~repro.service.rebalance.KeyMigrator.recover`, relies on).

        ``n`` is clamped to the number of shards, so a 2-shard ring answers a
        request for 3 replicas with both shards.
        """
        return self.preference_at(ring_position(key), n)

    def preference_at(self, position: int, n: int) -> Tuple[str, ...]:
        """First ``n`` distinct shards on the ring at or after ``position``.

        The ring-position form of :meth:`preference_list` (which hashes a key
        and delegates here).  Because routing is piecewise constant between
        ring points, calling this at an arc's inclusive end point yields the
        preference list shared by *every* key hashing into that arc — the
        exactness the rebalancing layer's migration-arc computation relies
        on (see :func:`repro.service.rebalance.changed_arcs`).  For the same
        reason the answer is a table read: one bisect finds the arc, and the
        arc's tuple was computed when ``n`` was first asked for on this ring.
        """
        table = self._preferences.get(n)
        if table is None:  # first use of this n since the ring last changed
            if n <= 0:
                raise ConfigurationError("preference list size must be positive")
            table = self._preferences[n] = self._preference_table(n)
        return table[bisect_left(self._points, position)]

    # -- Membership changes -------------------------------------------------------------

    def add_shard(self, shard_id: str) -> None:
        """Put a shard's points on the ring."""
        if shard_id in self._shards:
            raise ConfigurationError(f"shard {shard_id!r} already present")
        self._place_shard(shard_id)
        self._rebuild_index()

    def remove_shard(self, shard_id: str) -> None:
        """Take a shard's points off the ring."""
        if shard_id not in self._shards:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        if len(self._shards) == 1:
            raise ConfigurationError("cannot remove the last shard")
        self._shards.remove(shard_id)
        self._rebuild_owners()
