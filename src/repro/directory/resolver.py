"""Content-name → host-location resolution service backed by a hash index.

The directory maps content names (hashes of data chunks) to the set of hosts
advertising that content.  Publishes append a host to the name's location
list; withdrawals remove it; resolutions return the current list.  All state
lives in the underlying index (a CLAM or a baseline), so the directory
inherits its performance and eviction behaviour.

Location lists are encoded into the index value as a length-prefixed list of
UTF-8 host identifiers, keeping the index value small (the systems the paper
cites store host addresses or locators, not payloads).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

_COUNT = struct.Struct("<H")
_ENTRY_LEN = struct.Struct("<H")

#: Hosts kept per content name: a publish past it drops the oldest host.
MAX_HOSTS_PER_NAME = 16


def _encode_hosts(hosts: List[str]) -> bytes:
    if len(hosts) > 0xFFFF:
        raise ValueError("too many hosts for one content name")
    parts = [_COUNT.pack(len(hosts))]
    for host in hosts:
        raw = host.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError("host identifier too long")
        parts.append(_ENTRY_LEN.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _decode_hosts(payload: bytes) -> List[str]:
    if not payload:
        return []
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    hosts: List[str] = []
    for _ in range(count):
        (length,) = _ENTRY_LEN.unpack_from(payload, offset)
        offset += _ENTRY_LEN.size
        hosts.append(payload[offset : offset + length].decode("utf-8"))
        offset += length
    return hosts


@dataclass(frozen=True)
class Registration:
    """Outcome of a publish or withdraw operation."""

    name: bytes
    host: str
    hosts_now: int
    latency_ms: float


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of resolving a content name."""

    name: bytes
    hosts: List[str]
    latency_ms: float

    @property
    def found(self) -> bool:
        """Whether any host currently advertises the content."""
        return bool(self.hosts)


class ContentDirectory:
    """Publish / withdraw / resolve API over a pluggable hash index."""

    def __init__(self, index) -> None:
        self.index = index
        self.publishes = 0
        self.withdrawals = 0
        self.resolutions = 0

    def publish(self, name: bytes, host: str) -> Registration:
        """Advertise that ``host`` holds the content named ``name``."""
        self.publishes += 1
        lookup = self.index.lookup(name)
        hosts = _decode_hosts(lookup.value) if lookup.found and lookup.value else []
        latency = lookup.latency_ms
        if host not in hosts:
            hosts.append(host)
            if len(hosts) > MAX_HOSTS_PER_NAME:
                hosts = hosts[-MAX_HOSTS_PER_NAME:]
        insert = self.index.insert(name, _encode_hosts(hosts))
        latency += insert.latency_ms
        return Registration(name=name, host=host, hosts_now=len(hosts), latency_ms=latency)

    def withdraw(self, name: bytes, host: str) -> Registration:
        """Remove ``host`` from the content's location list."""
        self.withdrawals += 1
        lookup = self.index.lookup(name)
        hosts = _decode_hosts(lookup.value) if lookup.found and lookup.value else []
        latency = lookup.latency_ms
        if host in hosts:
            hosts.remove(host)
        insert = self.index.insert(name, _encode_hosts(hosts))
        latency += insert.latency_ms
        return Registration(name=name, host=host, hosts_now=len(hosts), latency_ms=latency)

    def resolve(self, name: bytes) -> ResolutionResult:
        """Return the hosts currently advertising ``name``."""
        self.resolutions += 1
        lookup = self.index.lookup(name)
        hosts = _decode_hosts(lookup.value) if lookup.found and lookup.value else []
        return ResolutionResult(name=name, hosts=hosts, latency_ms=lookup.latency_ms)
