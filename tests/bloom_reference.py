"""Reference Bloom columns, built from the raw-bytes definition of a key's
positions.

``hashing.double_hashes(key_bytes, h, m)`` hashes the key's own bytes: no
digest, none of the CLAM words that the column writers and the queries walk.
A column built here therefore checks those paths from outside.  Its bytes
are a column's plain bit array, the form ``column_bytes`` returns and a
checkpoint carries: bit ``i`` is bit ``i % 8`` of byte ``i // 8``, padded to
whole 64-bit words.
"""

from repro.core.hashing import double_hashes, key_data


def reference_column(keys, num_hashes, num_bits):
    """The bit array of a filter of ``num_bits`` by ``num_hashes`` holding
    ``keys`` (bytes or digests)."""
    bits = bytearray((num_bits + 63) // 64 * 8)
    for key in keys:
        for position in double_hashes(key_data(key), num_hashes, num_bits):
            bits[position >> 3] |= 1 << (position & 7)
    return bytes(bits)


def reference_holds(bits, key, num_hashes, num_bits):
    """Whether the filter whose bit array is ``bits`` reports ``key``."""
    return all(
        bits[position >> 3] >> (position & 7) & 1
        for position in double_hashes(key_data(key), num_hashes, num_bits)
    )
