"""The repository's pinned end-to-end benchmark (see ``README.md`` here).

Self-contained on purpose: it imports ``repro.*`` and the standard library
only, never ``benchmarks/common.py`` or ``benchmarks/ratchet.py``, so later
changes stay free to edit those without moving this benchmark's numbers.
"""
