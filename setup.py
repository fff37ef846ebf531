"""Packaging for the BufferHash/CLAM reproduction.

The package lives under ``src/`` (``package_dir`` below), so after
``pip install -e .`` the ``repro`` package imports without any manual
``PYTHONPATH=src``.  The environment this repo is developed in has no network
access and no ``wheel`` distribution, so PEP 660 editable installs (which
build a wheel) can fail; the classic ``python setup.py develop`` falls back
to the setuptools develop path.

The library itself is dependency-free (pure standard library); ``pytest`` and
``pytest-benchmark`` are only needed for the test suite and the benchmarks
(``pip install -e .[dev]``).

The version is declared once, as ``repro.__version__``; it is read from the
source here rather than imported, so packaging never imports the package.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-bufferhash",
    version=VERSION,
    description=(
        "Reproduction of 'Cheap and Large CAMs for High Performance "
        "Data-Intensive Networked Systems' (BufferHash/CLAM, NSDI 2010) "
        "with a sharded, replicated, failure-tolerant service layer, a "
        "multi-branch WAN-optimizer deployment, traffic simulator and a "
        "unified telemetry plane (metrics, tracing, event log)"
    ),
    long_description=__doc__,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.telemetry": ["telemetry_schema.json"]},
    python_requires=">=3.10",  # int.bit_count in the Bloom filter hot path
    install_requires=[],
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis", "numpy"],
        # Optional accelerator for the Rabin chunker's tiled scan; the package
        # works without it (the per-byte reference loop is pure stdlib).
        "fast": ["numpy"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
        "Topic :: System :: Filesystems",
        "Intended Audience :: Science/Research",
    ],
)
