"""Setuptools entry point: the project's only packaging metadata.

Tests, examples and benchmarks run from the checkout with ``PYTHONPATH=src``
(the Makefile and ``scripts/check.sh`` set it); ``pip install -e .`` is
optional.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of the Aethereal on-chip network interface "
                 "(Radulescu et al., DATE 2004)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # 3.10+: the hot-path packet/flit dataclasses use dataclass(slots=True).
    python_requires=">=3.10",
    install_requires=[],
    # The package runs on the standard library.  The graph library among
    # the test extras is the oracle tests/test_graph.py compares
    # repro.network.graph with (skipped when absent).
    extras_require={"test": ["pytest", "hypothesis", "networkx"]},
)
