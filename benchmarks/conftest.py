"""Benchmark fixtures and helpers.

The benchmarks depend only on pytest-benchmark; a fallback no-op ``benchmark``
fixture is provided so the modules can also be imported and their ``report()``
helpers called directly (``python -m benchmarks.bench_service``) without
pytest-benchmark installed.
"""

import pytest


@pytest.fixture
def seeded():
    """A deterministic RNG seed shared across benchmarks."""
    return 20240617
