"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging
import random

import pytest


class _ErrorRecords(logging.Handler):
    """Collects the ERROR records a logger emits."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    """Fail any test during which the ``asyncio`` logger records an ERROR.

    asyncio logs, instead of raising, a task whose exception nobody
    retrieved and a callback that failed; without this check such a
    failure passes silently while its client hangs.
    """
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail("asyncio logged %d error(s):\n%s" % (
            len(handler.records),
            "\n".join(handler.format(record) for record in handler.records)))


@pytest.fixture
def rng():
    """A deterministic random generator for tests that need raw randomness."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_keys(rng):
    """A small set of distinct random keys."""
    return rng.sample(range(10_000), 200)


@pytest.fixture
def medium_keys(rng):
    """A medium-sized set of distinct random keys."""
    return rng.sample(range(1_000_000), 2_000)
