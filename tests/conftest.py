"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes that tracemalloc sees allocated while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
