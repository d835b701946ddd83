"""One way to measure a call's memory, shared by every memory bound in the tests."""

import tracemalloc
from typing import NamedTuple


class Traced(NamedTuple):
    result: object
    peak: int      # bytes: the most traced memory live at once during the call
    retained: int  # bytes still traced when the call returned, its result included


def traced_peak(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) under tracemalloc and return a Traced record.

    Only allocations made during the call count; tracing stops even if fn
    raises.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, retained)
