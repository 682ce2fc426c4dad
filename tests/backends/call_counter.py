"""Counting the Python-level calls a serve makes into ``repro``.

``tests/backends/test_hot_path.py`` (the warm serve) and
``tests/backends/test_cold_path.py`` (the cold prepare) share this counter.
``sys.setprofile`` reports a ``call`` event for every frame that starts or
resumes; the counter keeps those whose code lies under the ``repro``
package, by ``file:function``.  Unlike a timing, the count repeats exactly
from one run of the same work to the next, so work that creeps onto a
counted path shows as a count over its ceiling, with the per-function
table naming where it went.  A C function (a builtin, or an
``functools.lru_cache`` hit) opens no frame and is not counted.

It imports nothing from pytest, so a run on an interpreter without pytest
can count with it too.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter

import repro

PACKAGE = os.path.dirname(repro.__file__) + os.sep


class CallCounter:
    """Counts ``call`` profile events whose frame runs code under
    ``repro`` — function entries, plus each resumption of a generator or
    coroutine — by ``file:function``."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                where = os.path.relpath(code.co_filename, PACKAGE)
                self.calls[f"{where}:{code.co_name}"] += 1

    def __enter__(self) -> "CallCounter":
        gc.disable()  # no collection may run a finalizer mid-count
        sys.setprofile(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        sys.setprofile(None)
        gc.enable()

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    def table(self) -> str:
        return "\n".join(
            f"{count:4d}  {where}" for where, count in self.calls.most_common()
        )


def assert_repeats_within(counts: list[CallCounter], ceiling: int) -> None:
    """The two counts of one piece of work are equal, call for call, and
    at most *ceiling*; else the assertion prints the per-function table."""
    first, again = counts
    assert first.calls == again.calls, (
        "the count did not repeat:\n" + first.table() + "\n--\n" + again.table()
    )
    assert first.total <= ceiling, (
        f"{first.total} calls into repro, over the ceiling of {ceiling}:\n"
        + first.table()
    )
