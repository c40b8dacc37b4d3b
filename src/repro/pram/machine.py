"""The simulated CREW-PRAM: step accounting and CREW write checking.

Accounting model
----------------
``pram.step(ops)`` records one synchronous parallel step in which ``ops``
processors each perform O(1) operations: ``time += 1``, ``work += ops``.
``pram.charge(time=t, work=w)`` records a sub-computation with a known
profile (used by the metered primitives: sort charges Cole's
``O(log n)``/``O(n log n)`` [10], merge Shiloach–Vishkin's
``O(log n)``/``O(n)`` [35], scan ``O(log n)``/``O(n)`` [18, 19]).

``pram.parallel(branches)`` models independent sub-machines running
side-by-side — the divide step of every algorithm in §5/§6: the parent's
time advances by the *maximum* child time, its work by the *sum*.

CREW checking
-------------
:class:`SharedArray` traces writes per step when the machine is created
with ``detect_conflicts=True``; two writes to the same cell in one step
raise :class:`ConcurrentWriteError` (even writes of equal values — the CREW
model forbids them, §1).  Reads are never restricted.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from repro.errors import ConcurrentWriteError, PRAMError

T = TypeVar("T")

_LOCAL = threading.local()


def current_pram() -> Optional["PRAM"]:
    """The innermost active machine (None outside any ``pram_scope``)."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def pram_scope(pram: "PRAM"):
    """Make ``pram`` the ambient machine for metered primitives."""
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(pram)
    try:
        yield pram
    finally:
        stack.pop()


class PRAM:
    """A metered CREW-PRAM.

    Attributes
    ----------
    time:
        Parallel time so far (depth of the executed step DAG).
    work:
        Total operation count so far.
    """

    __slots__ = ("name", "time", "work", "detect_conflicts", "step_id", "max_ops")

    def __init__(self, name: str = "pram", detect_conflicts: bool = False) -> None:
        self.name = name
        self.time = 0
        self.work = 0
        self.detect_conflicts = detect_conflicts
        self.step_id = 0
        self.max_ops = 0  # widest single step = processor demand

    # ------------------------------------------------------------------
    def step(self, ops: int) -> None:
        """One synchronous parallel step of ``ops`` unit operations."""
        if ops < 0:
            raise PRAMError("negative op count")
        if ops == 0:
            return
        self.step_id += 1
        self.time += 1
        self.work += ops
        if ops > self.max_ops:
            self.max_ops = ops

    def charge(self, *, time: int = 0, work: int = 0, width: int = 0) -> None:
        """Record a sub-computation with a known (time, work) profile."""
        if time < 0 or work < 0:
            raise PRAMError("negative charge")
        self.step_id += 1
        self.time += time
        self.work += work
        if width > self.max_ops:
            self.max_ops = width

    # ------------------------------------------------------------------
    def parallel(self, branches: Sequence[Callable[["PRAM"], T]]) -> list[T]:
        """Run sub-machines side by side: time += max, work += sum.

        Each branch receives a fresh child machine; this is the recursion
        combinator used by the §5/§6 divide-and-conquer (all recursive calls
        at one tree level run simultaneously on a PRAM).
        """
        children = [self.child(i) for i in range(len(branches))]
        results: list[T] = []
        for child, fn in zip(children, branches):
            with pram_scope(child):
                results.append(fn(child))
        self.join(children)
        return results

    def child(self, i: int) -> "PRAM":
        """A fresh sub-machine for branch ``i`` of a :meth:`parallel` step."""
        return PRAM(f"{self.name}/{i}", self.detect_conflicts)

    def join(self, children: Sequence["PRAM"]) -> None:
        """Fold finished side-by-side sub-machines in: the end of a
        :meth:`parallel` step, also used by executors that run the
        branches elsewhere."""
        self.step_id += 1
        self.time += max((c.time for c in children), default=0)
        self.work += sum(c.work for c in children)
        self.max_ops = max([self.max_ops] + [c.max_ops for c in children])

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[int, int]:
        return (self.time, self.work)

    def since(self, snap: tuple[int, int]) -> tuple[int, int]:
        return (self.time - snap[0], self.work - snap[1])

    def log2ceil(self, n: int) -> int:
        return max(1, math.ceil(math.log2(max(2, n))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PRAM({self.name!r}, time={self.time}, work={self.work})"


class SharedArray:
    """A shared-memory array with optional per-step CREW write tracing."""

    __slots__ = ("pram", "cells", "_writes", "_write_step")

    def __init__(self, pram: PRAM, size_or_values: Any) -> None:
        self.pram = pram
        if isinstance(size_or_values, int):
            self.cells: list[Any] = [None] * size_or_values
        else:
            self.cells = list(size_or_values)
        self._writes: set[int] = set()
        self._write_step = -1

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i: int) -> Any:
        return self.cells[i]  # concurrent reads always allowed (CREW)

    def __setitem__(self, i: int, value: Any) -> None:
        if self.pram.detect_conflicts:
            step = self.pram.step_id
            if step != self._write_step:
                self._write_step = step
                self._writes = set()
            if i in self._writes:
                raise ConcurrentWriteError(
                    f"two processors wrote cell {i} in step {step} "
                    f"of {self.pram.name!r}"
                )
            self._writes.add(i)
        self.cells[i] = value

    def tolist(self) -> list[Any]:
        return list(self.cells)


def ambient() -> PRAM:
    """The current machine, or a throwaway one when metering is off."""
    p = current_pram()
    return p if p is not None else PRAM("unmetered")


def metered(fn: Callable[..., T]) -> Callable[..., T]:
    """Decorator: run ``fn(pram, ...)`` against the ambient machine."""

    def wrapper(*args: Any, **kwargs: Any) -> T:
        return fn(ambient(), *args, **kwargs)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def par_steps_for(items: Iterable[Any]) -> int:
    try:
        return len(items)  # type: ignore[arg-type]
    except TypeError:
        return sum(1 for _ in items)
