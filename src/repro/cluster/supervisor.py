"""Worker supervision policy: restart backoff and a crash-loop breaker.

The :class:`Supervisor` is the front-end's book-keeper for worker-slot
failures.  It owns no processes and schedules nothing itself — the
front-end calls it at three points and obeys its answers:

* :meth:`record_crash` when a worker dies (pipe EOF, readiness failure,
  respawn error) — appends to the slot's crash window;
* :meth:`allow_restart` before attempting a respawn — ``False`` once a
  slot has crashed more than ``max_restarts`` times inside ``window_s``
  (the *crash-loop circuit breaker*: a scene that segfaults its worker
  on every load must not burn CPU respawning forever; the slot stays
  down and its scenes fail over to the survivors);
* :meth:`next_backoff` for the pre-respawn sleep — exponential in the
  slot's consecutive-failure count, capped, with multiplicative jitter
  so N slots killed by one event don't respawn in lockstep;
* :meth:`record_restart` when a respawned worker passes readiness —
  resets the consecutive-failure counter (but *not* the crash window:
  a worker that passes readiness and dies again still trips the
  breaker).

Everything is observable through :meth:`stats`, which the cluster
``stats`` verb embeds.  Crash and restart *counts* live in the shared
:class:`~repro.obs.registry.MetricsRegistry` (``repro.supervisor.crashes``
/ ``repro.supervisor.restarts``, labeled by worker slot) — the front-end
passes its registry in, so the ``stats`` verb, the ``health`` verb, and a
``/metrics`` scrape all read the *same* counter instead of three
book-keeping copies that can drift.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class RestartPolicy:
    """Knobs for one cluster's restart behavior."""

    #: crashes tolerated inside ``window_s`` before the breaker opens
    max_restarts: int = 5
    #: sliding crash-window length, seconds
    window_s: float = 30.0
    #: first backoff; doubles per consecutive failure
    backoff_base_s: float = 0.05
    #: backoff ceiling
    backoff_max_s: float = 2.0
    #: multiplicative jitter fraction (sleep is uniform in [b, b*(1+jitter)])
    jitter: float = 0.5

    def as_dict(self) -> dict:
        return {
            "max_restarts": self.max_restarts,
            "window_s": self.window_s,
            "backoff_base_s": self.backoff_base_s,
            "backoff_max_s": self.backoff_max_s,
            "jitter": self.jitter,
        }


class _Slot:
    """Failure history of one worker id (counts live in the registry)."""

    __slots__ = ("crashes", "attempts", "last_crash", "breaker_open")

    def __init__(self) -> None:
        self.crashes: deque = deque()  # monotonic timestamps inside the window
        self.attempts = 0  # consecutive failures since the last good restart
        self.last_crash: Optional[str] = None
        self.breaker_open = False


class Supervisor:
    """Per-worker-slot restart accounting under one :class:`RestartPolicy`."""

    def __init__(
        self,
        policy: Optional[RestartPolicy] = None,
        *,
        seed: int = 0,
        time_fn: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.policy = policy or RestartPolicy()
        self._time = time_fn
        self._rng = random.Random(f"supervisor|{seed}")
        self._slots: Dict[int, _Slot] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_crashes = self.registry.counter(
            "repro.supervisor.crashes",
            "worker-slot crashes (pipe EOF, readiness failure, respawn error)",
            labels=["worker"],
        )
        self._m_restarts = self.registry.counter(
            "repro.supervisor.restarts",
            "worker-slot respawns that passed the readiness gate",
            labels=["worker"],
        )

    def _slot(self, wid: int) -> _Slot:
        if wid not in self._slots:
            self._slots[wid] = _Slot()
        return self._slots[wid]

    def _prune(self, slot: _Slot) -> None:
        horizon = self._time() - self.policy.window_s
        while slot.crashes and slot.crashes[0] < horizon:
            slot.crashes.popleft()

    # -- the front-end's three questions --------------------------------
    def record_crash(self, wid: int, reason: str) -> None:
        slot = self._slot(wid)
        slot.crashes.append(self._time())
        slot.attempts += 1
        slot.last_crash = str(reason).splitlines()[0][:200] if reason else "unknown"
        self._m_crashes.inc(worker=str(wid))

    def allow_restart(self, wid: int) -> bool:
        slot = self._slot(wid)
        if slot.breaker_open:
            return False
        self._prune(slot)
        if len(slot.crashes) > self.policy.max_restarts:
            slot.breaker_open = True
            get_logger("supervisor").event(
                "breaker_open", force=True, worker=wid,
                crashes_in_window=len(slot.crashes),
                window_s=self.policy.window_s,
            )
            return False
        return True

    def next_backoff(self, wid: int) -> float:
        slot = self._slot(wid)
        base = min(
            self.policy.backoff_base_s * (2 ** max(0, slot.attempts - 1)),
            self.policy.backoff_max_s,
        )
        return base * (1.0 + self._rng.random() * self.policy.jitter)

    def record_restart(self, wid: int) -> None:
        slot = self._slot(wid)
        slot.attempts = 0
        self._m_restarts.inc(worker=str(wid))
        get_logger("supervisor").event("restart", worker=wid)

    # -- introspection --------------------------------------------------
    def last_crash(self, wid: int) -> Optional[str]:
        return self._slots[wid].last_crash if wid in self._slots else None

    @property
    def total_restarts(self) -> int:
        return int(self._m_restarts.total())

    @property
    def total_crashes(self) -> int:
        return int(self._m_crashes.total())

    def stats(self) -> dict:
        out: dict = {
            "policy": self.policy.as_dict(),
            "total_restarts": self.total_restarts,
            "total_crashes": self.total_crashes,
            "workers": {},
        }
        for wid in sorted(self._slots):
            slot = self._slots[wid]
            self._prune(slot)
            out["workers"][str(wid)] = {
                "restarts": int(self._m_restarts.value(worker=str(wid))),
                "crashes": int(self._m_crashes.value(worker=str(wid))),
                "crashes_in_window": len(slot.crashes),
                "consecutive_failures": slot.attempts,
                "last_crash": slot.last_crash,
                "breaker_open": slot.breaker_open,
            }
        return out
