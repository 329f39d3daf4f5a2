"""Process-plane faults: killing, hanging, and slowing workers.

Every pooled compression job attempt runs in a worker process of a
:class:`~repro.service.workers.WorkerPool`, the server's or a
:func:`repro.service.run_batch` batch's.  The fault for an
attempt is decided in the process that *dispatches* it
(:func:`dispatch_fault`), so the schedule's per-site counters advance
once per attempt and every injection lands in that process's
:attr:`~repro.chaos.schedule.ChaosSchedule.injections`.  The decision
travels to the worker with the job, and the worker applies it at the
named point (:func:`apply_fault`):

* ``kill`` — a real ``SIGKILL`` to the worker's own pid, either before
  any work (``start``) or with the result computed but unsent
  (``before_result``); the dispatcher's crash path must recover it;
* ``hang`` — sleep ``hang_seconds`` (long enough to trip the job
  timeout, which kills the worker first), then die the same way;
* ``slow_start`` — sleep ``slow_start_seconds`` and carry on.

A dispatcher takes its schedule as a value: ``run_batch(chaos=...)``
or ``ServerConfig.chaos``.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

#: Where in an attempt a worker fault can strike, in attempt order.
WORKER_POINTS = ("start", "before_result")

@dataclass(frozen=True)
class WorkerFault:
    """One decided fault: what a worker does, and where in the attempt."""

    point: str
    kind: str
    seconds: float = 0.0


def dispatch_fault(schedule, site: str) -> WorkerFault | None:
    """Decide the fault for one attempt, in the dispatching process.

    ``site`` should be the job's content key, so decisions are
    deterministic per job, not per pid.  The points are asked in
    attempt order and the first fault wins, exactly as if the worker
    had asked at each point itself.
    """
    if schedule is None:
        return None
    for point in WORKER_POINTS:
        kind = schedule.decide("worker", site, point)
        if kind == "hang":
            return WorkerFault(point, kind, schedule.hang_seconds)
        if kind == "slow_start":
            return WorkerFault(point, kind, schedule.slow_start_seconds)
        if kind is not None:
            return WorkerFault(point, kind)
    return None


def apply_fault(fault: WorkerFault | None, point: str) -> None:
    """Inside the worker: carry out ``fault`` if it strikes at ``point``."""
    if fault is None or fault.point != point:
        return
    if fault.kind == "slow_start":
        time.sleep(fault.seconds)
        return
    if fault.kind == "hang":
        time.sleep(fault.seconds)
    os.kill(os.getpid(), signal.SIGKILL)
