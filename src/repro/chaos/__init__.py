"""Deterministic fault injection across the service stack.

The attack side of the robustness story (docs/robustness.md):

* :mod:`repro.chaos.schedule` — seeded, replayable fault decisions
  over three planes (disk, worker, connection);
* :mod:`repro.chaos.filesystem` — the :class:`FaultyFilesystem` shim
  threaded under the artifact cache and job ledger, plus crash-point
  mode for kill-after-every-write property tests;
* :mod:`repro.chaos.process` — worker kills/hangs for both the
  server's executor threads and the pool's worker processes;
* :mod:`repro.chaos.campaign` — the end-to-end campaign: host a real
  server under a schedule, drive it with the resilient
  :class:`repro.client.ReproClient`, classify every job into the
  shared outcome taxonomy, and gate on zero lost-acknowledged jobs
  and zero silent divergences (``repro-chaos run``).

This ``__init__`` keeps the filesystem/campaign imports lazy so that
:mod:`repro.service.pool` can import the (dependency-free) process
plane without creating an import cycle through the service package.
"""

from repro.chaos.process import (
    WorkerCrash,
    apply_worker_fault,
    install_schedule,
    installed_schedule,
    pool_kill_point,
    uninstall_schedule,
)
from repro.chaos.schedule import (
    FAULTS,
    PLANES,
    ChaosRule,
    ChaosSchedule,
    Injection,
    parse_rule,
)

_LAZY = {
    "FaultyFilesystem": ("repro.chaos.filesystem", "FaultyFilesystem"),
    "SimulatedCrash": ("repro.chaos.filesystem", "SimulatedCrash"),
    "ChaosCampaignConfig": ("repro.chaos.campaign", "ChaosCampaignConfig"),
    "ChaosReport": ("repro.chaos.campaign", "ChaosReport"),
    "run_chaos_campaign": ("repro.chaos.campaign", "run_chaos_campaign"),
    "DEFAULT_RULES": ("repro.chaos.campaign", "DEFAULT_RULES"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "FAULTS",
    "PLANES",
    "ChaosRule",
    "ChaosSchedule",
    "Injection",
    "WorkerCrash",
    "apply_worker_fault",
    "install_schedule",
    "installed_schedule",
    "parse_rule",
    "pool_kill_point",
    "uninstall_schedule",
    *_LAZY,
]
