"""Deterministic, seed-replayable fault schedules.

A :class:`ChaosSchedule` answers one question — *does this operation
fail, and how?* — for every instrumented site in the stack.  Three
target planes exist:

========== ==========================================================
plane      instrumented sites
========== ==========================================================
``disk``   every filesystem operation the service state goes through
           (:class:`repro.chaos.filesystem.FaultyFilesystem` threaded
           under the artifact cache and job ledger)
``worker`` job-execution attempts (the server's forked workers and the
           :mod:`repro.service.pool` worker processes), decided where
           each attempt is dispatched
``connection``  HTTP responses and individual SSE frames on the
           server front end
========== ==========================================================

Determinism
-----------

The decision for an operation depends only on ``(seed, plane, site,
op, n)`` where ``n`` counts prior decisions for that exact ``(plane,
site, op)`` triple — **never** on wall-clock time or global operation
order.  Sites are stable identities (a cache file's content-key name,
a job's content key, an HTTP route), so two campaign runs with the
same seed and the same serial workload make byte-identical fault
decisions, which is what lets ``repro-chaos run --seed S`` reproduce a
failure exactly.  The uniform draw is a keyed BLAKE2b hash, not a
shared PRNG stream, so concurrent planes cannot perturb each other.

Every injected fault is recorded in :attr:`ChaosSchedule.injections`
and surfaced to :mod:`repro.observe`: a ``chaos.<plane>.<fault>``
metric fires, and the innermost open span gains/increments a
``chaos_faults`` attribute so traces show exactly which jobs were hit.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from repro import observe
from repro.errors import ServiceError

PLANES = ("disk", "worker", "connection")

#: Fault kinds each plane understands.
FAULTS = {
    "disk": ("torn_write", "enospc", "eio_read", "eio_write", "fsync_loss"),
    "worker": ("kill", "hang", "slow_start"),
    "connection": ("reset", "stall"),
}


@dataclass(frozen=True)
class ChaosRule:
    """Inject ``fault`` on the ``plane`` with probability ``rate``.

    ``match`` restricts the rule to sites containing the substring
    (empty = every site on the plane).
    """

    plane: str
    fault: str
    rate: float
    match: str = ""

    def __post_init__(self) -> None:
        if self.plane not in PLANES:
            raise ServiceError(
                f"unknown chaos plane {self.plane!r}; choose from {PLANES}"
            )
        if self.fault not in FAULTS[self.plane]:
            raise ServiceError(
                f"unknown {self.plane} fault {self.fault!r}; choose from "
                f"{FAULTS[self.plane]}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ServiceError(f"chaos rate must be in [0, 1], got {self.rate}")

    def describe(self) -> str:
        suffix = f":{self.match}" if self.match else ""
        return f"{self.plane}:{self.fault}:{self.rate:g}{suffix}"


def parse_rule(text: str) -> ChaosRule:
    """Parse ``PLANE:FAULT:RATE[:MATCH]`` (the ``--fault`` CLI form)."""
    parts = text.split(":", 3)
    if len(parts) < 3:
        raise ServiceError(
            f"malformed chaos rule {text!r} (want PLANE:FAULT:RATE[:MATCH])"
        )
    plane, fault, rate_text = parts[0], parts[1], parts[2]
    try:
        rate = float(rate_text)
    except ValueError as exc:
        raise ServiceError(f"bad chaos rate in {text!r}") from exc
    return ChaosRule(
        plane=plane, fault=fault, rate=rate,
        match=parts[3] if len(parts) == 4 else "",
    )


@dataclass(frozen=True)
class Injection:
    """One fault the schedule decided to inject."""

    plane: str
    fault: str
    site: str
    op: str
    sequence: int  # the per-(plane, site, op) decision counter

    def describe(self) -> str:
        return f"{self.plane}:{self.fault} at {self.site}/{self.op}#{self.sequence}"


class ChaosSchedule:
    """Seeded fault decisions plus the knobs shaping each fault.

    Thread-safe: the per-site counters are the only mutable state and
    sit behind one lock; decisions themselves are pure hashes.
    """

    def __init__(
        self,
        seed: int,
        rules: list[ChaosRule] | tuple[ChaosRule, ...] = (),
        *,
        torn_fraction: float = 0.5,
        hang_seconds: float = 2.0,
        slow_start_seconds: float = 0.05,
        stall_seconds: float = 0.2,
    ) -> None:
        self.seed = seed
        self.rules = tuple(rules)
        self.torn_fraction = torn_fraction
        self.hang_seconds = hang_seconds
        self.slow_start_seconds = slow_start_seconds
        self.stall_seconds = stall_seconds
        self.injections: list[Injection] = []
        self._counters: dict[tuple[str, str, str], int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _uniform(self, plane: str, site: str, op: str, n: int, fault: str) -> float:
        token = f"{self.seed}|{plane}|{site}|{op}|{n}|{fault}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def decide(self, plane: str, site: str, op: str) -> str | None:
        """The fault to inject at this operation, or ``None``.

        ``site`` must be a *stable* identity (content key, file name,
        route) so replays with the same seed see the same decisions.
        """
        rules = [
            rule for rule in self.rules
            if rule.plane == plane and rule.match in site
        ]
        if not rules:
            return None
        with self._lock:
            counter_key = (plane, site, op)
            n = self._counters.get(counter_key, 0)
            self._counters[counter_key] = n + 1
        for rule in rules:
            if self._uniform(plane, site, op, n, rule.fault) < rule.rate:
                injection = Injection(plane, rule.fault, site, op, n)
                with self._lock:
                    self.injections.append(injection)
                self._observe(injection)
                return rule.fault
        return None

    @staticmethod
    def _observe(injection: Injection) -> None:
        """Report the injection to the tracing layer (no-op uninstalled)."""
        observe.metric(f"chaos.{injection.plane}.{injection.fault}", 1)
        span = observe.current_span()
        if span is not None:
            span.attrs["chaos_faults"] = span.attrs.get("chaos_faults", 0) + 1

    # ------------------------------------------------------------------
    def injected_counts(self) -> dict[str, int]:
        """``{"plane:fault": count}`` over everything injected so far."""
        counts: dict[str, int] = {}
        with self._lock:
            for injection in self.injections:
                label = f"{injection.plane}:{injection.fault}"
                counts[label] = counts.get(label, 0) + 1
        return counts

    def active_planes(self) -> tuple[str, ...]:
        return tuple(sorted({rule.plane for rule in self.rules if rule.rate > 0}))

    def describe(self) -> str:
        return (
            f"seed {self.seed}: "
            + (", ".join(rule.describe() for rule in self.rules) or "no rules")
        )
