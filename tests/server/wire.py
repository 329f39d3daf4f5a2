"""Drive a real server through :class:`~repro.client.ReproClient`."""

from repro.client import ReproClient, RetryPolicy


def wire_client(address, tenant: str = "alpha") -> ReproClient:
    """One attempt per request and per SSE stream, no wait on a 429 and
    no status polling, so the client cannot absorb a server fault."""
    return ReproClient(
        address, tenant, policy=RetryPolicy(max_attempts=1),
        max_throttle_retries=0, sse_attempts=1, poll_attempts=0,
    )


def post_and_wait(client: ReproClient, spec: dict) -> list[dict]:
    """Submit ``spec`` and return its events up to the terminal one.

    The submission carries no idempotency key, so a repeated spec is a
    fresh job (a cache hit), not the first job handed back.
    """
    submitted = client.submit(spec, idempotent=False)
    terminal, events = client.wait(submitted["job_id"])
    assert terminal is not None, events
    return events
