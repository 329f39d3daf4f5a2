"""Drive a real server through :class:`~repro.client.ReproClient`."""

from repro.client import ReproClient, RetryPolicy


def wire_client(address, tenant: str = "alpha") -> ReproClient:
    """One attempt per request and per SSE stream, and no status polling,
    so the client cannot absorb a server fault."""
    return ReproClient(
        address, tenant, policy=RetryPolicy(max_attempts=1),
        sse_attempts=1, poll_attempts=0,
    )


def post_and_wait(client: ReproClient, spec: dict) -> list[dict]:
    """POST ``spec`` and return its events up to the terminal one.

    The POST carries no idempotency key, so a repeated spec is a fresh
    job (a cache hit), where ``submit`` would hand back the first job.
    """
    status, _, submitted = client._request("POST", "/v1/jobs", body=spec)
    assert status == 202, (status, submitted)
    terminal, events = client.wait(submitted["job_id"])
    assert terminal is not None, events
    return events
