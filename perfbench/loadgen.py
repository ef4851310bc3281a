"""Open-loop HTTP load over two persistent keep-alive connections.

One process, two threads, each owning one HTTP/1.1 connection the way
a pooled client does.  Request ``i`` of a step is due at
``t0 + i / rate``; whichever thread is free takes the next due request,
so a stalled connection makes later requests late, and latency is
timed from the due time.  Connections are never reopened per request:
that would hide a keep-alive stall.  A connection is only replaced
after an error, which counts as a failed request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import quote

from stats import Request

THREADS = 2
TIMEOUT_S = 5.0


class Client:
    """One persistent connection; replaced only after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)

    def get(self, path: str, headers: dict | None = None) -> tuple[int | None, bytes]:
        try:
            self.conn.request("GET", path, headers=headers or {})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.reopen()
            return None, b""

    def reopen(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)

    def close(self) -> None:
        self.conn.close()


def query_path(class_name: str, query, k: int) -> str:
    return f"/query?class={quote(class_name)}&query={quote(str(query))}&k={k}"


def correct(status: int | None, body: bytes, want) -> bool:
    if status != 200:
        return False
    try:
        return json.loads(body)["results"] == want
    except (ValueError, KeyError):
        return False


def run_schedule(
    clients: list[Client],
    keys: list[tuple],
    expected: dict,
    rate: float | None,
    tag: str,
    sent_log: dict | None = None,
    fresh: bool = False,
) -> list[Request]:
    """Send ``keys`` at ``rate`` per second (``None``: as fast as possible).

    Returns one :class:`Request` per key, in schedule order.  With
    ``sent_log`` each request's client-side ``(sent, done)`` is stored
    under its request id ``"{tag}-{i}"``, the id the server's spans carry.
    With ``fresh`` every request gets a new connection: only for the
    untimed warm-up, where the keep-alive stall would just cost time.
    """
    records: list[Request | None] = [None] * len(keys)
    lock = threading.Lock()
    cursor = iter(range(len(keys)))
    t0 = time.perf_counter() + 0.05

    def worker(client: Client) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = t0 + i / rate if rate else time.perf_counter()
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            class_name, query, k = keys[i]
            rid = f"{tag}-{i}"
            sent = time.perf_counter()
            status, body = client.get(query_path(class_name, query, k), {"X-Request-Id": rid})
            done = time.perf_counter()
            if fresh:
                client.reopen()
            ok = correct(status, body, expected[keys[i]])
            records[i] = Request(due=due, sent=sent, done=done, ok=ok)
            if sent_log is not None:
                sent_log[rid] = (sent, done)

    threads = [
        threading.Thread(target=worker, args=(client,), name=f"loadgen-{n}")
        for n, client in enumerate(clients[:THREADS])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in records if r is not None]
