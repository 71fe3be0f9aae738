"""Single-process asyncio load generator for ``repro serve``.

Two persistent HTTP/1.1 connections, one event loop:

* a **closed-loop writer** that POSTs its rows in fixed-size ``/ingest``
  requests, sending the next only after the previous answered;
* an **open-loop reader** that sends a conditional ``GET /release``
  (``If-None-Match`` with the last ETag seen) at a fixed rate.  Requests
  are pipelined on the connection, so a stalled server does not slow the
  schedule; each read is timed from the moment it was due, which charges
  a stall to every read it delays.  ``late`` records how far behind its
  schedule the generator itself sent each read.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Optional

#: Statuses that count as success; anything else is a failed operation.
OK_STATUSES = (200, 202, 304)


class HttpConnection:
    """A minimal HTTP/1.1 client over one asyncio stream pair."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, method: str, path: str, body: bytes = b"",
             headers: Optional[dict] = None) -> None:
        lines = [f"{method} {path} HTTP/1.1", "Host: localhost"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body or method == "POST":
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)

    async def receive(self) -> tuple[int, dict, bytes]:
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await self.reader.readexactly(length) if length else b""
        return status, headers, body

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: Optional[dict] = None) -> tuple[int, dict, bytes]:
        self.send(method, path, body, headers)
        await self.writer.drain()
        return await self.receive()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class LoadResult:
    """Everything one writer + reader session observed."""

    ingest_latencies: list = field(default_factory=list)
    ingest_failed: int = 0
    writer_wall_s: float = 0.0
    rows_sent: int = 0
    read_latencies: list = field(default_factory=list)
    read_late: list = field(default_factory=list)
    read_failed: int = 0
    release_body: bytes = b""
    release_status: int = 0
    metrics_text: str = ""
    #: rows the server held but had not published (pending + buffered),
    #: from ``/healthz`` before the load and after it
    start_unpublished: int = 0
    end_unpublished: int = 0


async def _writer(conn: HttpConnection, batches: list, out: LoadResult) -> None:
    began = time.perf_counter()
    for batch in batches:
        body = json.dumps({"rows": batch}).encode("utf-8")
        start = time.perf_counter()
        try:
            status, _headers, _body = await conn.request("POST", "/ingest", body)
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 0
        if status in OK_STATUSES:
            out.ingest_latencies.append(time.perf_counter() - start)
            out.rows_sent += len(batch)
        else:
            out.ingest_failed += 1
    out.writer_wall_s = time.perf_counter() - began


async def _reader(conn: HttpConnection, rate: float, stop: asyncio.Event,
                  out: LoadResult) -> None:
    due_times: asyncio.Queue = asyncio.Queue()
    etag: list = [None]

    async def send() -> None:
        start = time.perf_counter()
        i = 0
        while not stop.is_set():
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                try:
                    await asyncio.wait_for(stop.wait(), delay)
                    break
                except asyncio.TimeoutError:
                    pass
            out.read_late.append(time.perf_counter() - due)
            headers = {"If-None-Match": etag[0]} if etag[0] else None
            conn.send("GET", "/release", headers=headers)
            await due_times.put(due)
            i += 1
        await due_times.put(None)

    async def receive() -> None:
        while True:
            due = await due_times.get()
            if due is None:
                return
            try:
                status, headers, _body = await conn.receive()
            except (ConnectionError, asyncio.IncompleteReadError):
                status, headers = 0, {}
            if status in OK_STATUSES:
                out.read_latencies.append(time.perf_counter() - due)
                etag[0] = headers.get("etag", etag[0])
            else:
                out.read_failed += 1

    sender = asyncio.create_task(send())
    receiver = asyncio.create_task(receive())
    await asyncio.gather(sender, receiver)


async def _unpublished(conn: HttpConnection) -> int:
    """Rows the server holds unpublished: its pending plus buffered rows."""
    status, _headers, body = await conn.request("GET", "/healthz")
    if status != 200:
        raise RuntimeError(f"GET /healthz answered {status}")
    health = json.loads(body)
    return health["pending"] + health["buffered"]


async def drive(host: str, port: int, batches: list, read_rate: float,
                scrape_metrics: bool = False) -> LoadResult:
    """Run the writer and reader together; then fetch the final release.

    ``/healthz`` is read before and after the load, so the caller can
    check that every row sent is published or still held by the server.
    """
    out = LoadResult()
    write_conn = await HttpConnection.open(host, port)
    read_conn = await HttpConnection.open(host, port)
    stop = asyncio.Event()
    try:
        out.start_unpublished = await _unpublished(write_conn)
        reader = asyncio.create_task(_reader(read_conn, read_rate, stop, out))
        try:
            await _writer(write_conn, batches, out)
        finally:
            stop.set()
            await reader
        out.end_unpublished = await _unpublished(write_conn)
        status, _headers, body = await write_conn.request("GET", "/release")
        out.release_status, out.release_body = status, body
        if scrape_metrics:
            _status, _headers, text = await write_conn.request("GET", "/metrics")
            out.metrics_text = text.decode("utf-8")
    finally:
        await write_conn.close()
        await read_conn.close()
    return out


def parse_span_totals(metrics_text: str) -> dict[str, tuple[float, int]]:
    """``name → (total seconds, count)`` from the ``/metrics`` span series."""
    totals: dict[str, list] = {}
    for line in metrics_text.splitlines():
        for prefix, slot in (("repro_span_seconds_total", 0), ("repro_span_count", 1)):
            if line.startswith(prefix + '{name="'):
                name = line[len(prefix) + 7:].split('"', 1)[0]
                value = float(line.rsplit(" ", 1)[1])
                totals.setdefault(name, [0.0, 0])[slot] = value
    return {name: (total, int(count)) for name, (total, count) in totals.items()}
