"""The simulation server: asyncio HTTP/JSON front over the runner.

Endpoints (all bodies and responses are JSON; responses use the
byte-stable :func:`repro.sim.results.wire_bytes` encoding):

* ``POST /run`` — one simulation. Cache hit → answered immediately from
  ``.repro_cache/`` / the in-process memo without touching the worker
  pool; miss → computed on the warm pool, persisted through the normal
  schema-2 envelope path, and returned. Duplicate concurrent requests
  for the same content-addressed key coalesce onto one computation via
  the process-wide :func:`repro.sim.inflight.global_inflight` registry.
  With ``"stream": true`` the response is NDJSON chunks: a provenance
  row, one row per observation interval, then the final result row.
* ``POST /matrix`` — a run matrix, executed by
  :func:`repro.sim.parallel.run_matrix` borrowing the server's warm
  pool, so it inherits the supervised retry/timeout machinery; each
  completed cell is stored in the disk cache as it arrives.
* ``GET /result/<key>`` — raw read-through lookup of a stored result
  payload by content key.
* ``GET /status`` — counters, in-flight snapshot, pool and cache state.
* ``GET /healthz`` — liveness.

Every response carries *provenance*: the cache schema version, the
content-addressed key, and whether the result was served from cache,
computed here, or coalesced onto an in-flight computation.

The invariant the tests pin down: a served result is **byte-identical**
to the same config run through the CLI — the server reuses the exact
runner path (``run_cached`` → ``run_trace`` with the derived machine
seed) and the canonical wire encoding, and never mutates results.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Optional, Set

import repro.obs.harness as obs_harness
import repro.sim.diskcache as diskcache
from repro.obs.events import (
    EV_SERVE_COALESCE,
    EV_SERVE_COMPUTE,
    EV_SERVE_DRAIN,
    EV_SERVE_HIT,
    EV_SERVE_REQUEST,
    EV_SERVE_STREAM,
)
from repro.obs.export import ndjson_line, stream_timeline_rows
from repro.obs.telemetry import Telemetry
from repro.serve.pool import ServePool
from repro.serve.protocol import (
    ProtocolError,
    parse_matrix_body,
    parse_run_body,
    run_key,
)
from repro.sim.inflight import global_inflight
from repro.sim.parallel import run_matrix
from repro.sim.results import wire_bytes
from repro.sim.runner import cached_result, prime_run_cache

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class ReproServer:
    """One server instance: sockets, counters, pool, request handlers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        pool: Optional[ServePool] = None,
    ):
        self.host = host
        self.port = port
        self.pool = pool if pool is not None else ServePool(workers)
        self.counters = {
            "requests": 0,
            "hits": 0,
            "computed": 0,
            "coalesced": 0,
            "streams": 0,
            "matrix_cells": 0,
            "errors": 0,
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: Set[asyncio.Task] = set()
        self._started = time.monotonic()
        self._draining = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting connections; with ``drain`` (the default) wait
        for in-flight request handlers to finish before tearing down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        current = asyncio.current_task()
        pending = [
            task for task in self._handlers
            if task is not current and not task.done()
        ]
        if pending:
            obs_harness.record(EV_SERVE_DRAIN, len(pending))
            if drain:
                await asyncio.gather(*pending, return_exceptions=True)
            else:
                for task in pending:
                    task.cancel()
        self.pool.close()

    # ------------------------------------------------------------------ #
    # HTTP layer
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # Client went away; nothing to answer.
        except Exception as exc:
            self.counters["errors"] += 1
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except ConnectionError:
                pass
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, reader, writer) -> None:
        request_line = await reader.readline()
        if not request_line:
            return
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": "malformed request"})
            return
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        raw = await reader.readexactly(length) if length else b""

        self.counters["requests"] += 1
        obs_harness.record(EV_SERVE_REQUEST, method, path)

        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, {"ok": True})
        elif method == "GET" and path == "/status":
            await self._respond(writer, 200, self._status())
        elif method == "GET" and path.startswith("/result/"):
            await self._get_result(writer, path[len("/result/"):])
        elif method == "POST" and path == "/run":
            await self._post_run(writer, raw)
        elif method == "POST" and path == "/matrix":
            await self._post_matrix(writer, raw)
        else:
            status = 404 if method in ("GET", "POST") else 405
            await self._respond(
                writer, status, {"error": f"no route {method} {path}"}
            )

    async def _respond(
        self, writer, status: int, body, content_type: str = _JSON
    ) -> None:
        payload = body if isinstance(body, bytes) else wire_bytes(body)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _status(self) -> dict:
        cache = {"enabled": diskcache.is_enabled()}
        if diskcache.is_enabled():
            cache.update(diskcache.stats())
        return {
            "ok": True,
            "draining": self._draining,
            "uptime_s": time.monotonic() - self._started,
            "counters": dict(self.counters),
            "inflight": global_inflight().snapshot(),
            "pool": self.pool.describe(),
            "cache": cache,
        }

    async def _get_result(self, writer, key: str) -> None:
        payload = diskcache.load_payload(key)
        if payload is None:
            await self._respond(
                writer, 404, {"error": f"no stored result for key {key}"}
            )
            return
        await self._respond(writer, 200, wire_bytes(payload))

    def _parse(self, raw: bytes, parser):
        try:
            body = json.loads(raw.decode()) if raw else {}
        except ValueError:
            raise ProtocolError("body is not valid JSON")
        return parser(body)

    async def _post_run(self, writer, raw: bytes) -> None:
        try:
            request, spec, stream = self._parse(raw, parse_run_body)
        except ProtocolError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        key = run_key(request, spec)
        provenance = {
            "schema": diskcache.CACHE_SCHEMA_VERSION,
            "key": key,
            "workload": request.workload,
            "config_name": request.config.name,
            "budget": request.budget,
            "seed": request.seed,
            "cached": False,
            "coalesced": False,
        }

        payload = None
        result = None
        if spec is None:
            # Read-through fast path: a warm hit never touches the pool.
            result = cached_result(
                request.workload, request.config, request.budget,
                request.seed,
            )
        if result is not None:
            provenance["cached"] = True
            self.counters["hits"] += 1
            obs_harness.record(EV_SERVE_HIT, key)
        else:
            registry = global_inflight()
            is_leader, future = registry.lead_or_follow(key)
            if is_leader:
                self.counters["computed"] += 1
                obs_harness.record(EV_SERVE_COMPUTE, key)
                try:
                    outcome = await asyncio.wrap_future(
                        self.pool.submit(request, spec)
                    )
                except BaseException as exc:
                    registry.fail(key, exc)
                    raise
                result, payload = outcome
                prime_run_cache(
                    request.workload, request.config, request.budget,
                    request.seed, result,
                )
                # Plain keys may have run_matrix followers, which expect a
                # bare SimResult; observed keys only ever coalesce with
                # identical observed requests, so they carry the payload.
                registry.resolve(
                    key, result if spec is None else outcome
                )
            else:
                provenance["coalesced"] = True
                self.counters["coalesced"] += 1
                obs_harness.record(EV_SERVE_COALESCE, key)
                value = await asyncio.wrap_future(future)
                if spec is None:
                    result = value
                else:
                    result, payload = value

        if stream:
            await self._stream_run(writer, provenance, result, payload, key)
        else:
            await self._respond(
                writer, 200,
                {"provenance": provenance, "result": result.to_dict()},
            )

    async def _stream_run(
        self, writer, provenance, result, payload, key
    ) -> None:
        """NDJSON chunked response: provenance, interval rows, result."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {_NDJSON}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))

        async def chunk(data: bytes) -> None:
            writer.write(f"{len(data):x}\r\n".encode("latin-1"))
            writer.write(data + b"\r\n")
            await writer.drain()

        rows = 0
        await chunk(ndjson_line({"kind": "provenance", **provenance}))
        if payload is not None:
            telemetry = Telemetry.from_payload(payload)
            if telemetry.timeline is not None:
                for row in stream_timeline_rows(telemetry.timeline):
                    rows += 1
                    await chunk(ndjson_line(row))
        await chunk(
            ndjson_line({"kind": "result", "result": result.to_dict()})
        )
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        self.counters["streams"] += 1
        obs_harness.record(EV_SERVE_STREAM, key, rows)

    async def _post_matrix(self, writer, raw: bytes) -> None:
        try:
            requests, jobs = self._parse(raw, parse_matrix_body)
        except ProtocolError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        keys = [run_key(req) for req in requests]
        precached = {
            req: cached_result(
                req.workload, req.config, req.budget, req.seed
            ) is not None
            for req in requests
        }
        warm = self.pool.warm_pool
        if jobs is None:
            jobs = self.pool.workers if warm is not None else 1
        results = await asyncio.to_thread(
            run_matrix, requests, jobs=jobs, pool=warm
        )
        self.counters["matrix_cells"] += len(results)
        cells = [
            {
                "workload": req.workload,
                "config_name": req.config.name,
                "budget": req.budget,
                "seed": req.seed,
                "key": key,
                "cached": precached[req],
                "result": results[req].to_dict(),
            }
            for req, key in zip(requests, keys)
        ]
        await self._respond(
            writer, 200,
            {
                "provenance": {
                    "schema": diskcache.CACHE_SCHEMA_VERSION,
                    "cells": len(cells),
                    "jobs": jobs,
                },
                "results": cells,
            },
        )


# ---------------------------------------------------------------------- #
# Background (own-thread) server — tests and embedders
# ---------------------------------------------------------------------- #
class BackgroundServer:
    """A :class:`ReproServer` on its own thread + event loop.

    ``start()`` blocks until the socket is listening (so ``.port`` is
    final); ``stop()`` drains gracefully and joins the thread.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self.server: Optional[ReproServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main())
        finally:
            self.loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            self.server = ReproServer(**self._kwargs)
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain, tear down, and join (idempotent)."""
        if self.loop is None or self.server is None:
            return
        if self._thread is None or not self._thread.is_alive():
            return

        async def shutdown():
            await self.server.stop(drain=drain)
            self._stop.set()

        asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(
            timeout
        )
        self._thread.join(timeout)


def start_background(
    host: str = "127.0.0.1", port: int = 0, workers: int = 0, **kwargs
) -> BackgroundServer:
    """Start a server on a background thread; returns the live handle."""
    return BackgroundServer(
        host=host, port=port, workers=workers, **kwargs
    ).start()
