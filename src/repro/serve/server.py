"""The socket front end: a threaded TCP server over a RuleService.

One TCP connection is one :class:`~repro.serve.session.Session`.  Each
connection gets its own handler thread (reads scale out through the
snapshot gate; writes funnel into the service's single write queue),
speaking the JSON-lines protocol of :mod:`repro.serve.protocol`.
Engine errors are answered on the wire and the connection keeps
serving; protocol errors (unreadable frames) end the connection.  A
dropped connection aborts the session's open transaction, so a dying
client can never wedge the write queue.
"""

from __future__ import annotations

import socketserver
import threading

from repro.errors import ArielError
from repro.serve import protocol
from repro.serve.service import RuleService

#: seconds between the accept loop's shutdown checks; bounds how long
#: :meth:`RuleServer.stop` waits (``serve_forever`` defaults to 0.5 s)
_POLL_INTERVAL = 0.05


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection = one session, served line by line."""

    def handle(self) -> None:  # noqa: D102 (socketserver interface)
        self.server.rule_server._serve_connection(self.rfile,
                                                  self.wfile)


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class RuleServer:
    """Serve a :class:`~repro.serve.service.RuleService` over TCP.

    ``port=0`` (the default) binds an ephemeral port; :meth:`start`
    returns the bound ``(host, port)``.  The server owns its service
    when it created one (``service=None`` + database kwargs), and
    :meth:`stop` shuts the service down in that case.
    """

    def __init__(self, service: RuleService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 **database_kwargs):
        self._owns_service = service is None
        self.service = service if service is not None \
            else RuleService(**database_kwargs)
        self._host = host
        self._port = port
        self._server: _ThreadedTCPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start serving in a daemon thread, and return the
        bound address."""
        if self._server is not None:
            return self.address
        self._server = _ThreadedTCPServer((self._host, self._port),
                                          _ConnectionHandler)
        self._server.rule_server = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _POLL_INTERVAL},
            name="repro-serve-accept", daemon=True)
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        host, port = self._server.server_address[:2]
        return host, port

    @property
    def running(self) -> bool:
        return self._server is not None

    def stop(self, shutdown_service: bool | None = None,
             close_db: bool = False) -> None:
        """Stop accepting connections and (when the server owns its
        service, or when forced) shut the service down."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if shutdown_service is None:
            shutdown_service = self._owns_service
        if shutdown_service:
            self.service.shutdown(close_db=close_db)

    def __enter__(self) -> RuleServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connection serving
    # ------------------------------------------------------------------

    def _serve_connection(self, rfile, wfile) -> None:
        session = self.service.open_session()
        try:
            while True:
                try:
                    request = protocol.read_message(rfile)
                except ValueError as exc:
                    self._respond(wfile, {
                        "ok": False,
                        "error": protocol.error_payload(exc)})
                    break
                if request is None:        # client hung up
                    break
                if not request:            # blank keep-alive line
                    continue
                response = self._dispatch(session, request)
                response["id"] = request.get("id")
                if not self._respond(wfile, response):
                    break
                if request.get("op") == "close":
                    break
        finally:
            self.service.close_session(session)

    @staticmethod
    def _respond(wfile, payload: dict) -> bool:
        try:
            wfile.write(protocol.encode_message(payload))
            wfile.flush()
            return True
        except (OSError, ValueError):
            return False

    def _dispatch(self, session, request: dict) -> dict:
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "result": {"type": "pong"}}
            if op == "session":
                return {"ok": True,
                        "result": {"type": "session",
                                   "session": session.id}}
            if op == "execute":
                result = session.execute(self._field(request, "text"))
                return {"ok": True,
                        "result": protocol.encode_result(result)}
            if op == "query":
                result = session.query(self._field(request, "text"))
                return {"ok": True,
                        "result": protocol.encode_result(result)}
            if op == "prepare":
                signature = session.prepare(
                    self._field(request, "name"),
                    self._field(request, "text"))
                return {"ok": True,
                        "result": {"type": "prepared",
                                   "signature": list(signature)}}
            if op == "exec":
                result = session.execute_prepared(
                    self._field(request, "name"),
                    request.get("params") or {})
                return {"ok": True,
                        "result": protocol.encode_result(result)}
            if op == "begin":
                session.begin()
                return {"ok": True, "result": {"type": "ok"}}
            if op == "commit":
                session.commit()
                return {"ok": True, "result": {"type": "ok"}}
            if op == "abort":
                session.abort()
                return {"ok": True, "result": {"type": "ok"}}
            if op == "status":
                return {"ok": True,
                        "result": {"type": "status",
                                   "status": self.service.status()}}
            if op == "close":
                return {"ok": True, "result": {"type": "ok"}}
            raise ValueError(
                f"unknown op {op!r}; expected one of "
                f"{list(protocol.OPS)}")
        except (ArielError, ValueError, TypeError) as exc:
            return {"ok": False, "error": protocol.error_payload(exc)}

    @staticmethod
    def _field(request: dict, name: str) -> str:
        value = request.get(name)
        if not isinstance(value, str) or not value:
            raise ValueError(f"request is missing the {name!r} field")
        return value
