"""A socket server exposing one database to many clients.

ROADMAP item 1: the SQL CLI and the forms runtime become two clients of
the same session API.  The protocol is deliberately tiny — **length-
prefixed JSON frames**:

    +----------------+----------------------------------+
    | 4 bytes        | UTF-8 JSON body                  |
    | big-endian u32 | (exactly that many bytes)        |
    +----------------+----------------------------------+

Requests: ``{"op": "hello", "user": "dba"}`` (first frame, admission),
``{"op": "execute", "sql": "..."}``, ``{"op": "metrics"}``,
``{"op": "ping"}``, ``{"op": "close"}``.

Responses: ``{"ok": true, ...}`` or
``{"ok": false, "error": str, "error_type": str, "retryable": bool}`` —
the ``retryable`` flag mirrors :class:`~repro.errors.RetryableError`, so
a remote client can apply the same retry policy as an embedded one.

One thread and one :class:`~repro.session.manager.Session` per
connection; admission control happens at the hello frame (a refused
connection receives a retryable ``BusyError`` frame, never an unbounded
queue slot).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import WowError
from repro.session.manager import Session, SessionConfig, SessionManager

#: frame header: payload length as a big-endian unsigned 32-bit int
FRAME_HEADER = struct.Struct(">I")
#: refuse absurd frames before allocating for them
MAX_FRAME_BYTES = 16 * 1024 * 1024


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Serialise *payload* and write one length-prefixed frame."""
    body = json.dumps(payload, default=str).encode("utf-8")
    sock.sendall(FRAME_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF.  Raises on torn/oversized data."""
    header = _recv_exact(sock, FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the protocol cap")
    body = _recv_exact(sock, length, allow_eof=False)
    return json.loads(body.decode("utf-8"))


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and not chunks:
                return None
            raise ConnectionError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def error_frame(exc: BaseException) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
        "retryable": bool(getattr(exc, "retryable", False)),
    }


def _shutdown(sock: socket.socket) -> None:
    """Wake every thread blocked on *sock* (it may already be closed)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class DatabaseServer:
    """Thread-per-connection server over one SessionManager."""

    def __init__(
        self,
        db: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SessionConfig] = None,
        manager: Optional[SessionManager] = None,
    ) -> None:
        self.db = db
        self.manager = manager if manager is not None else SessionManager(
            db, config
        )
        self._listener = socket.create_server((host, port))
        #: the bound (host, port) — port 0 requests an ephemeral one
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        #: live connection sockets, shut down by stop() so workers exit
        self._connections: Set[socket.socket] = set()
        self._running = False

    def start(self) -> "DatabaseServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="wow-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close live sessions, join worker threads.

        Closing a listening socket does not wake a thread blocked in its
        ``accept()`` on Linux, and an idle connection's worker sits in
        ``recv()``; shutting the sockets down wakes both, so this returns
        promptly and leaves no server thread behind.
        """
        self._running = False
        _shutdown(self._listener)
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        # The accept thread has exited, so no connection is added now.
        for conn in list(self._connections):
            _shutdown(conn)
        for worker in self._workers:
            worker.join(timeout=5)
        self.manager.close()

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener shut down by stop()
            self._connections.add(conn)
            worker = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="wow-server-conn",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._serve(conn)
        finally:
            self._connections.discard(conn)
            conn.close()

    def _serve(self, conn: socket.socket) -> None:
        """One connection's conversation: hello, then requests to EOF."""
        try:
            hello = recv_frame(conn)
        except (ConnectionError, ValueError, json.JSONDecodeError):
            return
        if hello is None or hello.get("op") != "hello":
            try:
                send_frame(
                    conn,
                    {
                        "ok": False,
                        "error": "first frame must be a hello",
                        "error_type": "SessionError",
                        "retryable": False,
                    },
                )
            except OSError:
                pass
            return
        try:
            session = self.manager.connect(
                user=str(hello.get("user", "dba"))
            )
        except WowError as exc:  # BusyError: retryable refusal
            try:
                send_frame(conn, error_frame(exc))
            except OSError:
                pass
            return
        try:
            send_frame(conn, {"ok": True, "session": session.id})
            while True:
                try:
                    request = recv_frame(conn)
                except (ConnectionError, ValueError,
                        json.JSONDecodeError):
                    break
                if request is None or request.get("op") == "close":
                    break
                try:
                    send_frame(conn, self._handle(session, request))
                except OSError:
                    break
        finally:
            session.close()

    def _handle(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request.get("op")
        try:
            if op == "execute":
                result = session.execute(str(request.get("sql", "")))
                return {
                    "ok": True,
                    "columns": list(result.columns),
                    "rows": [list(row) for row in result.rows],
                    "rowcount": result.rowcount,
                    "plan": result.plan,
                }
            if op == "metrics":
                return {
                    "ok": True,
                    "metrics": self.db.metrics_snapshot()["sessions"],
                }
            if op == "ping":
                return {"ok": True, "session": session.id}
            return {
                "ok": False,
                "error": f"unknown op {op!r}",
                "error_type": "SessionError",
                "retryable": False,
            }
        except WowError as exc:
            # Engine/session errors are protocol answers; anything else
            # (a bug, an injected crash) tears the connection down.
            return error_frame(exc)
