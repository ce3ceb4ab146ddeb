"""Line-oriented request/response transports over child pipes or TCP.

Protocol style: one request line out, one response line back, one request
in flight per connection. Endpoints are written `proc:<command line>` or
`tcp:<host>:<port>`.

A transport owns its connection. `connect` checks the endpoint and opens
nothing; the first request opens the link (spawns the child or connects
the socket). A request the transport fails (a failed open, a timeout, a
closed stream, an I/O error) drops the link and raises ProtocolError, so
a late reply can never answer a later request, and the next request opens
a fresh link. A reply that is not UTF-8 keeps the link. `close` ends the
link; the command that made a transport closes it.
"""

from __future__ import annotations

import os
import select
import shlex
import socket
import subprocess
import threading

__all__ = ["ProtocolError", "ProtocolTimeout", "MalformedReply", "LineTransport", "connect"]


class ProtocolError(RuntimeError):
    """Malformed response, closed stream, or transport failure."""


class ProtocolTimeout(ProtocolError):
    """No complete response line arrived within the deadline."""


class MalformedReply(ProtocolError):
    """A whole reply line arrived but is not UTF-8; the connection stays in
    step, so the next request reads its own reply."""


class LineTransport:
    """One request loop over a link that a subclass opens (`_connect`),
    writes to (`_send`), reads the next chunk from (`_receive`, which raises
    on a timeout or a closed stream) and ends (`_disconnect`)."""

    def __init__(self, timeout: float):
        self._timeout = timeout
        self._lock = threading.Lock()
        self._linked = False
        self._buffer = b""  # bytes received past the last reply line

    def request(self, line: str) -> str:
        with self._lock:
            try:
                if not self._linked:
                    self._connect()
                    self._linked = True
                self._send(line.encode("utf-8") + b"\n")
                while b"\n" not in self._buffer:
                    self._buffer += self._receive()
            except ProtocolError:
                self._drop()
                raise
            except OSError as exc:  # a socket timeout is a TimeoutError
                self._drop()
                error = ProtocolTimeout if isinstance(exc, TimeoutError) else ProtocolError
                raise error(str(exc)) from exc
            response, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return response.decode("utf-8").rstrip("\r")
        except UnicodeDecodeError as exc:
            raise MalformedReply(f"reply is not UTF-8: {exc}") from None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _drop(self) -> None:
        self._buffer = b""
        if self._linked:
            self._linked = False
            self._disconnect()


class _ProcTransport(LineTransport):
    def __init__(self, argv: list[str], timeout: float):
        super().__init__(timeout)
        self._argv = argv

    def _connect(self) -> None:
        self._proc = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def _send(self, data: bytes) -> None:
        if self._proc.poll() is not None:
            raise ProtocolError("child process has exited")
        self._proc.stdin.write(data)
        self._proc.stdin.flush()

    def _receive(self) -> bytes:
        fd = self._proc.stdout.fileno()
        if not select.select([fd], [], [], self._timeout)[0]:
            raise ProtocolTimeout(f"no response within {self._timeout}s")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise ProtocolError("child closed the stream")
        return chunk

    def _disconnect(self) -> None:
        """Stop the child if it still runs, then close both pipes."""
        proc = self._proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # flushing to a child that is gone
                pass


class _TcpTransport(LineTransport):
    def __init__(self, host: str, port: int, timeout: float):
        super().__init__(timeout)
        self._address = (host, port)

    def _connect(self) -> None:
        self._sock = socket.create_connection(self._address, timeout=self._timeout)

    def _send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def _receive(self) -> bytes:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ProtocolError("server closed the connection")
        return chunk

    def _disconnect(self) -> None:
        self._sock.close()


def connect(endpoint: str, timeout: float = 10.0) -> LineTransport:
    """The transport to `endpoint`, opened by its first request. The syntax
    is checked here, before anything is spawned or connected: `proc:` needs
    a command line, `tcp:` a host and a numeric port; else ValueError."""
    if endpoint.startswith("proc:"):
        argv = shlex.split(endpoint[len("proc:"):])
        if not argv:
            raise ValueError(f"no command in proc endpoint {endpoint!r}")
        return _ProcTransport(argv, timeout)
    if endpoint.startswith("tcp:"):
        host, _, port = endpoint[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad tcp endpoint {endpoint!r}")
        return _TcpTransport(host, int(port), timeout)
    raise ValueError(f"unknown endpoint scheme {endpoint!r}")
