"""Line-oriented request/response transports over child pipes or TCP.

Protocol style: one request line out, one response line back, one request
in flight per connection. Endpoints are written `proc:<command line>` or
`tcp:<host>:<port>`.
"""

from __future__ import annotations

import os
import select
import shlex
import socket
import subprocess
import threading
from typing import Callable

__all__ = [
    "ProtocolError",
    "ProtocolTimeout",
    "MalformedReply",
    "LineTransport",
    "endpoint_opener",
    "open_transport",
]


class ProtocolError(RuntimeError):
    """Malformed response, closed stream, or transport failure."""


class ProtocolTimeout(ProtocolError):
    """No complete response line arrived within the deadline."""


class MalformedReply(ProtocolError):
    """A whole reply line arrived but is not UTF-8; the connection stays in
    step, so the next request reads its own reply."""


class LineTransport:
    _buffer = b""  # bytes received past the last reply line
    # a request timed out: its reply may still arrive and would be read as
    # the answer to the next request, so the connection takes no more
    _timed_out = False

    def request(self, line: str) -> str:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _check_usable(self) -> None:
        if self._timed_out:
            raise ProtocolError("an earlier request on this connection timed out")

    def _take_line(self) -> str:
        """The first buffered line, decoded; the rest stays buffered. A
        reply that is not UTF-8 is a ProtocolError like any malformed one."""
        response, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return response.decode("utf-8").rstrip("\r")
        except UnicodeDecodeError as exc:
            raise MalformedReply(f"reply is not UTF-8: {exc}") from None


class _ProcTransport(LineTransport):
    def __init__(self, argv: list[str], timeout: float):
        self._timeout = timeout
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def request(self, line: str) -> str:
        with self._lock:
            self._check_usable()
            if self._proc.poll() is not None:
                raise ProtocolError("child process has exited")
            assert self._proc.stdin is not None and self._proc.stdout is not None
            try:
                self._proc.stdin.write(line.encode("utf-8") + b"\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise ProtocolError(f"write failed: {exc}") from exc
            fd = self._proc.stdout.fileno()
            while b"\n" not in self._buffer:
                ready, _, _ = select.select([fd], [], [], self._timeout)
                if not ready:
                    self._timed_out = True
                    raise ProtocolTimeout(f"no response within {self._timeout}s")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ProtocolError("child closed the stream")
                self._buffer += chunk
            return self._take_line()

    def close(self) -> None:
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
        self._lock = threading.Lock()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)

    def request(self, line: str) -> str:
        with self._lock:
            self._check_usable()
            try:
                self._sock.sendall(line.encode("utf-8") + b"\n")
                while b"\n" not in self._buffer:
                    chunk = self._sock.recv(65536)
                    if not chunk:
                        raise ProtocolError("server closed the connection")
                    self._buffer += chunk
            except socket.timeout as exc:
                self._timed_out = True
                raise ProtocolTimeout(str(exc)) from exc
            except OSError as exc:
                raise ProtocolError(str(exc)) from exc
            return self._take_line()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def endpoint_opener(endpoint: str) -> Callable[[float], LineTransport]:
    """What opens a connection to `endpoint` for a given timeout. The syntax
    is checked here, before anything is spawned or connected: `proc:` needs
    a command line, `tcp:` a host and a numeric port; else ValueError."""
    if endpoint.startswith("proc:"):
        argv = shlex.split(endpoint[len("proc:"):])
        if not argv:
            raise ValueError(f"no command in proc endpoint {endpoint!r}")
        return lambda timeout: _ProcTransport(argv, timeout)
    if endpoint.startswith("tcp:"):
        host, _, port = endpoint[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad tcp endpoint {endpoint!r}")
        return lambda timeout: _TcpTransport(host, int(port), timeout)
    raise ValueError(f"unknown endpoint scheme {endpoint!r}")


def open_transport(endpoint: str, timeout: float = 10.0) -> LineTransport:
    """`proc:<command>` spawns a child process; `tcp:<host>:<port>` connects."""
    return endpoint_opener(endpoint)(timeout)
