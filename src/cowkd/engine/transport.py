"""The reliable ordered byte stream between the parties: one socket per side.

`TcpTransport` wraps a connected stream socket. TCP serves two processes;
`LoopbackTransport.pair` serves two parties in one process with the two ends
of a `socket.socketpair()`, so both paths share one implementation. Every
socket error, a read timeout included, raises `TransportClosed`.
"""

from __future__ import annotations

import socket


class TransportClosed(ConnectionError):
    pass


class TcpTransport:
    def __init__(self, sock: socket.socket):
        self._sock = sock
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def listen_accept(cls, host: str, port: int, timeout: float = 60.0) -> "TcpTransport":
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((host, port))
            srv.listen(1)
            srv.settimeout(timeout)
            conn, _ = srv.accept()
        conn.settimeout(timeout)
        return cls(conn)

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 60.0,
                retries: int = 50, retry_delay: float = 0.1) -> "TcpTransport":
        import time

        last = None
        for _ in range(retries):
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                sock.settimeout(timeout)
                return cls(sock)
            except OSError as exc:
                last = exc
                time.sleep(retry_delay)
        raise TransportClosed(f"could not connect to {host}:{port}: {last}")

    def send(self, data: bytes):
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(str(exc))

    def recv_exact(self, n: int) -> bytearray:
        """Exactly n bytes, read straight into one buffer of that size."""
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                part = self._sock.recv_into(view[got:])
            except OSError as exc:
                raise TransportClosed(str(exc))
            if not part:
                raise TransportClosed("connection closed mid-frame")
            got += part
        return buf

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class LoopbackTransport(TcpTransport):
    """An in-process stream: both ends of one socket pair."""

    @classmethod
    def pair(cls, timeout: float | None = 60.0) -> tuple["LoopbackTransport", "LoopbackTransport"]:
        ends = socket.socketpair()
        for sock in ends:
            sock.settimeout(timeout)
        return cls(ends[0]), cls(ends[1])


def parse_endpoint(spec: str) -> tuple[str, int]:
    """`host:port` (host 127.0.0.1 if empty); ValueError if malformed."""
    host, _, port = spec.rpartition(":")
    if not (port.isdecimal() and int(port) < 1 << 16):
        raise ValueError(f"endpoint {spec!r} is not host:port")
    return host or "127.0.0.1", int(port)
