"""Reliable ordered byte-stream transports: in-process loopback and TCP."""

from __future__ import annotations

import socket
import threading


class TransportClosed(ConnectionError):
    pass


class _PipeEnd:
    """One direction of an in-memory duplex pipe."""

    def __init__(self):
        self._buf = bytearray()
        self._cond = threading.Condition()
        self._closed = False

    def write(self, data: bytes):
        with self._cond:
            if self._closed:
                raise TransportClosed("pipe closed")
            self._buf.extend(data)
            self._cond.notify_all()

    def read_exact(self, n: int, timeout: float | None) -> bytes:
        with self._cond:
            while len(self._buf) < n:
                if self._closed:
                    raise TransportClosed("pipe closed with pending read")
                if not self._cond.wait(timeout):
                    raise TimeoutError("loopback read timed out")
            out = bytes(self._buf[:n])
            del self._buf[:n]
            return out

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class LoopbackTransport:
    """One party's endpoint of an in-process bidirectional stream."""

    def __init__(self, rx: _PipeEnd, tx: _PipeEnd, timeout: float | None = 60.0):
        self._rx = rx
        self._tx = tx
        self.timeout = timeout

    @classmethod
    def pair(cls, timeout: float | None = 60.0):
        a_to_b, b_to_a = _PipeEnd(), _PipeEnd()
        return cls(b_to_a, a_to_b, timeout), cls(a_to_b, b_to_a, timeout)

    def send(self, data: bytes):
        self._tx.write(data)

    def recv_exact(self, n: int) -> bytes:
        return self._rx.read_exact(n, self.timeout)

    def close(self):
        self._tx.close()
        self._rx.close()


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


def parse_endpoint(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    return host or "127.0.0.1", int(port)
