"""Layer spans recorded from outside cowkd by rebinding the names it calls.

`Recorder` swaps each target for a thin `perf_counter` wrapper on entry and
puts the originals back on exit. A span is the tuple
`(party, batch, layer, start, end, depth, work, miss)`:

- `party` is the role whose thread made the call (`None` before a party's
  `run` starts, e.g. configuration work in the loopback main thread);
- `batch` is how many batches that party had appended to its pool when the
  call started;
- `depth` is the nesting level among recorded spans (0 = outermost);
- `work` / `miss` are per-layer counts (qubits simulated, blocks decoded and
  failed, a frame header read, ...).

Spans stay in memory; the caller writes them out once, after the session.
Untraced runs install only the milestones (`sample_detections` for the start
of sifting and `SecretKeyPool.append` for batch completion), a few calls per
batch; traced runs install every layer.
"""

from __future__ import annotations

import importlib
import threading
from time import perf_counter

_SESSION = "cowkd.engine.session"


def _qubits(args, out):  # sample_detections(params, source, n_qubits, rng)
    return int(args[2]), 0


def _decoded(args, out):  # decode_batch -> (bits, converged mask, iterations)
    ok = out[1]
    return int(ok.size), int(ok.size - ok.sum())


def _verified(args, out):  # verify_batch -> per-block acceptance flags
    return int(out.size), int(out.size - out.sum())


# (module, class or None, attribute, layer, counter)
MILESTONES = (
    (_SESSION, None, "sample_detections", "cowsim.sample_detections", _qubits),
    ("cowkd.engine.keypool", "SecretKeyPool", "append", "keypool.append", None),
)
LAYERS = MILESTONES + (
    (_SESSION, None, "resolve_collisions", "sifting.resolve_collisions", None),
    (_SESSION, None, "encode", "sifting.encode", None),
    (_SESSION, None, "decode_and_sift", "sifting.decode_and_sift", None),
    (_SESSION, None, "make_tags", "verification.make_tags", None),
    (_SESSION, None, "verify_batch", "verification.verify_batch", _verified),
    (_SESSION, None, "amplify_batch", "privamp.amplify_batch", None),
    (_SESSION, None, "secret_fraction", "finitekey.secret_fraction", None),
    ("cowkd.ldpc", None, "syndrome_batch", "ldpc.syndrome_batch", None),
    ("cowkd.ldpc", None, "decode_batch", "ldpc.decode_batch", _decoded),
    ("cowkd.auth", None, "tag", "auth.tag", None),
    ("cowkd.auth", None, "verify", "auth.verify", None),
    ("cowkd.privamp", None, "lfsr_expand", "privamp.lfsr_expand", None),
    ("cowkd.privamp", None, "toeplitz_hash", "privamp.toeplitz_hash", None),
    ("cowkd.engine.keypool", "SecretKeyPool", "take_pad", "keypool.take_pad", None),
    ("cowkd.engine.transport", "LoopbackTransport", "recv_exact", "transport.recv_exact", "frame"),
    ("cowkd.engine.transport", "TcpTransport", "recv_exact", "transport.recv_exact", "frame"),
)


class _ThreadState(threading.local):
    party = None
    batch = -1
    depth = 0


class Recorder:
    """Install timing wrappers for one session; collect spans and the parties."""

    def __init__(self, traced: bool):
        self.targets = LAYERS if traced else MILESTONES
        self.spans: list[tuple] = []
        self.parties: dict = {}  # role -> party object, for end-of-run counts
        self._local = _ThreadState()
        self._saved: list[tuple] = []
        self._payload_due: set[int] = set()  # transports whose next read is a payload

    def __enter__(self):
        session = importlib.import_module(_SESSION)
        for role, cls in (("alice", session.AliceParty), ("bob", session.BobParty)):
            self._swap(cls, "run", self._wrap_run(cls.run, role))
        for module, cls, name, layer, counter in self.targets:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            if counter == "frame":
                counter = self._frame
            self._swap(owner, name, self._wrap(getattr(owner, name), layer, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _swap(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap_run(self, run, role):
        local, parties = self._local, self.parties

        def wrapper(party):
            local.party, local.batch, local.depth = role, 0, 0
            parties[role] = party
            return run(party)

        return wrapper

    def _wrap(self, fn, layer, counter):
        local, spans = self._local, self.spans
        ends_batch = layer == "keypool.append"

        def wrapper(*args, **kwargs):
            depth = local.depth
            local.depth = depth + 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                local.depth = depth
            end = perf_counter()
            work, miss = counter(args, out) if counter else (0, 0)
            spans.append((local.party, local.batch, layer, start, end, depth, work, miss))
            if ends_batch:
                local.batch += 1
            return out

        return wrapper

    def _frame(self, args, out):
        """Count frame headers among `recv_exact(n)` reads (header, then payload)."""
        key = id(args[0])
        if key in self._payload_due:
            self._payload_due.discard(key)
            return 0, 0
        if int.from_bytes(out[1:4], "big"):  # non-empty payload follows
            self._payload_due.add(key)
        return 1, 0
