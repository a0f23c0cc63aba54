"""Service-channel framing and the codec of every session record.

This is the only module that knows a record's byte layout: the layouts below
list each record's fields, big-endian. The session builds each payload with
an `encode_*` function and reads it with the matching `decode_*`, which is
strict: exact length (a bit field of n bits takes exactly ceil(n/8) bytes,
padding bits zero), and counts and indices that agree with what the
receiver holds. Anything else raises `SessionAborted` (exit 3).

Frames: 1-byte channel id, 3-byte big-endian length, payload. All channels
except `admin` count toward authentication: their bytes (frame headers
included) form the per-direction tagged units. Admin frames carry
diagnostics only and are excluded from the accounting.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np

from ..auth import TAG_BITS, AuthTag
from ..bitops import pack_bits, unpack_bits
from ..errors import EXIT_ABORT, EXIT_CONFIG, SessionAborted
from ..ldpc import syndrome_length
from ..privamp import PASeed
from ..verification import VerificationTag

CH_SIFTING = 1
CH_SYNDROME = 2
CH_VERIFY = 3
CH_PA_SEED = 4
CH_AUTH_TAG = 5
CH_CONTROL = 6
CH_ADMIN = 7

CHANNEL_NAMES = {
    CH_SIFTING: "sifting",
    CH_SYNDROME: "syndrome",
    CH_VERIFY: "verify",
    CH_PA_SEED: "pa_seed",
    CH_AUTH_TAG: "auth_tag",
    CH_CONTROL: "control",
    CH_ADMIN: "admin",
}

MAX_PAYLOAD = (1 << 24) - 1
HEADER_BYTES = 4

PROTOCOL_MAGIC = b"COWD1"
END = b"END"  # closes each direction, before its final auth tag


def encode_frame(channel_id: int, payload: bytes) -> bytes:
    if channel_id not in CHANNEL_NAMES:
        raise SessionAborted(f"unknown channel {channel_id}")
    if len(payload) > MAX_PAYLOAD:
        raise SessionAborted("payload exceeds 3-byte length field")
    return bytes([channel_id]) + len(payload).to_bytes(3, "big") + payload


def decode_header(header: bytes) -> tuple[int, int]:
    if len(header) != HEADER_BYTES:
        raise SessionAborted("short frame header")
    channel_id = header[0]
    if channel_id not in CHANNEL_NAMES:
        raise SessionAborted(f"unknown channel {channel_id}")
    return channel_id, int.from_bytes(header[1:4], "big")


class _Layout:
    """A record: optional magic bytes, a fixed head, then packed bit fields."""

    def __init__(self, name: str, head: str, magic: bytes = b""):
        self.name = name
        self.magic = magic
        self.head = struct.Struct(">" + head)

    def pack(self, *head, bits=()) -> bytes:
        return self.magic + self.head.pack(*head) + b"".join(pack_bits(b) for b in bits)

    def unpack(self, payload, expect=(), sizes=None, rest=False) -> tuple:
        """Head fields, then one bit array per length in `sizes(*head)`, then
        (with `rest`) a view of the remaining bytes. Each head field must
        equal its entry in `expect` unless that entry is None."""
        view = memoryview(payload)
        pos = len(self.magic) + self.head.size
        if view[: len(self.magic)] != self.magic:
            raise SessionAborted(f"expected {self.name}")
        if len(view) < pos:
            raise SessionAborted(f"{self.name} has the wrong length")
        head = self.head.unpack(view[len(self.magic) : pos])
        if any(want is not None and want != got for want, got in zip(expect, head)):
            raise SessionAborted(f"{self.name} out of step: {head} where {expect} was due")
        fields = []
        for n in sizes(*head) if sizes else ():
            fields.append(unpack_bits(view[pos : pos + (n + 7) // 8], n))
            pos += (n + 7) // 8
        if rest:
            fields.append(view[pos:])
        elif pos != len(view):
            raise SessionAborted(f"{self.name} has the wrong length")
        return (*head, *fields)


def _check(ok: bool, message: str, exit_code: int = EXIT_ABORT):
    if not ok:
        raise SessionAborted(message, exit_code)


# Record layouts. bits[n]: n bits packed MSB first into ceil(n/8) bytes.
# hello: "COWD1" | config digest | session seed
_HELLO = _Layout("hello", "5s32s32s")
# chunk qubits (exactly the configured chunk) | blocks n | the n sifting
# blocks (see `sifting`)
_SIFT = _Layout("sifting disclosure", "QI")
# data detections n | keep flags bits[n]
_SIFT_RESPONSE = _Layout("sifting response", "I")
# window | blocks n | syndromes bits[n * m], m from the configured code rate
_SYNDROME = _Layout("syndrome frame", "IH")
# window | blocks n | n verification tag records, in block order
_TAGS = _Layout("verification tag frame", "IH")
# 48-bit seed | 48-bit tag
_VERIFICATION_TAG = _Layout("verification tag record", "6s6s")
# window | blocks n | pass flags bits[n]
_VERIFY_RESPONSE = _Layout("verify response", "IH")
# batch | mismatches | dropped blocks
_ESTIMATE = _Layout("estimation report", "IQQ", b"EST")
# batch | the 8 counters of `decode_audit`
_AUDIT = _Layout("truth audit", "I8Q", b"AUD")
# mode, always SEED_MODE_LFSR | batch | width w | state bits[w] | feedback taps bits[w]
_SEED = _Layout("privacy amplification seed", "BII")
SEED_MODE_LFSR = 1  # the only seed mode: an LFSR register and its taps
# pad index | tag below 2^127
_AUTH_TAG = _Layout("auth tag", "I16s")


# -- handshake and sifting ----------------------------------------------------------

def encode_hello(config_digest: bytes, seed: bytes) -> bytes:
    return _HELLO.pack(PROTOCOL_MAGIC, config_digest, seed)


def decode_hello(payload: bytes) -> tuple[bytes, bytes]:
    """(config digest, session seed); another magic is a configuration error."""
    magic, digest, seed = _HELLO.unpack(payload)
    _check(magic == PROTOCOL_MAGIC, "peer speaks a different protocol", EXIT_CONFIG)
    return digest, seed


def encode_sift_disclosure(n_qubits: int, n_blocks: int, blocks: bytes) -> bytes:
    return _SIFT.pack(n_qubits, n_blocks) + blocks


def decode_sift_disclosure(payload: bytes, chunk_qubits: int) -> tuple[int, int, memoryview]:
    """(qubits, blocks, the packed blocks as a view, not a copy); a
    disclosure covers exactly `chunk_qubits` qubits."""
    return _SIFT.unpack(payload, (chunk_qubits,), rest=True)


def encode_sift_response(keep: np.ndarray) -> bytes:
    return _SIFT_RESPONSE.pack(keep.size, bits=[keep])


def decode_sift_response(payload: bytes, n_data: int) -> np.ndarray:
    return _SIFT_RESPONSE.unpack(payload, (n_data,), lambda n: [n])[1].astype(bool)


# -- error correction and verification ----------------------------------------------

def encode_syndrome(window: int, syndromes: np.ndarray) -> bytes:
    return _SYNDROME.pack(window, syndromes.shape[0], bits=[syndromes])


def decode_syndrome(payload: bytes, window: int, rate: Fraction, max_blocks: int) -> np.ndarray:
    """(blocks, syndrome length) syndromes of window `window`, at most `max_blocks`."""
    m = syndrome_length(rate)
    _, n, syndromes = _SYNDROME.unpack(payload, (window,), lambda w, n: [n * m])
    _check(0 < n <= max_blocks, f"syndrome frame claims {n} blocks, {max_blocks} held")
    return syndromes.reshape(n, m)


def encode_verification_tag(tag: VerificationTag) -> bytes:
    return _VERIFICATION_TAG.pack(tag.seed.to_bytes(6, "big"), tag.tag.to_bytes(6, "big"))


def decode_verification_tag(data: bytes) -> VerificationTag:
    seed, tag = _VERIFICATION_TAG.unpack(data)
    return VerificationTag(int.from_bytes(seed, "big"), int.from_bytes(tag, "big"))


def encode_tags(window: int, tags: list[VerificationTag]) -> bytes:
    return _TAGS.pack(window, len(tags)) + b"".join(encode_verification_tag(t) for t in tags)


def decode_tags(payload: bytes, window: int, n_blocks: int) -> list[VerificationTag]:
    """One tag per block of the window, in block order."""
    records = _TAGS.unpack(payload, (window, n_blocks), rest=True)[2]
    size = _VERIFICATION_TAG.head.size
    _check(len(records) == size * n_blocks, "verification tag frame has the wrong length")
    return [decode_verification_tag(records[size * i : size * (i + 1)]) for i in range(n_blocks)]


def encode_verify_response(window: int, flags: np.ndarray) -> bytes:
    return _VERIFY_RESPONSE.pack(window, flags.size, bits=[flags])


def decode_verify_response(payload: bytes, window: int, n_blocks: int) -> np.ndarray:
    return _VERIFY_RESPONSE.unpack(payload, (window, n_blocks), lambda w, n: [n])[2].astype(bool)


# -- estimation and amplification ---------------------------------------------------

def encode_estimate(batch: int, mismatches: int, dropped: int) -> bytes:
    return _ESTIMATE.pack(batch, mismatches, dropped)


def decode_estimate(payload: bytes, batch: int, dropped: int, max_mismatches: int) -> int:
    """Alice's mismatch count for `batch`; her drop count must equal ours."""
    mismatches = _ESTIMATE.unpack(payload, (batch, None, dropped))[1]
    _check(mismatches <= max_mismatches, "estimation report exceeds the batch size")
    return mismatches


def encode_audit(batch: int, counters) -> bytes:
    return _AUDIT.pack(batch, *counters)


def decode_audit(payload: bytes, batch: int) -> tuple[int, ...]:
    """Counters: kept bits, their errors, dark and noise errors, then bright and
    destructive interfering monitor clicks, all and signal-only."""
    counters = _AUDIT.unpack(payload, (batch,))[1:]
    kept, err, dark, noise, bright, dest, bright_sig, dest_sig = counters
    _check(max(kept, bright, dest) < 1 << 62 and dark + noise <= err <= kept
           and bright_sig <= bright and dest_sig <= dest, "truth audit counters are inconsistent")
    return counters


def encode_seed(seed: PASeed, batch_id: int) -> bytes:
    return _SEED.pack(SEED_MODE_LFSR, batch_id, seed.state.size, bits=[seed.state, seed.taps])


def _seed_sizes(mode: int, batch: int, w: int) -> list[int]:
    _check(mode == SEED_MODE_LFSR, f"unknown seed mode {mode}")
    return [w, w]


def decode_seed(data: bytes) -> tuple[PASeed, int]:
    """(seed, batch id); any mode but the LFSR's, and a zero feedback
    polynomial, abort."""
    _, batch_id, _, state, taps = _SEED.unpack(data, sizes=_seed_sizes)
    _check(taps.any(), "seed has a zero feedback polynomial")
    return PASeed(state, taps), batch_id


def decode_pa_seed(payload: bytes, batch: int, n_out: int) -> PASeed:
    """The seed of `batch`, `n_out` bits wide."""
    seed, batch_id = decode_seed(payload)
    _check(batch_id == batch, "privacy amplification batches out of step")
    _check(seed.state.size == n_out, f"seed is not an LFSR of width {n_out}")
    return seed


# -- authentication -----------------------------------------------------------------

def encode_auth_tag(tag: AuthTag) -> bytes:
    return _AUTH_TAG.pack(tag.message_unit_index, tag.tag.to_bytes(16, "big"))


def decode_auth_tag(data: bytes) -> AuthTag:
    index, raw = _AUTH_TAG.unpack(data)
    tag = AuthTag(index, int.from_bytes(raw, "big"))
    _check(tag.tag >> TAG_BITS == 0, "auth tag exceeds 127 bits")
    return tag
