"""Service-channel framing and the codec of every session record.

This is the only module that knows a record's byte layout: the layouts below
list each record's fields, big-endian. A record is a fixed head, then a body
of packed bit fields or of one array (the sifting blocks, the verification
tags). The session builds each payload with an `encode_*` function and reads
it with the matching `decode_*`, which is strict: exact length (a bit field
of n bits takes exactly ceil(n/8) bytes, padding bits zero), and constants,
counts and indices in the head that agree with what the receiver holds.
Anything else raises `SessionAborted` (exit 3).

Frames: 1-byte channel id, 3-byte big-endian length, payload. All channels
except `admin` count toward authentication: their bytes (frame headers
included) form the per-direction tagged units. Admin frames carry
diagnostics only and are excluded from the accounting.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np

from ..auth import TAG_BITS
from ..bitops import bytes48, pack_bits, unpack_bits, words48
from ..errors import EXIT_ABORT, EXIT_CONFIG, SessionAborted
from ..ldpc import syndrome_length

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
    """A record: a fixed head, then packed bit fields or one array."""

    def __init__(self, name: str, head: str):
        self.name = name
        self.head = struct.Struct(">" + head)

    def pack(self, *head, bits=()) -> bytes:
        return self.head.pack(*head) + b"".join(pack_bits(b) for b in bits)

    def unpack(self, payload, expect=(), sizes=None, rest=False) -> tuple:
        """Head fields, then one bit array per length in `sizes(*head)`, then
        (with `rest`) a view of the remaining bytes. Each head field must
        equal its entry in `expect` unless that entry is None."""
        view = memoryview(payload)
        pos = self.head.size
        if len(view) < pos:
            raise SessionAborted(f"{self.name} has the wrong length")
        head = self.head.unpack(view[:pos])
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
# window | blocks n | n (48-bit seed, 48-bit tag) pairs in block order, one
# array of 2n 48-bit words
_TAGS = _Layout("verification tag frame", "IH")
# window | blocks n | pass flags bits[n]
_VERIFY_RESPONSE = _Layout("verify response", "IH")
# "EST" | batch | mismatches | dropped blocks | bright | destructive monitor
# clicks counted toward the visibility
_ESTIMATE = _Layout("estimation report", "3sIQQQQ")
# mode, always SEED_MODE_TOEPLITZ | batch | bit count n | diagonal bits[n]
_SEED = _Layout("privacy amplification seed", "BII")
# the only seed mode: a modified Toeplitz diagonal; modes 0 (an explicit
# Toeplitz diagonal) and 1 (an LFSR register and taps) are retired
SEED_MODE_TOEPLITZ = 2
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


def encode_tags(window: int, seeds: np.ndarray, tags: np.ndarray) -> bytes:
    return _TAGS.pack(window, len(tags)) + bytes48(np.column_stack([seeds, tags]))


def decode_tags(payload: bytes, window: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """(seeds, tags) of the window's blocks, in block order."""
    body = _TAGS.unpack(payload, (window, n_blocks), rest=True)[2]
    _check(len(body) == 12 * n_blocks, "verification tag frame has the wrong length")
    words = words48(body)
    return words[0::2], words[1::2]


def encode_verify_response(window: int, flags: np.ndarray) -> bytes:
    return _VERIFY_RESPONSE.pack(window, flags.size, bits=[flags])


def decode_verify_response(payload: bytes, window: int, n_blocks: int) -> np.ndarray:
    return _VERIFY_RESPONSE.unpack(payload, (window, n_blocks), lambda w, n: [n])[2].astype(bool)


# -- estimation and amplification ---------------------------------------------------

def encode_estimate(batch: int, mismatches: int, dropped: int, bright: int, dest: int) -> bytes:
    return _ESTIMATE.pack(b"EST", batch, mismatches, dropped, bright, dest)


def decode_estimate(payload: bytes, batch: int, dropped: int, max_mismatches: int,
                    max_monitor: int) -> tuple[int, int, int]:
    """Alice's (mismatches, bright, destructive) for `batch`. Her drop count
    must equal ours, and her monitor clicks cannot outnumber the `max_monitor`
    monitor events disclosed since the last seed."""
    _, _, mismatches, _, bright, dest = _ESTIMATE.unpack(payload, (b"EST", batch, None, dropped))
    _check(mismatches <= max_mismatches, "estimation report exceeds the batch size")
    _check(bright + dest <= max_monitor,
           "estimation report claims more monitor clicks than were disclosed")
    return mismatches, bright, dest


def encode_seed(seed: np.ndarray, batch_id: int) -> bytes:
    return _SEED.pack(SEED_MODE_TOEPLITZ, batch_id, seed.size, bits=[seed])


def decode_pa_seed(payload: bytes, batch: int, n_sift: int) -> np.ndarray:
    """The diagonal of `batch`, n_sift - 1 bits for an n_sift-bit key; any
    mode but the modified Toeplitz one aborts."""
    seed = _SEED.unpack(payload, (SEED_MODE_TOEPLITZ, batch), lambda mode, batch_id, n: [n])[3]
    _check(seed.size == n_sift - 1, f"seed is not a diagonal of {n_sift - 1} bits")
    return seed


# -- authentication -----------------------------------------------------------------

def encode_auth_tag(pad_index: int, tag: int) -> bytes:
    return _AUTH_TAG.pack(pad_index, tag.to_bytes(16, "big"))


def decode_auth_tag(payload: bytes, pad_index: int) -> int:
    """The tag of a record that must name pad `pad_index`, the one the
    receiver's schedule holds due."""
    tag = int.from_bytes(_AUTH_TAG.unpack(payload, (pad_index,))[1], "big")
    _check(tag >> TAG_BITS == 0, "auth tag exceeds 127 bits")
    return tag
