"""Every session configuration ends in exit 0, 2 or 3, within seconds.

Hypothesis draws each `SessionConfig` field from a valid or an invalid range
and runs the draw in-process, both parties on loopback at the smallest
sizes. A bad value must end in `SessionAborted` with exit 2 before any qubit;
a valid configuration must finish (exit 0) or abort (exit 3), never raise
another exception and never hang. The thread timeout of `run_session` stands
in for a process kill.

Valid ranges, chosen so a session ends in about a second:
- `blocks_per_batch` 1 to 4, `n_batches` 1 or 2, `chunk_qubits` 2^19 to
  2^21 (a 1-qubit chunk is valid but runs for minutes);
- the four code rates, sifting widths 6 and 14, any 32-byte seed;
- a compression in [0, 1] or None (auto), the bound on or off;
- a pre-shared key of 1,040 to 1,200 bytes.
"""

import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cowkd.auth import PSK_MIN_BYTES
from cowkd.engine import EXIT_CONFIG, SessionAborted, SessionConfig, run_session
from cowkd.engine.session import ALICE_BUFFER_QUBITS
from cowkd.presets import channel_params

PARAMS = channel_params(1.0)
PSK = bytes(range(256)) * 8
CASE_TIMEOUT_S = 10.0

VALID = {
    "blocks_per_batch": st.integers(1, 4),
    "n_batches": st.integers(1, 2),
    "chunk_qubits": st.sampled_from([1 << 19, 1 << 20, 1 << 21]),
    "code_rate": st.sampled_from(["1/2", "2/3", "3/4", "5/6"]),
    "sift_bits": st.sampled_from([6, 14]),
    "seed_hex": st.binary(min_size=32, max_size=32).map(bytes.hex),
    "compression": st.floats(0.01, 0.99) | st.sampled_from([None, 0.0, 1.0]),
    "psk": st.integers(PSK_MIN_BYTES, 1200).map(lambda n: PSK[:n]),
    "enforce_compression_bound": st.booleans(),
}
INVALID = {
    "blocks_per_batch": st.integers(-3, 0) | st.just(2.5),
    "n_batches": st.integers(-2, 0) | st.just(1.0),
    "chunk_qubits": st.integers(-5, 0) | st.just(ALICE_BUFFER_QUBITS + 1),
    "code_rate": st.sampled_from(["7/8", "1/1", "3/4x", "", "1/0", None]),
    "sift_bits": st.sampled_from([0, 7, 13, 16, "14"]),
    "seed_hex": st.sampled_from(["", "abcd", "zz" * 32, "5e" * 33]),
    "compression": st.sampled_from([-0.01, 1.01, math.inf, math.nan]),
    "psk": st.integers(0, PSK_MIN_BYTES - 1).map(lambda n: PSK[:n]),
}


@st.composite
def configs(draw):
    """Field values, at most one of them invalid (in about half the draws);
    the name of the invalid field, or None."""
    bad = draw(st.sampled_from([None] * len(INVALID) + list(INVALID)))
    return {name: draw(INVALID[name] if name == bad else valid)
            for name, valid in VALID.items()}, bad


def exit_code(fields) -> int:
    try:
        report_a, report_b = run_session(SessionConfig(params=PARAMS, **fields),
                                         timeout=CASE_TIMEOUT_S)
    except SessionAborted as exc:
        assert "did not complete in time" not in str(exc)
        return exc.exit_code
    assert report_a["exit_code"] == report_b["exit_code"]
    if report_a["exit_code"] == 0:
        assert report_a["pool_digest"] == report_b["pool_digest"]
    return report_a["exit_code"]


@settings(max_examples=200)
@given(configs())
def test_every_configuration_ends_in_exit_0_2_or_3(drawn):
    fields, bad = drawn
    code = exit_code(fields)
    event(f"exit {code}, {bad or 'valid'}")
    if bad is not None:
        assert code == EXIT_CONFIG, fields
    else:
        assert code in (0, EXIT_CONFIG, 3), fields
