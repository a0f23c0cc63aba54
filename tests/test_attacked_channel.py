"""The per-batch decision refuses a channel an eavesdropper has touched.

A coherence-breaking attack on a share of the pulse pairs (Branciard,
Gisin, Lütkenhaus and Scarani, Quantum Inf. Comput. 7, 639, 2007) leaves
the QBER as it was and shows only in the monitor visibility. It is modelled
here by lowering the interferometer contrast `visibility_if` of the
calibrated 1 km channel from its honest 0.986 to 0.95. This models the
attack's fingerprint on the observables; it proves nothing about the attack.

The compression stays at the honest channel's auto value, as it would on a
link set up before the attack began. One full-size batch on each channel.
"""

import pytest

from cowkd.engine import EXIT_ABORT, LoopbackTransport, SessionAborted, SessionConfig, run_session
from cowkd.engine.session import AliceParty, BobParty
from cowkd.finitekey import FiniteKeyBudget, secret_fraction
from cowkd.presets import channel_params, expected_observables
from test_engine import run_parties

PSK = bytes(range(256)) * 32
SEED = "5e" * 32
HONEST = channel_params(1.0)
ATTACKED = channel_params(1.0, visibility_if=0.95)
COMPRESSION = SessionConfig(params=HONEST, psk=PSK).auto_compression()


def config(params) -> SessionConfig:
    return SessionConfig(params=params, n_batches=1, seed_hex=SEED, psk=PSK,
                         compression=COMPRESSION)


def test_the_attack_model_lies_below_the_honest_compression():
    assert COMPRESSION == 0.0995
    model = secret_fraction(expected_observables(ATTACKED, "3/4", config(ATTACKED).n_sift),
                            FiniteKeyBudget.reference())
    assert model <= COMPRESSION - 0.02, model


@pytest.mark.slow
def test_the_decision_refuses_the_attacked_channel():
    cfg = config(ATTACKED)
    ta, tb = LoopbackTransport.pair(timeout=60)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    errors = run_parties(alice, bob, 120)
    assert set(errors) == {"alice", "bob"}
    for err in errors.values():
        assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)
        assert "exceeds measured secret fraction" in str(err)
    assert alice.pool.frozen and bob.pool.frozen
    assert alice.pool.ledger.produced == bob.pool.ledger.produced == 0


@pytest.mark.slow
def test_the_decision_delivers_on_the_honest_channel():
    report_a, report_b = run_session(config(HONEST), timeout=120)
    for report in (report_a, report_b):
        assert report["exit_code"] == 0 and report["batches"] == 1
        assert report["per_batch"][0]["f_sec_measured"] > COMPRESSION
    assert report_a["pool_digest"] == report_b["pool_digest"]
