from ..errors import EXIT_ABORT, EXIT_AUTH_ALARM, EXIT_CONFIG, EXIT_OK, AuthAlarm, SessionAborted
from .frames import (
    CH_ADMIN,
    CH_AUTH_TAG,
    CH_CONTROL,
    CH_PA_SEED,
    CH_SIFTING,
    CH_SYNDROME,
    CH_VERIFY,
    CHANNEL_NAMES,
    decode_header,
    encode_frame,
)
from .keypool import DeliveryFrozen, InsufficientKey, PadsExhausted, SecretKeyPool
from .session import AliceParty, BobParty, SessionConfig, run_session
from .transport import LoopbackTransport, TcpTransport, TransportClosed, parse_endpoint

__all__ = [
    "AliceParty", "AuthAlarm", "BobParty", "CH_ADMIN", "CH_AUTH_TAG",
    "CH_CONTROL", "CH_PA_SEED", "CH_SIFTING", "CH_SYNDROME", "CH_VERIFY",
    "CHANNEL_NAMES", "DeliveryFrozen", "EXIT_ABORT", "EXIT_AUTH_ALARM",
    "EXIT_CONFIG", "EXIT_OK", "InsufficientKey",
    "LoopbackTransport", "PadsExhausted", "SecretKeyPool", "SessionAborted",
    "SessionConfig", "TcpTransport", "TransportClosed", "decode_header",
    "encode_frame", "parse_endpoint", "run_session",
]
