from .codec import decode_batch, syndrome_batch
from .matrices import BLOCK_LENGTH, RATES, Z, ParityMatrix, as_rate, parity_matrix, syndrome_length

__all__ = [
    "BLOCK_LENGTH", "ParityMatrix", "RATES", "Z", "as_rate", "decode_batch",
    "parity_matrix", "syndrome_batch", "syndrome_length",
]
