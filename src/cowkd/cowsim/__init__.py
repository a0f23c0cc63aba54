from .channel import (
    BASIS_DATA,
    BASIS_DECOY,
    TRUTH_DARK,
    TRUTH_NOISE,
    TRUTH_SIGNAL,
    DetectionArrays,
    QubitSource,
    interfering_slot_mask,
    sample_detections,
)
from .params import DEFAULT_INSERTION_LOSSES_DB, ChannelParams

__all__ = [
    "BASIS_DATA", "BASIS_DECOY", "ChannelParams", "DEFAULT_INSERTION_LOSSES_DB",
    "DetectionArrays", "QubitSource",
    "TRUTH_DARK", "TRUTH_NOISE", "TRUTH_SIGNAL",
    "interfering_slot_mask", "sample_detections",
]
