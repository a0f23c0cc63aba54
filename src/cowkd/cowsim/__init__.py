from .channel import (
    BASIS_DATA,
    BASIS_DECOY,
    DetectionArrays,
    QubitSource,
    sample_detections,
)
from .params import DEFAULT_INSERTION_LOSSES_DB, ChannelParams

__all__ = [
    "BASIS_DATA", "BASIS_DECOY", "ChannelParams", "DEFAULT_INSERTION_LOSSES_DB",
    "DetectionArrays", "QubitSource",
    "sample_detections",
]
