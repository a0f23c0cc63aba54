from .channel import (
    BASIS_DATA,
    BASIS_DECOY,
    DET_DATA,
    DET_MONITOR,
    TRUTH_DARK,
    TRUTH_NOISE,
    TRUTH_SIGNAL,
    DetectionArrays,
    PreparedSequence,
    QubitSource,
    RunMismatch,
    export_csv,
    ground_truth_stats,
    interfering_slot_mask,
    prepare_sequence,
    sample_detections,
    transmit_detect,
)
from .params import DEFAULT_INSERTION_LOSSES_DB, ChannelParams

__all__ = [
    "BASIS_DATA", "BASIS_DECOY", "ChannelParams", "DEFAULT_INSERTION_LOSSES_DB",
    "DET_DATA", "DET_MONITOR", "DetectionArrays", "PreparedSequence",
    "QubitSource", "RunMismatch",
    "TRUTH_DARK", "TRUTH_NOISE", "TRUTH_SIGNAL", "export_csv",
    "ground_truth_stats", "interfering_slot_mask", "prepare_sequence", "sample_detections",
    "transmit_detect",
]
