"""Narrow-band multichannel speech separation toolkit.

Pipeline: simulated multichannel mixtures (image-method room acoustics),
per-frequency STFT-domain separation with a modified Conformer shared
across all frequencies, full-band permutation-invariant SI-SDR training,
and evaluation/attention analysis tools.

The forward/inverse transforms live in `nbsep.stft` (``nbsep.stft.stft``,
``nbsep.stft.istft``); the names re-exported here avoid shadowing the
submodules.
"""

from . import audio, autodiff, dataset, model, objective, roomsim, stft, trainer
from .audio import WaveBuffer, read_wav, write_wav
from .autodiff import NumericError, Tensor
from .dataset import MixtureExample, NormState, mix_pair, normalize
from .model import ModelConfig, NarrowBandModel, SeparatedSpectra
from .objective import PermutationAssignment, evaluate, fpit, si_sdr
from .roomsim import Rir, SceneConfig, sample_scene, simulate_rir, spatialize
from .stft import ComplexSpectrogram, StftConfig, frequency_sequence, istft
from .trainer import AdamState, TrainConfig, adam_step, overfit_probe, schedule_lr

__version__ = "0.1.0"

__all__ = [
    "audio", "autodiff", "dataset", "model", "objective", "roomsim", "stft", "trainer",
    "WaveBuffer", "read_wav", "write_wav",
    "NumericError", "Tensor",
    "MixtureExample", "NormState", "mix_pair", "normalize",
    "ModelConfig", "NarrowBandModel", "SeparatedSpectra",
    "PermutationAssignment", "evaluate", "fpit", "si_sdr",
    "Rir", "SceneConfig", "sample_scene", "simulate_rir", "spatialize",
    "ComplexSpectrogram", "StftConfig", "frequency_sequence", "istft",
    "AdamState", "TrainConfig", "adam_step", "overfit_probe", "schedule_lr",
    "__version__",
]
