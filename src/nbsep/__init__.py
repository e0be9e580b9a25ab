"""Narrow-band multichannel speech separation toolkit.

Pipeline: simulated multichannel mixtures (image-method room acoustics),
per-frequency STFT-domain separation with a modified Conformer shared
across all frequencies, full-band permutation-invariant SI-SDR training,
and evaluation/attention analysis tools.

The forward/inverse transforms live in `nbsep.stft` (``nbsep.stft.stft``,
``nbsep.stft.istft``); the names re-exported here avoid shadowing the
submodules.
"""

import ctypes

from . import audio, autodiff, dataset, model, objective, parallel, roomsim, stft, trainer
from .audio import WaveBuffer, read_wav, write_wav
from .autodiff import NumericError, Tensor
from .dataset import MixtureExample, NormState, mix_pair
from .model import ModelConfig, NarrowBandModel, SeparatedSpectra
from .objective import PermutationAssignment, evaluate, fpit, si_sdr
from .roomsim import Rir, SceneConfig, sample_scene, simulate_rir, spatialize
from .stft import StftConfig, istft
from .trainer import AdamState, TrainConfig, adam_step, overfit_probe, schedule_lr

# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _keep_freed_heap_mapped() -> None:
    """Let freed arrays be reused instead of unmapped and faulted in again.

    A forward pass frees and reallocates arrays of a few MB per layer.  At
    glibc's defaults each one went back to the kernel (an mmap'd chunk, or
    a trimmed heap top) and its pages were zero-filled again on the next
    allocation.  Arrays under 64 MB now come from the heap, and up to
    128 MB of freed heap top stays mapped for reuse.  The cost: that much
    freed memory stays resident until it is reused or the process exits.

    All threads also share one malloc arena.  Inference runs its frequency
    chunks on worker threads (`nbsep.parallel`), and glibc would give each
    thread an arena of its own, whose freed memory the others cannot
    reuse: with per-thread arenas, `separate`'s peak RSS on the benchmark
    clips rose by 12 % (155 to 174 MB); with one arena, by about 2 %
    (158 MB).  Does nothing where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_heap_mapped()

__version__ = "0.1.0"

__all__ = [
    "audio", "autodiff", "dataset", "model", "objective", "parallel", "roomsim", "stft",
    "trainer",
    "WaveBuffer", "read_wav", "write_wav",
    "NumericError", "Tensor",
    "MixtureExample", "NormState", "mix_pair",
    "ModelConfig", "NarrowBandModel", "SeparatedSpectra",
    "PermutationAssignment", "evaluate", "fpit", "si_sdr",
    "Rir", "SceneConfig", "sample_scene", "simulate_rir", "spatialize",
    "StftConfig", "istft",
    "AdamState", "TrainConfig", "adam_step", "overfit_probe", "schedule_lr",
    "__version__",
]
