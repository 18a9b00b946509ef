# spoofbench first: it pins BLAS to one thread only when numpy has not loaded yet, as in the CLI
from spoofbench import AudioClip  # isort: skip

import numpy as np
import pytest

SR = 8000


def tone(freq_hz: float, duration_s: float, sr: int = SR, amplitude: float = 0.9) -> np.ndarray:
    t = np.arange(int(round(duration_s * sr))) / sr
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t)


def silence(duration_s: float, sr: int = SR) -> np.ndarray:
    return np.zeros(int(round(duration_s * sr)))


@pytest.fixture
def tone_clip() -> AudioClip:
    return AudioClip(tone(1000.0, 2.0), SR)


@pytest.fixture
def burst_clip() -> AudioClip:
    """1 s tone embedded in 3 s total, frame-aligned edges."""
    return AudioClip(np.concatenate([silence(1.0), tone(1000.0, 1.0), silence(1.0)]), SR)
