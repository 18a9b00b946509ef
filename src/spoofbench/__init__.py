"""spoofbench: desk-scale evaluation toolkit for telephony deepfake detection."""

import os

# BLAS reads its thread count once, when numpy loads.  The detector runs its
# own threads over time tiles (detector_forward), so BLAS gets one thread per
# caller unless the user set a count.  The pin holds only when spoofbench is
# imported before numpy, as the CLI is; numpy loaded first keeps its own count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in _BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")
del _name

from .audio import (
    AudioClip,
    VadConfig,
    VadMask,
    detect_voice,
    load_wav,
    net_speech_prefix,
    net_speech_seconds,
    resample,
    save_wav,
    trim_nonspeech,
)
from .config import RunConfig, load_run_config
from .corpus import (
    MIN_NET_SPEECH_S,
    ManifestEntry,
    PoolSpec,
    build_pool,
    filter_min_net_speech,
    read_manifest,
    write_manifest,
)
from .detector.model import (
    AggregatorConfig,
    DetectorConfig,
    Logits,
    Score,
    detector_forward,
    init_aggregator_parameters,
    init_parameters,
    score,
)
from .detector.ops import aggregate_layers, attentive_stats_pool
from .detector.params import ParameterStore, load_parameters, save_parameters
from .features import FeatureConfig, LogMelSpectrogram, log_mel, mel_filterbank
from .metrics import (
    DetCurve,
    EvalProtocol,
    MetricReport,
    ScoreTable,
    TrialScore,
    checkpoint_eval,
    det_curve,
    per_dataset_eval,
    pooled_eval,
)
from .presentation import (
    ChannelConfig,
    add_colored_noise,
    apply_gain,
    bandpass_telephony,
    codec_roundtrip,
    convolutive_distortion,
    convolve_ir,
    impulsive_noise,
    present,
    soft_clip,
)

__version__ = "0.1.0"
