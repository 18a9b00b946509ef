"""spoofbench: desk-scale evaluation toolkit for telephony deepfake detection."""

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
from .detector.params import ParameterStore, count_parameters, load_parameters, save_parameters
from .features import FeatureConfig, LogMelSpectrogram, log_mel, mel_filterbank
from .metrics import (
    DetCurve,
    EvalProtocol,
    MetricReport,
    ScoreTable,
    TrialScore,
    checkpoint_eval,
    compute_eer,
    compute_mdr_at_far,
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
