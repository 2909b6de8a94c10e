"""detoxaudit: before/after acoustic and lyric analysis for vocal detox pipelines."""

from .audio_io import (
    AudioBuffer,
    AudioLoadError,
    PreprocessConfig,
    highpass,
    load_track,
    normalize,
    preemphasis,
    preprocess,
    resample,
    spectral_subtract,
    truncate,
)
from .dsp import (
    RmsSeries,
    SectionMap,
    Spectrogram,
    frame_rms,
    load_section_map,
    rms_stats,
    slice_sections,
    stft,
)
from .lyrics import (
    LyricDoc,
    NgramTable,
    SentimentScore,
    SimilaritySeries,
    clean_tokens,
    line_similarity,
    ngram_counts,
    parse_lyrics,
    percent_decrease,
    rolling_mean,
    score_document,
    sentiment_table,
    standardize_sentiment,
)
from .providers import (
    EmbeddingClient,
    ProviderConfig,
    ProviderError,
    RewriteClient,
    RewriteRequest,
    SentimentClient,
    StubEmbedder,
    StubRewriter,
    StubSentimentClassifier,
)
from .report import (
    TrackBundle,
    build_comparison,
    emit_plot_data,
    load_report,
    run_pipeline,
    write_report,
)
from .voice import (
    PeriodSequence,
    PitchConfig,
    PitchTrack,
    VoiceMetrics,
    cpp,
    estimate_f0,
    extract_periods,
    hnr,
    jitter,
    radar_normalize,
    shimmer,
    voice_report,
)

__version__ = "0.1.0"
