"""Command-line surface: analyze-audio, analyze-lyrics, compare, rewrite."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import providers, report
from .audio_io import PreprocessConfig
from .dsp import read_text

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROVIDER = 2
EXIT_INTERNAL = 3

ENV_CONFIG = "DETOX_CONFIG"


def _load_config(path: str | None) -> dict:
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} does not hold a JSON object")
    return cfg


def _preprocess_cfg(args) -> PreprocessConfig:
    cfg = _load_config(args.config)
    fields = PreprocessConfig.__dataclass_fields__
    unknown = sorted(set(cfg) - set(fields))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in cfg.items():
        want = type(fields[key].default)  # bool, int, float or str
        # bool is an int to isinstance, and a float field takes a JSON integer too
        if isinstance(value, bool) != (want is bool) or not isinstance(
            value, (int, float) if want is float else want
        ):
            raise ValueError(f"config key {key}: expected {want.__name__}, got {json.dumps(value)}")
    params = dict(cfg)
    if args.target_rate is not None:
        params["target_rate"] = args.target_rate
    if args.max_seconds is not None:
        params["max_duration"] = args.max_seconds
    if args.no_denoise:
        params["denoise"] = False
    return PreprocessConfig(**params)


def _providers(args):
    if args.offline:
        return providers.StubSentimentClassifier(), providers.StubEmbedder()
    return (
        providers.client_from_env(providers.SentimentClient, providers.ENV_SENTIMENT_URL),
        providers.client_from_env(providers.EmbeddingClient, providers.ENV_EMBED_URL),
    )


def cmd_analyze_audio(args) -> int:
    _, result = report.analyze_audio(args.stem, _preprocess_cfg(args), args.sections)
    out = result["voice"]
    if args.percent:
        for key in ("jitter", "shimmer"):
            if out[key] is not None:
                out[key] *= 100
    if args.sections:
        out["sections"] = result["sections"]
    print(json.dumps(out, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def cmd_analyze_lyrics(args) -> int:
    classifier, _ = _providers(args)
    _, result = report.analyze_lyrics(args.lyrics, classifier)
    out = {k: result[k] for k in ("line_count", "sentiment", "ngrams")}
    print(json.dumps(out, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def cmd_compare(args) -> int:
    kinds = [kind.strip() for kind in args.emit.split(",")] if args.emit else []
    for kind in kinds:
        if kind not in report.PLOT_KINDS:
            raise ValueError(f"unknown plot kind: {kind!r}")
    # the artist names the plot CSVs, which must land in the report's directory
    if args.artist in (".", "..") or any(sep and sep in args.artist for sep in (os.sep, os.altsep)):
        raise ValueError(f"--artist must be a plain file name, got {args.artist!r}")
    cfg = _preprocess_cfg(args)
    classifier, embedder = _providers(args)
    original = report.TrackBundle(
        args.original_stem, args.original_lyrics, args.artist, args.sections
    )
    transformed = report.TrackBundle(
        args.transformed_stem, args.transformed_lyrics, args.artist, args.sections
    )
    result = report.run_pipeline(
        original, transformed, cfg, classifier=classifier, embedder=embedder,
        out_path=args.out,
    )
    out_dir = Path(args.out).parent if args.out else Path(".")
    for kind in kinds:
        report.emit_plot_data(result, kind, out_dir / f"{args.artist}_{kind}.csv")
    if not args.out:
        print(report.report_json(result))
    return EXIT_OK


def cmd_rewrite(args) -> int:
    req = providers.RewriteRequest(read_text(args.lyrics))
    if args.offline:
        client = providers.StubRewriter()
    else:
        client = providers.client_from_env(providers.RewriteClient, providers.ENV_REWRITE_URL)
    print(client.rewrite(req))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detoxaudit",
        description="Before/after acoustic and lyric analysis of original vs transformed songs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help=f"config file path (or ${ENV_CONFIG})")
        p.add_argument("--target-rate", type=int, help="resample target rate (Hz)")
        p.add_argument("--max-seconds", type=float, help="truncate audio to this many seconds")
        p.add_argument("--no-denoise", action="store_true", help="skip spectral subtraction")

    p = sub.add_parser("analyze-audio", help="voice metrics for one vocal stem")
    p.add_argument("stem")
    p.add_argument("--sections", help="section sidecar file")
    p.add_argument("--percent", action="store_true", help="report jitter/shimmer as percent")
    add_common(p)
    p.set_defaults(func=cmd_analyze_audio)

    p = sub.add_parser("analyze-lyrics", help="sentiment and n-grams for one lyric file")
    p.add_argument("lyrics")
    p.add_argument("--offline", action="store_true", help="use deterministic stub providers")
    p.set_defaults(func=cmd_analyze_lyrics)

    p = sub.add_parser("compare", help="full original vs transformed comparison report")
    p.add_argument("--original-stem", required=True)
    p.add_argument("--original-lyrics", required=True)
    p.add_argument("--transformed-stem", required=True)
    p.add_argument("--transformed-lyrics", required=True)
    p.add_argument("--artist", default="track")
    p.add_argument("--sections")
    p.add_argument("--out", help="report JSON output path")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--emit", help=f"comma list of plot kinds: {','.join(report.PLOT_KINDS)}")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rewrite", help="send lyrics through the rewrite provider")
    p.add_argument("lyrics")
    p.add_argument("--offline", action="store_true")
    p.set_defaults(func=cmd_rewrite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, report.StageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except providers.ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
