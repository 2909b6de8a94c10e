"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload dense_pair --seed 3 --out DIR

Writes the files one workload feeds to detoxaudit, plus ``manifest.json``
naming them. The same workload and seed give byte-identical files. Only
numpy and the standard library are used, so the inputs do not depend on
the code under test.
"""

from __future__ import annotations

import argparse
import json
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
N_HARMONICS = 8
LEAD_IN_S = 0.7
PEAK = 0.5  # int16 headroom

WORKLOADS = ("dense_pair", "sparse_pair", "lyrics_cold_http", "lyrics_warm_cache")

# Words of the bundled profanity lexicon, so the rewrite changes the lines
# holding them; the generator keeps its own copy and its own replacements.
LEXICON_SWAPS = {
    "hate": "doubt", "kill": "thrill", "die": "fly", "damn": "darn",
    "hell": "heck", "blood": "flood", "gun": "sun", "shit": "stuff",
}
WORDS = (
    "night light road fire heart city rain dream river street money gold "
    "window shadow morning summer winter highway engine radio mirror ocean "
    "thunder diamond echo silver paper letter garden crowd signal border "
    "midnight sugar stone wire glass hunger ghost neon crown smoke "
    "run hold break call burn fall chase keep find lose turn walk shine "
    "wait fight sing drive pull carry follow remember forget wonder "
    "cold wild slow broken golden empty heavy quiet loud lonely electric "
    "never always again tonight forever together alone away back down "
    "i you we they my your our the a in on at to from with "
    "and but so when all no just still oh yeah"
).split()
LEXICON_PROB = 0.3
SONGS_IN_CORPUS = 12
# Stem lengths. Fifteen seconds keeps a dense pair near four seconds, so a
# run holds several pairs and reports a steady median; the sparse stem is
# twice as long, so duration-bound work grows while voiced work does not.
SECONDS = {"dense_pair": 15.0, "sparse_pair": 30.0}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# ---------------------------------------------------------------- audio


def _smooth_noise(rng, n: int, block: int) -> np.ndarray:
    """Unit-variance noise, linearly interpolated between points `block` apart."""
    knots = rng.standard_normal(n // block + 2)
    return np.interp(np.arange(n) / block, np.arange(len(knots)), knots)


def _sung(rng, n: int, f0_mean: float, jitter: float, shimmer: float) -> np.ndarray:
    """Gliding-f0 tone with N_HARMONICS harmonics, unit RMS.

    The seed sets the glide and vibrato phases and every noise draw. The
    glide runs whole cycles and the harmonic shape is fixed, so each seed
    has the same mean f0 and cycle shape, and so about the same work.
    """
    t = np.arange(n) / SAMPLE_RATE
    cycles = max(1, round(n / SAMPLE_RATE / 7.5))
    glide = 2.0 * np.sin(2 * np.pi * cycles * t * SAMPLE_RATE / n + rng.uniform(0, 2 * np.pi))
    vibrato = 0.3 * np.sin(2 * np.pi * 5.5 * t + rng.uniform(0, 2 * np.pi))
    f0 = f0_mean * 2 ** ((glide + vibrato) / 12)
    f0 *= 1 + jitter * _smooth_noise(rng, n, SAMPLE_RATE // 200)
    phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    x = np.zeros(n)
    for h in range(1, N_HARMONICS + 1):
        x += h**-1.2 * np.sin(h * phase)
    x *= 1 + shimmer * _smooth_noise(rng, n, SAMPLE_RATE // 100)
    return x / np.sqrt(np.mean(x**2))


# Per side: (mean f0 in Hz, jitter, shimmer, SNR in dB). The transformed
# voice is cleaner and a little higher, as a regenerated vocal tends to be.
VOICES = {"original": (160.0, 0.006, 0.08, 20.0), "transformed": (180.0, 0.003, 0.04, 28.0)}


def _dense_stem(rng, side: str, seconds: float) -> np.ndarray:
    f0, jit, shim, snr = VOICES[side]
    n = int(seconds * SAMPLE_RATE)
    lead = int(LEAD_IN_S * SAMPLE_RATE)
    x = np.zeros(n)
    x[lead:] = _sung(rng, n - lead, f0, jit, shim)
    return x + 10 ** (-snr / 20) * rng.standard_normal(n)


def _sparse_layout(rng, seconds: float, n_phrases: int = 6, voiced_share: float = 0.3):
    """Phrase (start, end) times: voiced_share of the track, after the lead-in."""
    dur = rng.uniform(0.7, 1.3, n_phrases)
    dur *= voiced_share * seconds / dur.sum()
    gaps = rng.uniform(0.5, 1.5, n_phrases + 1)
    gaps *= (seconds - dur.sum() - LEAD_IN_S) / gaps.sum()
    gaps[0] += LEAD_IN_S
    starts = np.cumsum(gaps[:-1] + np.r_[0.0, dur[:-1]])
    return [(float(s), float(s + d)) for s, d in zip(starts, dur)]


def _sparse_stem(rng, side: str, seconds: float, layout) -> np.ndarray:
    f0, jit, shim, snr = VOICES[side]
    n = int(seconds * SAMPLE_RATE)
    x = 10 ** (-54 / 20) * rng.standard_normal(n)  # bleed between phrases
    fade = int(0.02 * SAMPLE_RATE)
    ramp = np.linspace(0.0, 1.0, fade)
    for start, end in layout:
        i0, i1 = int(start * SAMPLE_RATE), int(end * SAMPLE_RATE)
        phrase = _sung(rng, i1 - i0, f0, jit, shim)
        phrase[:fade] *= ramp
        phrase[-fade:] *= ramp[::-1]
        x[i0:i1] += phrase + 10 ** (-snr / 20) * rng.standard_normal(i1 - i0)
    return x


def _sections(layout, seconds: float) -> str:
    """Sidecar sections: phrases grouped in threes, cut midway through the gaps."""
    labels = ("intro", "verse", "chorus", "outro")
    cuts = [0.0]
    for k in range(3, len(layout), 3):
        cuts.append((layout[k - 1][1] + layout[k][0]) / 2)
    cuts.append(seconds)
    lines = [f"{label}\t{_mmss(a)}\t{_mmss(b)}" for label, a, b in zip(labels, cuts[:-1], cuts[1:])]
    return "\n".join(lines) + "\n"


def _mmss(t: float) -> str:
    return f"{int(t // 60)}:{t % 60:05.2f}"


def write_wav(path: Path, mono: np.ndarray, rng) -> None:
    """Stereo int16 WAV; the right channel is slightly quieter with its own noise."""
    left = mono * (PEAK / np.max(np.abs(mono)))
    right = 0.97 * left + 10 ** (-70 / 20) * rng.standard_normal(len(left))
    pcm = np.round(np.clip(np.stack([left, right], axis=1), -1, 1) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


# ---------------------------------------------------------------- lyrics


def _line(rng) -> str:
    words = list(rng.choice(WORDS, size=int(rng.integers(5, 10))))
    if rng.random() < LEXICON_PROB:
        words[int(rng.integers(len(words)))] = str(rng.choice(sorted(LEXICON_SWAPS)))
    words[0] = words[0].capitalize()
    return " ".join(words) + str(rng.choice(["", "", ",", "!"]))


def song(rng) -> str:
    """One song: verses, a chorus sung three times word for word, a bridge, an outro."""
    chorus = [_line(rng) for _ in range(4)]
    parts = [
        ("Verse 1", [_line(rng) for _ in range(8)]),
        ("Chorus", chorus),
        ("Verse 2", [_line(rng) for _ in range(8)]),
        ("Chorus", chorus),
        ("Bridge", [_line(rng) for _ in range(4)]),
        ("Chorus", chorus),
        ("Outro", [_line(rng) for _ in range(2)]),
    ]
    return "\n\n".join(f"[{label}]\n" + "\n".join(lines) for label, lines in parts) + "\n"


def clean_version(text: str) -> str:
    """The generator's own rewrite of a song: lexicon words swapped out."""
    out = []
    for line in text.splitlines():
        words = []
        for w in line.split(" "):
            core = w.rstrip(",!")
            words.append(LEXICON_SWAPS.get(core.lower(), core) + w[len(core):])
        out.append(" ".join(words))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- entry point


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into `out`; returns the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "files": {}}
    files = manifest["files"]
    if workload in ("dense_pair", "sparse_pair"):
        seconds = SECONDS[workload]
        layout = _sparse_layout(rng, seconds) if workload == "sparse_pair" else None
        for side in ("original", "transformed"):
            if layout is None:
                mono = _dense_stem(rng, side, seconds)
            else:
                mono = _sparse_stem(rng, side, seconds, layout)
            write_wav(out / f"{side}.wav", mono, rng)
            files[f"{side}_stem"] = f"{side}.wav"
        text = song(rng)
        (out / "original.txt").write_text(text, encoding="utf-8")
        (out / "transformed.txt").write_text(clean_version(text), encoding="utf-8")
        files["original_lyrics"] = "original.txt"
        files["transformed_lyrics"] = "transformed.txt"
        if layout is not None:
            (out / "sections.tsv").write_text(_sections(layout, seconds), encoding="utf-8")
            files["sections"] = "sections.tsv"
    else:
        names = []
        for i in range(SONGS_IN_CORPUS):
            name = f"song_{i:03d}.txt"
            (out / name).write_text(song(rng), encoding="utf-8")
            names.append(name)
        files["songs"] = names
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
