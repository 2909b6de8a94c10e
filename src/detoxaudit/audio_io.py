"""WAV loading and the vocal-stem preprocessing chain.

The chain runs: resample -> truncate -> pre-emphasis -> spectral
subtraction -> high-pass -> peak normalization. Each step is a pure
function over an immutable AudioBuffer.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

# frames per step of every framed kernel (spectral subtraction, RMS, f0, HNR,
# CPP); at 4096-sample HNR frames a block's complex spectrum takes 1 MiB and
# each float temporary 512 KiB
BLOCK_FRAMES = 32
HIGHPASS_ORDER = 4
# samples of odd extension at each end of the zero-phase high-pass, as
# sosfiltfilt's default padlen for HIGHPASS_ORDER // 2 sections: a buffer of
# this many samples or fewer is refused
HIGHPASS_PAD = 3 * (HIGHPASS_ORDER + 1)
# entries of one table of filter taps in resample (64 KiB). Each output of a
# row reads only the filter's reach of the row's inputs, so a wide row's table
# is mostly zeros; tables of at most this many entries cover a few outputs
# each and little beyond their reach, and more rows fit in a product of
# PRODUCT_MACS. Of 2^11 to 2^18, 2^12 to 2^13 ran fastest from 8, 16, 44.1,
# 48 and 96 kHz to 22.05 kHz, and from 44.1 to 44.101 kHz (2 vCPUs)
RESAMPLE_TABLE = 2**13
# multiply-adds of one BLAS matrix product, at most, so that OpenBLAS runs
# every product on its calling thread. It hands a matrix product of more than
# 4 * 65536 multiply-adds (GEMM_MULTITHREAD_THRESHOLD * SMP_THRESHOLD_MIN) to
# worker threads that then spin on the other cores, and stall the product
# while those cores are busy. Measured with OpenBLAS 0.3.31 on 2 vCPUs: no
# matrix product of up to 655,360 multiply-adds ran on a second thread, every
# one of 1,048,576 did; matrix-vector products ran on one thread up to 262,144
# (CPP's, at most BLOCK_FRAMES x 2048, stay below the cap at any rate)
PRODUCT_MACS = 2**17
# samples per block of the high-pass's block recursion; of 32 to 256, 48 ran
# fastest or within 1% of the fastest on 15 and 30 s stems at 22.05 kHz
# (2 vCPUs), and no size moved the result by more than round-off
FILTER_BLOCK = 48
# spectral subtraction's STFT framing, in samples
SUBTRACT_FRAME_LENGTH = 2048
SUBTRACT_HOP = 512
# (format tag, bytes per sample) -> (dtype stored, fewest bits, full scale); a
# sample holds at most 8 bits per byte. "i3", 3-byte PCM, widens to int32
_ENCODINGS = {
    (1, 1): ("u1", 1, 2.0**7), (1, 2): ("i2", 9, 2.0**15), (1, 3): ("i3", 9, 2.0**31),
    (1, 4): ("i4", 9, 2.0**31), (3, 4): ("f4", 32, 1.0), (3, 8): ("f8", 64, 1.0),
}


class AudioLoadError(ValueError):
    """Raised when a file cannot be decoded into usable audio."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio with its sample rate. Samples are float64 amplitudes."""

    samples: np.ndarray
    sample_rate: int
    silent: bool = False

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class PreprocessConfig:
    target_rate: int = 22050
    max_duration: float = 360.0
    preemphasis_alpha: float = 0.97
    highpass_cutoff: float = 100.0
    noise_profile_window: float = 0.5
    subtraction_floor: float = 0.02
    # "leading" uses the first noise_profile_window seconds as the profile;
    # "quietest" uses the lowest-energy frames of the whole track instead.
    noise_profile_mode: str = "leading"
    denoise: bool = True

    def __post_init__(self):
        if not 0 <= self.max_duration < np.inf:  # false for NaN too
            raise ValueError("max_duration must be finite and >= 0")
        if not 0 <= self.preemphasis_alpha < 1:
            raise ValueError("preemphasis_alpha must be in [0, 1)")
        if not 0 <= self.noise_profile_window < np.inf:
            raise ValueError("noise_profile_window must be finite and >= 0")
        if not 0 <= self.subtraction_floor <= 1:
            raise ValueError("subtraction_floor must be in [0, 1]")
        if self.noise_profile_mode not in ("leading", "quietest"):
            raise ValueError("noise_profile_mode must be 'leading' or 'quietest'")


def load_track(path) -> AudioBuffer:
    """Load a WAV file as a mono buffer of float64 samples at the file's rate.

    Reads RIFF, RIFX (big-endian) and RF64 files, plain or extensible: PCM of
    up to 8 bits (unsigned) in 1-byte samples, of 9 bits up to its width in 2
    to 4 bytes (3-byte samples widen to left-justified int32), and 32- or
    64-bit float. The chunks are walked to the first data chunk; nothing after
    it is read, nor bytes after its last whole sample. One cut short by the end
    of the file warns and keeps its whole frames. Channels are averaged before
    scaling. AudioLoadError names the file and the fault: unreadable, another
    format (mu-law, A-law, ...), bits that do not fit their width, no fmt
    before data, no data, no channels or rate, a partial last frame, no
    samples, or a non-finite sample.
    """
    try:
        with open(path, "rb") as fh:
            rate, data, scale = _read_wav(fh, path)
    except OSError as exc:
        raise AudioLoadError(f"cannot read audio file {path}: {exc.strerror}") from exc
    if data.size == 0:
        raise AudioLoadError(f"zero-length audio: {path}")
    if data.dtype == np.uint8:
        data = data.astype(np.int16) - 128
    # integer sums are exact in float64 and the scales are powers of two, so
    # folding first gives the same samples as scaling each channel first. A
    # float sum that overflows, or inf plus -inf, is caught by the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        if data.ndim == 1:
            samples = data.astype(np.float64)
        elif data.shape[1] < 8:
            # numpy's mean sums fewer than 8 channels left to right (8 and more
            # pairwise); a column at a time is that sum at array speed
            samples = data[:, 0].astype(np.float64)
            for column in data.T[1:]:
                samples += column
            samples /= data.shape[1]
        else:
            samples = data.mean(axis=1, dtype=np.float64)
    samples /= scale
    if not np.isfinite(samples).all():
        raise AudioLoadError(f"non-finite samples (NaN or Inf) in {path}")
    return AudioBuffer(samples, int(rate))


def _read_wav(fh, path):
    """(rate, samples, full scale) of the WAV file in fh: the samples of its first
    data chunk in their stored dtype, a column per channel."""

    def fault(why):
        return AudioLoadError(f"unsupported or corrupt audio file {path}: {why}")

    head = fh.read(12)
    if head[:4] not in (b"RIFF", b"RIFX", b"RF64") or head[8:] != b"WAVE":
        raise fault("not a RIFF, RIFX or RF64 WAVE file")
    e, size64 = ">" if head[:4] == b"RIFX" else "<", None
    if head[:4] == b"RF64":  # the data chunk's size is in the ds64 chunk that comes first
        cid, skip, size64 = struct.unpack("<4sI8xQ", fh.read(24).ljust(24, b"\0"))
        if cid != b"ds64":
            raise fault("RF64 file without a ds64 chunk")
        fh.seek(skip - 16, 1)
    tag = None
    while True:
        head = fh.read(8)
        if len(head) < 8:
            raise fault("no data chunk")
        (size,), start = struct.unpack(e + "I", head[4:]), fh.tell()
        if head[:4] == b"data":
            break
        if head[:4] == b"fmt ":
            body = fh.read(min(size, 40))
            fields = struct.unpack(e + "HHIIHHH6xI12s", body.ljust(40, b"\0"))
            tag, channels, rate, byte_rate, align, bits, cb, sub, rest = fields
            if tag == 0xFFFE and cb >= 22 and rest == struct.pack(e + "HH", 0, 16) + bytes.fromhex("800000aa00389b71"):
                tag = sub  # WAVE_FORMAT_EXTENSIBLE: the subformat's tag opens its GUID
            if len(body) < 16 or tag not in (1, 3):
                raise fault(f"format {tag:#06x} in {len(body)} bytes of fmt: only PCM and IEEE float are read")
            if rate == 0 or channels == 0 or tag == 1 and byte_rate != rate * align:
                raise fault(f"nChannels {channels}, nSamplesPerSec {rate}, nAvgBytesPerSec {byte_rate}, nBlockAlign {align}")
        fh.seek(start + size + size % 2)  # and past the pad byte
    if tag is None:
        raise fault("no fmt chunk before data")
    size = size if size64 is None else size64
    width = align // channels  # bytes per sample
    code, fewest, scale = _ENCODINGS.get((tag, width), (None, 0, 0))
    if code is None or not fewest <= bits <= 8 * width:
        raise fault(f"unsupported sample encoding {('int', 'float')[tag == 3]}{8 * width} ({bits}-bit, channels: {channels})")
    got = min(size, os.fstat(fh.fileno()).st_size - fh.tell())  # the bytes present
    if got < size:
        warnings.warn(f"reached EOF prematurely in {path}: {got} of {size} data bytes", stacklevel=3)
    elif size // width % channels:  # whole samples that do not fill the last frame
        raise fault(f"partial last frame: {size} bytes of {channels} channels of {width}-byte samples")
    count = got // (width * channels) * channels  # the samples of the whole frames present
    if code == "i3":  # each sample's bytes fill the top three of an int32's, in file order
        data, low = np.zeros(count, e + "i4"), int(e == "<")
        data.view(np.uint8).reshape(-1, 4)[:, low : low + 3] = np.fromfile(fh, "3u1", count)
    else:
        data = np.fromfile(fh, e + code, count)
    return rate, data.reshape(-1, channels) if channels > 1 else data, scale


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited polyphase resampling to target_rate.

    The output is that of scipy.signal.resample_poly(x, up, down) with its
    defaults, to round-off: up/down is the rate ratio in lowest terms, the
    low-pass is a Kaiser-windowed (beta 5) sinc of 20 * max(up, down) + 1
    taps cut off at 1 / max(up, down) of Nyquist, the input reads as zero
    beyond both ends, and the ceil(n * up / down) output samples are centred
    on the filter's delay.

    The output is computed in rows of `periods * up` samples, each from the
    `periods * down` inputs of its span and the filter's reach around them:
    every row is the same matrix product of its inputs with a table of the
    taps, so all rows are BLAS products over strided views of the stem.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if buf.sample_rate == target_rate:
        return buf
    ratio = Fraction(target_rate, buf.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    half = 10 * max(up, down)
    lead = down - half % down  # zero taps put in front, as resample_poly does
    taps = np.concatenate([np.zeros(lead), up * _lowpass(2 * half + 1, 1 / max(up, down))])
    skip = (half + lead) // down  # leading outputs of the full convolution dropped
    reach = -(-len(taps) // up)  # inputs that one output reads, at most
    periods = -(-reach // down)  # so that a row's inputs span at least the reach
    step, width = periods * down, periods * up
    x = buf.samples
    n_out = -(-len(x) * up // down)
    out = np.empty((-(-n_out // width), width))
    # the row's outputs in parts whose tables hold at most RESAMPLE_TABLE taps
    part = width
    while part > 1 and part * ((part - 1) * down // up + reach + 2) > RESAMPLE_TABLE:
        part //= 2
    for first in range(0, width, part):
        # output o of a row reads input i of its span through tap o * down - i * up,
        # counted from the row's first output and input (shifted by `skip` outputs)
        grid = (np.arange(first, min(first + part, width)) + skip) * down
        start = (grid[0] - len(taps)) // up + 1
        index = grid - np.arange(start, grid[-1] // up + 1)[:, None] * up
        valid = (index >= 0) & (index < len(taps))
        table = np.where(valid, taps[np.where(valid, index, 0)], 0.0)
        _window_products(x, table, start, step, out[:, first : first + len(grid)])
    return replace(buf, samples=out.reshape(-1)[:n_out], sample_rate=target_rate)


def _lowpass(numtaps: int, cutoff: float) -> np.ndarray:
    """scipy.signal.firwin(numtaps, cutoff, window=("kaiser", 5.0)): a windowed
    sinc low-pass, cutoff relative to Nyquist, scaled to unit gain at DC."""
    m = np.arange(numtaps) - (numtaps - 1) / 2
    h = cutoff * np.sinc(cutoff * m)
    h *= np.i0(5.0 * np.sqrt(1 - (m / ((numtaps - 1) / 2)) ** 2.0)) / np.i0(5.0)
    return h / h.sum()


def _window_products(x: np.ndarray, table: np.ndarray, start: int, step: int, out: np.ndarray) -> None:
    """out[q] = x[s : s + len(table)] @ table for s = start + q * step, x reading
    as zero outside its bounds.

    Windows inside x are read as strided views of it, in column chunks no
    wider than `step`, so that their rows lie apart in memory and BLAS takes
    them, and in as many rows at a time as keep a product within
    PRODUCT_MACS. Only the windows that cross an end of x are read from a
    zero-padded copy of the samples they touch.
    """
    span, count, width = len(table), len(out), out.shape[1]
    lo = min(count, max(0, -(start // step)))  # first window that starts at or after 0
    hi = max(lo, min(count, (len(x) - span - start) // step + 1))  # after the last inside x
    if lo < hi:
        chunks = []  # (columns c to c + step of the windows inside x, the table's rows c to c + step)
        for c in range(0, span, step):
            view = np.lib.stride_tricks.sliding_window_view(x, min(step, span - c))
            chunks.append((view[start + lo * step + c :: step][: hi - lo], table[c : c + step]))
        for rows in _product_blocks(hi - lo, min(step, span) * width):
            dest = out[lo + rows.start : lo + rows.stop]
            np.matmul(chunks[0][0][rows], chunks[0][1], out=dest)
            for windows, taps in chunks[1:]:
                dest += windows[rows] @ taps
    for a, b in ((0, lo), (hi, count)):
        if a < b:
            s, e = start + a * step, start + (b - 1) * step + span
            seg = np.zeros(e - s)
            i, j = max(s, 0), min(e, len(x))
            if i < j:
                seg[i - s : j - s] = x[i:j]
            windows = np.lib.stride_tricks.sliding_window_view(seg, span)[::step]
            for rows in _product_blocks(b - a, span * width):
                out[a + rows.start : a + rows.stop] = windows[rows] @ table


def truncate(buf: AudioBuffer, max_duration: float) -> AudioBuffer:
    """Keep the first max_duration seconds."""
    limit = int(round(max_duration * buf.sample_rate))
    if len(buf.samples) <= limit:
        return buf
    return replace(buf, samples=buf.samples[:limit])


def preemphasis(buf: AudioBuffer, alpha: float) -> AudioBuffer:
    """First-difference filter y[n] = x[n] - alpha * x[n-1], y[0] = x[0]."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must be in [0, 1)")
    x = buf.samples
    y = np.empty_like(x)
    if len(x):
        y[0] = x[0]
        y[1:] = x[1:] - alpha * x[:-1]
    return replace(buf, samples=y)


def highpass(buf: AudioBuffer, cutoff: float) -> AudioBuffer:
    """Zero-phase Butterworth high-pass (order HIGHPASS_ORDER) removing content below cutoff.

    The output is that of scipy.signal.sosfiltfilt over butter(HIGHPASS_ORDER,
    cutoff, "highpass", fs=rate, output="sos"), to round-off: the buffer is
    extended at each end by the odd reflection of HIGHPASS_PAD samples, run
    forward from the filter's steady state for its first sample, then backward
    from the steady state for the last. The filter passes no DC, so each pass
    is the filter from rest over its input minus that sample. An empty buffer
    is returned as it is; a buffer of HIGHPASS_PAD samples or fewer is refused.
    """
    nyquist = buf.sample_rate / 2
    if not 0 < cutoff < nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist})")
    x, pad = buf.samples, HIGHPASS_PAD
    n = len(x)
    if n == 0:
        return buf
    if n <= pad:
        raise ValueError(f"buffer of {n} samples too short for the high-pass: it needs at least {pad + 1}")
    modes = _butter_modes(cutoff, buf.sample_rate)
    size = n + 2 * pad
    # whole blocks; the zeros after the data reach no kept output, as the filter is causal
    ext = np.zeros(-(-size // FILTER_BLOCK) * FILTER_BLOCK)
    ext[:pad] = 2 * x[0] - x[pad:0:-1]
    ext[pad : pad + n] = x
    ext[pad + n : size] = 2 * x[-1] - x[-2 : -pad - 2 : -1]
    ext[:size] -= ext[0]
    once = np.empty_like(ext)
    _filter_from_rest(ext, modes, once)
    # the backward pass runs forward over the reversed output, written over the extension
    np.subtract(once[size - 1 :: -1], once[size - 1], out=ext[:size])
    _filter_from_rest(ext, modes, once)
    ext[:n] = once[size - 1 - pad : pad - 1 : -1]  # the data's part, in forward order
    return replace(buf, samples=ext[:n])


def _butter_modes(cutoff: float, rate: float):
    """scipy.signal.butter(HIGHPASS_ORDER, cutoff, "highpass", fs=rate) in
    pole/residue form: (the poles above the real axis, their residues, the gain
    g). The transfer function g (z - 1)^4 / prod(z - p) is g + sum(r / (z - p))
    over all poles, and the residue of p is g (p - 1)^4 / prod(p - q) over the
    other poles q. The poles and gain are built as butter builds them: the
    analog Butterworth poles, the high-pass transform and the bilinear map at
    fs = 2 with prewarping. HIGHPASS_ORDER is even, so every pole has a
    conjugate and all zeros are at 1."""
    order = HIGHPASS_ORDER
    warped = 2 * 2.0 * np.tan(np.pi * (cutoff / (rate / 2)) / 2.0)
    analog = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order))
    hp = warped / analog
    gain = np.real(1.0 / np.prod(-analog)) * np.real(4.0**order / np.prod(4.0 - hp))
    poles = (4.0 + hp) / (4.0 - hp)
    upper = poles[poles.imag > 0]
    others = upper[:, None] - poles  # zero only where the pole meets itself
    return upper, gain * (upper - 1) ** order / np.prod(others, axis=1, where=others != 0), gain


def _filter_from_rest(x: np.ndarray, modes, out: np.ndarray) -> None:
    """Run the filter of _butter_modes over x, a whole number of FILTER_BLOCK
    samples, from rest into out.

    Each pole p holds one complex state s: the output is g x + 2 Re(sum(s))
    and the next state p s + r x. A block of inputs x (a row) from states s
    gives the outputs x @ T + 2 Re(s @ G) and the next states p^FILTER_BLOCK s
    + x @ F, where T is the upper-triangular Toeplitz matrix of the impulse
    response, G[k] = p^k and F[i] = r p^(FILTER_BLOCK - 1 - i). The block-start
    states come from a log-step doubling scan over poles x blocks; the outputs
    are then computed as two real matrix products. Every product takes as
    many blocks as keep it within PRODUCT_MACS.
    """
    poles, residues, gain = modes
    size = FILTER_BLOCK
    powers = poles ** np.arange(size)[:, None]  # [k, pole] = p^k
    response = np.concatenate([[gain], 2 * (powers[:-1] @ residues).real])
    lag = np.arange(size) - np.arange(size)[:, None]
    toeplitz = np.triu(response[np.abs(lag)])  # [j, i] = response[i - j], 0 if i < j
    # the states as (re, im) pairs, so that the samples stay real in both
    # products: 2 Re(s p^k) = re(s) re(2 p^k) + im(s) im(2 conj(p^k))
    gains = (2 * powers.conj()).view(float).T
    taps = np.ascontiguousarray(residues * powers[::-1]).view(float)
    blocks = x.reshape(-1, size)
    starts = np.zeros((len(poles), len(blocks)), dtype=complex)  # column j: block j's start states
    for rows in _product_blocks(len(blocks) - 1, taps.size):
        starts[:, rows.start + 1 : rows.stop + 1] = (blocks[rows] @ taps).view(complex).T
    step, span = poles**size, 1
    while span < starts.shape[1]:
        starts[:, span:] += step[:, None] * starts[:, :-span]
        step = step * step
        span *= 2
    states = np.ascontiguousarray(starts.T).view(float)
    out = out.reshape(blocks.shape)
    for rows in _product_blocks(len(blocks), toeplitz.size):  # gains is no larger
        np.matmul(blocks[rows], toeplitz, out=out[rows])
        out[rows] += states[rows] @ gains


def _frames(x: np.ndarray, frame_length: int, hop: int = 1, starts=None) -> np.ndarray:
    """Frames of x as rows: every hop samples from 0, or at explicit start offsets.

    Hop framing returns a read-only strided view of x; explicit starts,
    each of which must leave a whole frame inside x, return a copy.
    """
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if len(x) < frame_length:
        raise ValueError("buffer shorter than one frame")
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_length)
    if starts is None:
        return windows[::hop]
    return windows[starts]


def _blocks(n: int, rows: int = BLOCK_FRAMES):
    """Slices of `rows` rows covering range(n), in order."""
    return (slice(i, min(i + rows, n)) for i in range(0, n, rows))


def _product_blocks(n: int, row_macs: int):
    """_blocks of range(n) for a product of row_macs multiply-adds a row: as
    many rows each as keep it within PRODUCT_MACS, and one at least."""
    return _blocks(n, max(1, PRODUCT_MACS // row_macs))


def _too_short_to_denoise(buf: AudioBuffer, cfg) -> str | None:
    """Why buf is too short for spectral subtraction (None if it is not): it needs more
    samples than the noise profile window, and half a frame for a centred STFT."""
    n = len(buf.samples)
    if n <= round(cfg.noise_profile_window * buf.sample_rate):
        return "buffer shorter than noise profile window"
    if n < SUBTRACT_FRAME_LENGTH - SUBTRACT_FRAME_LENGTH // 2:
        return "buffer shorter than half a frame"
    return None


def spectral_subtract(buf: AudioBuffer, cfg: PreprocessConfig) -> AudioBuffer:
    """Subtract an estimated noise magnitude spectrum from every frame.

    The noise profile is the mean STFT magnitude over the first
    cfg.noise_profile_window seconds ("leading" mode) or over the
    quietest 10% of frames ("quietest" mode). Magnitudes are floored at
    cfg.subtraction_floor times the noise magnitude; phase is kept and
    the signal is rebuilt by overlap-add.

    The frames are those of scipy's ShortTimeFFT.stft: SUBTRACT_FRAME_LENGTH
    samples, Hann-windowed, centred on multiples of SUBTRACT_HOP, zero-padded
    at both ends, and the synthesis window is ShortTimeFFT's dual window.
    They are processed BLOCK_FRAMES at a time, in order (rfft, subtract,
    irfft, times the synthesis window, overlap-add), so besides the input,
    one padded copy of it and the output, memory is bounded by one block, not
    by the track. The phase is kept by scaling each bin by cleaned / |X|; a
    bin with |X| == 0, as in digital silence, has no phase to scale and gets
    cleaned times exp(1j * angle(X)), as ShortTimeFFT.istft would.
    "quietest" mode makes one extra blocked pass for the frame energies.
    Every sum runs in frame order, so the block size reaches no output.
    """
    x = buf.samples
    problem = _too_short_to_denoise(buf, cfg)
    if problem:
        raise ValueError(problem)

    m, hop = SUBTRACT_FRAME_LENGTH, SUBTRACT_HOP
    mid = m // 2
    win = _hann(m)
    dual = _dual_window(win, hop)
    first, stop = _subtract_frame_range(len(x))
    n_frames = stop - first
    head = mid - first * hop  # zeros before sample 0, so that row 0 is frame `first`
    padded = np.pad(x, (head, (n_frames - 1) * hop + m - head - len(x)))
    frames = _frames(padded, m, hop)

    def spectra(rows):
        # rolled so that each frame's centre sample comes first, as in ShortTimeFFT
        return np.fft.rfft(np.roll(frames[rows] * win, -mid, axis=1), axis=1)

    if cfg.noise_profile_mode == "leading":
        n_profile = int(round(cfg.noise_profile_window * buf.sample_rate))
        chosen = np.arange(min(max(1, n_profile // hop), n_frames))
    else:
        energy = np.concatenate(
            [(np.abs(spectra(b)) ** 2).sum(axis=1) for b in _blocks(n_frames)]
        )
        chosen = np.argsort(energy)[: max(1, int(0.1 * n_frames))]
    # one running sum over the chosen frames in order, as numpy's axis-0 sum adds them
    noise = np.zeros(m // 2 + 1)
    for b in _blocks(len(chosen)):
        for row in np.abs(spectra(chosen[b])):
            noise += row
    noise /= len(chosen)
    floor = cfg.subtraction_floor * noise

    out = np.zeros(len(padded))
    # out as rows of one hop: frame p covers rows p to p + quarters - 1
    quarters = m // hop
    out_rows = out.reshape(-1, hop)
    for b in _blocks(n_frames):
        spec = spectra(b)
        mags = np.abs(spec)
        cleaned = np.maximum(mags - noise, floor)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gain = cleaned / mags
        bare = ~np.isfinite(gain)  # |X| == 0 (or too small to divide by): no phase to scale
        phase = np.exp(1j * np.angle(spec[bare]))
        gain[bare] = 0.0
        spec *= gain
        spec[bare] = cleaned[bare] * phase
        rebuilt = np.roll(np.fft.irfft(spec, n=m, axis=1), mid, axis=1) * dual
        # the last quarter first, so that every sample adds its frames in frame order
        for q in reversed(range(quarters)):
            out_rows[b.start + q : b.stop + q] += rebuilt[:, q * hop : (q + 1) * hop]
    return replace(buf, samples=out[head : head + len(x)])


def _subtract_frame_range(n: int) -> tuple[int, int]:
    """ShortTimeFFT's (p_min, p_max(n)) for spectral subtraction's framing of n samples.

    Frame p is centred on sample p * SUBTRACT_HOP. The frames run from the
    first whose window reaches sample 0 to the last that reaches sample n - 1;
    the periodic Hann window is zero only at its first sample.
    """
    mid = SUBTRACT_FRAME_LENGTH // 2
    return -((SUBTRACT_FRAME_LENGTH - mid - 1) // SUBTRACT_HOP), (n + mid - 2) // SUBTRACT_HOP + 1


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n samples, as scipy.signal.get_window("hann", n)."""
    if n <= 1:
        return np.ones(n)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:n]


def _dual_window(win: np.ndarray, hop: int) -> np.ndarray:
    """Canonical dual of win at this hop, summed in the order of ShortTimeFFT's dual_win:
    win over the sum of the squared window shifted by every multiple of hop."""
    squared = win**2
    overlap = squared.copy()
    for k in range(hop, len(win), hop):
        overlap[k:] += squared[:-k]
        overlap[:-k] += squared[k:]
    return win / overlap


def normalize(buf: AudioBuffer) -> AudioBuffer:
    """Scale so peak |sample| = 1. All-zero input is returned with silent=True."""
    peak = np.max(np.abs(buf.samples)) if len(buf.samples) else 0.0
    if peak == 0:
        return replace(buf, silent=True)
    return replace(buf, samples=buf.samples / peak)


def preprocess(buf: AudioBuffer, cfg: PreprocessConfig | None = None) -> AudioBuffer:
    """Run the full preprocessing chain in order, on every call: a second
    call on its own output applies pre-emphasis twice. The input is let go
    once it is resampled, so a stem that no caller holds is freed then."""
    cfg = cfg or PreprocessConfig()
    out = resample(buf, cfg.target_rate)
    del buf
    out = truncate(out, cfg.max_duration)
    out = preemphasis(out, cfg.preemphasis_alpha)
    if cfg.denoise and not _too_short_to_denoise(out, cfg):
        out = spectral_subtract(out, cfg)
    out = highpass(out, cfg.highpass_cutoff)
    return normalize(out)
