"""load_track on WAV files built byte by byte: the RIFF container's edge cases.

Each file is assembled with struct, so that no reader's writer shapes it. Each
case states its expected samples, or the error it must raise: an
AudioLoadError naming the file and, where the reader words the fault, the
fault.
"""

import re
import struct

import numpy as np
import pytest

from detoxaudit import AudioLoadError, load_track

RATE = 8000
# the GUID of a WAVE_FORMAT_EXTENSIBLE subformat after its 4-byte format tag
GUID_TAIL = bytes.fromhex("800000aa00389b71")


def chunk(cid, body, size=None, e="<"):
    """One chunk: id, size (the body's length unless given), body, pad byte if odd."""
    return cid + struct.pack(e + "I", len(body) if size is None else size) + body + b"\0" * (len(body) % 2)


def fmt(tag=1, channels=1, bits=16, align=None, subformat=None, e="<"):
    """A fmt chunk; a subformat makes it WAVE_FORMAT_EXTENSIBLE around that tag."""
    align = channels * -(-bits // 8) if align is None else align
    body = struct.pack(e + "HHIIHH", tag, channels, RATE, RATE * align, align, bits)
    if subformat is not None:
        body += struct.pack(e + "HHIIHH", 22, bits, 0, subformat, 0, 16) + GUID_TAIL
    return chunk(b"fmt ", body, e=e)


def wav(*chunks, kind=b"RIFF", e="<", size=None):
    body = b"WAVE" + b"".join(chunks)
    return kind + struct.pack(e + "I", len(body) if size is None else size) + body


def pcm24(values, e="<"):
    """Signed 24-bit samples, 3 bytes each."""
    order = "little" if e == "<" else "big"
    return b"".join(int(v).to_bytes(3, order, signed=True) for v in values)


def load(tmp_path, raw, name="x.wav"):
    path = tmp_path / name
    path.write_bytes(raw)
    return load_track(path)


def refused(tmp_path, raw, fault="", name="bad.wav"):
    """load_track refuses raw with an AudioLoadError naming the file and fault."""
    path = tmp_path / name
    path.write_bytes(raw)
    with pytest.raises(AudioLoadError, match=re.escape(name)) as info:
        load_track(path)
    assert re.search(fault, str(info.value), re.IGNORECASE), str(info.value)


INT16 = np.array([-32768, -1, 0, 1, 32767])
INT24 = np.array([-(2**23), -1, 0, 1, 2**23 - 1])


class TestEncodings:
    def test_int16(self, tmp_path):
        buf = load(tmp_path, wav(fmt(), chunk(b"data", INT16.astype("<i2").tobytes())))
        assert buf.samples.tolist() == (INT16 / 32768).tolist()
        assert buf.sample_rate == RATE

    def test_12_bit_pcm_reads_as_int16(self, tmp_path):
        samples = INT16 & ~0xF  # left-justified in 16 bits
        buf = load(tmp_path, wav(fmt(bits=12), chunk(b"data", samples.astype("<i2").tobytes())))
        assert buf.samples.tolist() == (samples / 32768).tolist()

    @pytest.mark.parametrize("bits", (20, 24))
    def test_3_byte_pcm_is_left_justified(self, tmp_path, bits):
        samples = INT24 & ~0xF if bits == 20 else INT24
        buf = load(tmp_path, wav(fmt(bits=bits), chunk(b"data", pcm24(samples))))
        assert buf.samples.tolist() == (samples * 256 / 2**31).tolist()

    def test_24_bit_stereo_folds(self, tmp_path):
        frames = np.array([[-(2**23), 2**23 - 1], [5, -3], [0, 1]])
        buf = load(tmp_path, wav(fmt(channels=2, bits=24), chunk(b"data", pcm24(frames.ravel()))))
        assert buf.samples.tolist() == (frames.sum(axis=1) * 256 / 2 / 2**31).tolist()

    def test_32_bit_pcm(self, tmp_path):
        samples = np.array([-(2**31), -1, 0, 2**31 - 1])
        buf = load(tmp_path, wav(fmt(bits=32), chunk(b"data", samples.astype("<i4").tobytes())))
        assert buf.samples.tolist() == (samples / 2**31).tolist()

    def test_8_bit_pcm_is_unsigned(self, tmp_path):
        buf = load(tmp_path, wav(fmt(bits=8), chunk(b"data", bytes([0, 128, 255]))))
        assert buf.samples.tolist() == [-1.0, 0.0, 127 / 128]

    @pytest.mark.parametrize("bits, dtype", ((32, "<f4"), (64, "<f8")))
    def test_ieee_float(self, tmp_path, bits, dtype):
        samples = np.array([-1.5, -0.25, 0.0, 0.125, 2.0])
        buf = load(tmp_path, wav(fmt(tag=3, bits=bits), chunk(b"data", samples.astype(dtype).tobytes())))
        assert buf.samples.tolist() == samples.tolist()

    def test_extensible_pcm(self, tmp_path):
        frames = np.array([[-32768, 32767], [100, 300], [7, 8]])
        raw = wav(fmt(0xFFFE, channels=2, subformat=1), chunk(b"data", frames.astype("<i2").tobytes()))
        assert load(tmp_path, raw).samples.tolist() == (frames.sum(axis=1) / 2 / 32768).tolist()

    def test_extensible_float(self, tmp_path):
        samples = np.array([0.5, -0.75, 0.0])
        raw = wav(fmt(0xFFFE, bits=32, subformat=3), chunk(b"data", samples.astype("<f4").tobytes()))
        assert load(tmp_path, raw).samples.tolist() == samples.tolist()


class TestContainers:
    def test_rifx_is_big_endian(self, tmp_path):
        frames = np.array([[-32768, 32767], [1, 2]])
        raw = wav(fmt(channels=2, e=">"), chunk(b"data", frames.astype(">i2").tobytes(), e=">"), kind=b"RIFX", e=">")
        assert load(tmp_path, raw).samples.tolist() == (frames.sum(axis=1) / 2 / 32768).tolist()

    def test_rifx_24_bit(self, tmp_path):
        raw = wav(fmt(bits=24, e=">"), chunk(b"data", pcm24(INT24, ">"), e=">"), kind=b"RIFX", e=">")
        assert load(tmp_path, raw).samples.tolist() == (INT24 * 256 / 2**31).tolist()

    def test_rifx_extensible_float(self, tmp_path):
        samples = np.array([0.5, -0.75])
        data = chunk(b"data", samples.astype(">f8").tobytes(), e=">")
        raw = wav(fmt(0xFFFE, bits=64, subformat=3, e=">"), data, kind=b"RIFX", e=">")
        assert load(tmp_path, raw).samples.tolist() == samples.tolist()

    def test_rf64_takes_sizes_from_ds64(self, tmp_path):
        data = INT16.astype("<i2").tobytes()
        tail = b"WAVE" + fmt() + b"data" + b"\xff" * 4 + data
        ds64 = b"ds64" + struct.pack("<IQQQI", 28, 36 + len(tail), len(data), len(INT16), 0)
        raw = b"RF64" + b"\xff" * 4 + tail[:4] + ds64 + tail[4:]
        assert load(tmp_path, raw).samples.tolist() == (INT16 / 32768).tolist()


class TestChunkLayout:
    def test_odd_sized_list_before_data_is_skipped_with_its_pad_byte(self, tmp_path):
        raw = wav(fmt(), chunk(b"LIST", b"INFOx"), chunk(b"data", INT16.astype("<i2").tobytes()))
        assert load(tmp_path, raw).samples.tolist() == (INT16 / 32768).tolist()

    def test_unknown_chunks_are_skipped(self, tmp_path):
        raw = wav(chunk(b"JUNK", b"\0" * 6), fmt(), chunk(b"fact", b"\5\0\0\0"), chunk(b"data", b"\1\0"))
        assert load(tmp_path, raw).samples.tolist() == [1 / 32768]

    def test_trailing_bytes_after_the_riff_are_ignored(self, tmp_path):
        raw = wav(fmt(), chunk(b"data", INT16.astype("<i2").tobytes())) + b"junk!"
        assert load(tmp_path, raw).samples.tolist() == (INT16 / 32768).tolist()

    def test_of_two_data_chunks_the_first_is_read(self, tmp_path):
        raw = wav(fmt(), chunk(b"data", b"\1\0\2\0"), chunk(b"data", b"\7\0"))
        assert load(tmp_path, raw).samples.tolist() == [1 / 32768, 2 / 32768]

    def test_riff_size_zero_loads(self, tmp_path):
        # as a streaming writer leaves it: the chunk walk does not read the RIFF's size
        raw = wav(fmt(), chunk(b"data", INT16.astype("<i2").tobytes()), size=0)
        assert load(tmp_path, raw).samples.tolist() == (INT16 / 32768).tolist()

    def test_bytes_after_the_data_chunk_are_not_read(self, tmp_path):
        # a float64 chunk of 20 bytes: two samples, then the 4 bytes "data". Followed by
        # a size and a third sample, those 4 bytes would read as a second data chunk
        body = np.array([0.5, -0.25]).astype("<f8").tobytes() + b"data"
        stray = struct.pack("<I", 8) + np.array([0.75]).astype("<f8").tobytes()
        raw = wav(fmt(tag=3, bits=64), chunk(b"data", body), stray)
        assert load(tmp_path, raw).samples.tolist() == [0.5, -0.25]

    def test_3_byte_samples_ignore_bytes_after_the_last_whole_one(self, tmp_path):
        raw = wav(fmt(bits=24), chunk(b"data", pcm24([1, -1]) + b"\7"))
        assert load(tmp_path, raw).samples.tolist() == [256 / 2**31, -256 / 2**31]

    def test_a_data_chunk_after_the_riff_is_ignored(self, tmp_path):
        raw = wav(fmt(), chunk(b"data", b"\1\0\2\0")) + chunk(b"data", b"\7\0")
        assert load(tmp_path, raw).samples.tolist() == [1 / 32768, 2 / 32768]

    def test_truncated_data_chunk_warns_and_keeps_whole_samples(self, tmp_path):
        # the header declares ten samples; three and one byte of a fourth are present
        raw = wav(fmt(), chunk(b"data", b"\1\0\2\0\3\0\4", size=20)[:-1], size=4 + 24 + 8 + 20)
        with pytest.warns(UserWarning, match="(?i)EOF prematurely"):
            buf = load(tmp_path, raw)
        assert buf.samples.tolist() == [1 / 32768, 2 / 32768, 3 / 32768]

    def test_float64_cut_inside_a_sample_keeps_the_whole_ones(self, tmp_path):
        # five bytes of the third sample remain: no chunk header is read from them
        data = np.array([0.5, -0.25, 1.0]).astype("<f8").tobytes()[:21]
        raw = wav(fmt(tag=3, bits=64), chunk(b"data", data, size=24)[:-1], size=4 + 24 + 8 + 24)
        with pytest.warns(UserWarning, match="(?i)EOF prematurely"):
            assert load(tmp_path, raw).samples.tolist() == [0.5, -0.25]

    def test_a_partial_chunk_header_after_the_data_is_ignored(self, tmp_path):
        raw = wav(fmt(), chunk(b"data", b"\1\0"), b"LI")
        assert load(tmp_path, raw).samples.tolist() == [1 / 32768]

    @pytest.mark.parametrize("length", (5, 6, 7))
    def test_a_chunk_id_and_part_of_its_size_after_the_data_are_ignored(self, tmp_path, length):
        raw = wav(fmt(), chunk(b"data", b"\1\0"), b"LIST\4\0\0"[:length])
        assert load(tmp_path, raw).samples.tolist() == [1 / 32768]

    def test_stereo_cut_mid_frame_keeps_whole_frames(self, tmp_path):
        # the header declares three frames; one and the left sample of a second are present
        raw = wav(fmt(channels=2), chunk(b"data", b"\1\0\3\0\5\0", size=12), size=4 + 24 + 8 + 12)
        with pytest.warns(UserWarning, match="(?i)EOF prematurely"):
            assert load(tmp_path, raw).samples.tolist() == [2 / 32768]


class TestRefusals:
    @pytest.mark.parametrize("tag", (6, 7, 2, 0x55))  # A-law, mu-law, MS ADPCM, MPEG layer 3
    def test_other_format_tags(self, tmp_path, tag):
        refused(tmp_path, wav(fmt(tag, bits=8), chunk(b"data", b"\1\2\3\4")), "PCM.*IEEE.?float")

    def test_extensible_with_another_subformat(self, tmp_path):
        refused(tmp_path, wav(fmt(0xFFFE, bits=8, subformat=7), chunk(b"data", b"\1\2")), "PCM.*IEEE.?float")

    def test_16_bit_float(self, tmp_path):
        refused(tmp_path, wav(fmt(tag=3, bits=16), chunk(b"data", b"\0\0\0\0")), "16-bit")

    def test_40_bit_pcm(self, tmp_path):
        refused(tmp_path, wav(fmt(bits=40), chunk(b"data", b"\0" * 10)), "unsupported sample encoding int(40|64)")

    @pytest.mark.parametrize(
        "tag, bits, align, kind",
        ((1, 8, 2, "int16 (8-bit"), (1, 8, 8, "int64 (8-bit"), (1, 24, 2, "int16 (24-bit"), (3, 32, 8, "float64 (32-bit")),
    )
    def test_bits_that_do_not_fit_their_sample_width(self, tmp_path, tag, bits, align, kind):
        raw = wav(fmt(tag, bits=bits, align=align), chunk(b"data", b"\1" * 2 * align))
        refused(tmp_path, raw, "unsupported sample encoding " + re.escape(kind))

    def test_partial_last_frame(self, tmp_path):
        refused(tmp_path, wav(fmt(channels=2), chunk(b"data", b"\1\0\2\0\3\0")))

    def test_data_before_fmt(self, tmp_path):
        refused(tmp_path, wav(chunk(b"data", b"\1\0"), fmt()), "no fmt chunk before data")

    def test_no_data_chunk(self, tmp_path):
        refused(tmp_path, wav(fmt(), chunk(b"LIST", b"INFO")))

    def test_zero_channels(self, tmp_path):
        refused(tmp_path, wav(fmt(channels=0, align=2), chunk(b"data", b"\1\0")))

    def test_byte_rate_not_rate_times_block_align(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 1, RATE, RATE * 2 + 1, 2, 16)
        refused(tmp_path, wav(chunk(b"fmt ", body), chunk(b"data", b"\1\0")), "nAvgBytesPerSec")

    def test_fmt_chunk_shorter_than_16_bytes(self, tmp_path):
        body = struct.pack("<HHIIH", 1, 1, RATE, RATE * 2, 2)
        refused(tmp_path, wav(chunk(b"fmt ", body), chunk(b"data", b"\1\0")))

    def test_rf64_without_ds64(self, tmp_path):
        refused(tmp_path, b"RF64" + b"\xff" * 4 + b"WAVE" + fmt() + chunk(b"data", b"\1\0"))

    def test_sample_rate_zero(self, tmp_path):
        body = struct.pack("<HHIIHH", 3, 1, 0, 0, 4, 32)
        refused(tmp_path, wav(chunk(b"fmt ", body), chunk(b"data", b"\0" * 4)))

    def test_not_a_wave_file(self, tmp_path):
        refused(tmp_path, b"OggS" + b"\0" * 40)

    def test_directory(self, tmp_path):
        (tmp_path / "dir.wav").mkdir()
        with pytest.raises(AudioLoadError, match="dir.wav"):
            load_track(tmp_path / "dir.wav")
