import os
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshift import (
    BitsExhaustedError,
    FileBitSource,
    GuardLimitError,
    OsEntropyBitSource,
    SeededBitSource,
    load_bit_file,
    parse_bit_source,
)
from latshift.bits import SplitMix64

# reference outputs of the SplitMix64 finalizer; these pin the generator
# across platforms and releases
SPLITMIX_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)
SPLITMIX_SEED1 = (
    0x910A2DEC89025CC1,
    0xBEEB8DA1658EEC67,
    0xF893A2EEFB32555E,
    0x71C18690EE42C90B,
)


DRAW_SIZES = st.lists(st.integers(1, 200), min_size=1, max_size=24)


def drained(src, sizes) -> str:
    """The draws of the given sizes, each written out first bit first,
    until the source is exhausted; exhaustion raises at the first draw
    larger than what is left, and that draw consumes nothing."""
    out = []
    for n in sizes:
        before = src.bits_consumed
        try:
            out.append(format(src.draw(n), f"0{n}b"))
        except BitsExhaustedError:
            assert src.bits_consumed == before
    return "".join(out)


def fitting(sizes, available: int) -> int:
    """How many bits the draws of the given sizes take from a finite
    stream: each draw that fits, in order."""
    total = 0
    for n in sizes:
        if total + n <= available:
            total += n
    return total


class TestSplitMix64:
    def test_pinned_vectors(self):
        gen = SplitMix64(0)
        assert tuple(gen.next64() for _ in range(4)) == SPLITMIX_SEED0
        gen = SplitMix64(1)
        assert tuple(gen.next64() for _ in range(4)) == SPLITMIX_SEED1


class TestSeededBitSource:
    def test_same_seed_same_stream(self):
        a = SeededBitSource(12345)
        b = SeededBitSource(12345)
        assert a.draw(97) == b.draw(97)
        assert a.draw(13) == b.draw(13)

    def test_stream_is_word_expansion_msb_first(self):
        src = SeededBitSource(0)
        word = SPLITMIX_SEED0[0]
        assert src.draw(64) == word
        # a draw across a word boundary: the last 4 bits of word 0, the
        # first 8 of word 1, the first bit highest
        src = SeededBitSource(0)
        src.draw(60)
        assert src.draw(12) == (word & 0xF) << 8 | SPLITMIX_SEED0[1] >> 56

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), sizes=DRAW_SIZES)
    def test_draws_concatenate_to_the_word_stream(self, seed, sizes):
        gen = SplitMix64(seed)
        words = "".join(f"{gen.next64():064b}" for _ in range(-(-sum(sizes) // 64)))
        src = SeededBitSource(seed)
        assert drained(src, sizes) == words[: sum(sizes)]
        assert src.bits_consumed == sum(sizes)

    def test_consumption_accounting(self):
        src = SeededBitSource(7)
        src.draw(5)
        src.draw(12)
        assert src.bits_consumed == 17

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            SeededBitSource(7).draw(0)

    def test_statistical_smoke(self):
        src = SeededBitSource(2024)
        n = 100_000
        mean = src.draw(n).bit_count() / n
        assert abs(mean - 0.5) < 0.01


class TestOsEntropySource:
    def test_draw_shape_and_accounting(self):
        src = OsEntropyBitSource()
        bits = src.draw(1000)
        assert 0 <= bits < 1 << 1000
        assert src.bits_consumed == 1000

    def test_statistical_smoke(self):
        # 0.01 is ~6 sigma at this sample size; not a randomness test
        src = OsEntropyBitSource()
        n = 100_000
        mean = src.draw(n).bit_count() / n
        assert abs(mean - 0.5) < 0.01


class TestFileBitSource:
    def test_ascii_read_off(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("0101")
        src = load_bit_file(p)
        assert src.draw(4) == 0b0101

    def test_ascii_skips_whitespace(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("10 10\n1\t1\n")
        assert load_bit_file(p).draw(6) == 0b101011

    def test_ascii_invalid_character(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("01 01x2")
        with pytest.raises(ValueError) as exc:
            load_bit_file(p)
        # the message names the first bad character in file order
        assert str(exc.value) == f"invalid character 'x' in ascii01 bit file {p}"

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text(" \n ")
        with pytest.raises(ValueError, match="no bits"):
            load_bit_file(p)
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="no bits"):
            load_bit_file(p, "raw")

    @pytest.mark.parametrize("fmt, size, count", [
        ("raw", (1 << 23) + 1, "67108872 bits"),
        ("ascii01", (1 << 26) + 1, "67108865 bytes"),
    ])
    def test_oversized_file_refused_before_reading(self, tmp_path, fmt, size, count):
        # sparse files: their size alone passes the guard, and no byte is read
        p = tmp_path / "bits"
        p.touch()
        os.truncate(p, size)
        with pytest.raises(GuardLimitError, match=f"^{count} of {fmt} bit file .* exceed the 2\\^26 guard"):
            load_bit_file(p, fmt)

    def test_raw_bytes_msb_first(self, tmp_path):
        p = tmp_path / "bits.bin"
        p.write_bytes(bytes([0xA0]))
        assert load_bit_file(p, "raw").draw(8) == 0b10100000
        # leading zero bytes are bits too
        p.write_bytes(bytes([0, 0x01]))
        src = load_bit_file(p, "raw")
        assert src.draw(15) == 0 and src.draw(1) == 1

    def test_exhaustion(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("0" * 11)
        src = load_bit_file(p)
        with pytest.raises(BitsExhaustedError) as exc:
            src.draw(12)
        assert str(exc.value) == f"bit file {p} exhausted: 12 requested, 11 left"
        # a failed draw consumes nothing
        assert src.bits_consumed == 0
        assert src.draw(11) == 0

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("01")
        with pytest.raises(ValueError, match="unknown bit file format"):
            load_bit_file(p, "hex")

    @settings(max_examples=150, deadline=None)
    @given(
        chunks=st.lists(
            st.tuples(st.text("01", max_size=90), st.sampled_from(["", " ", "\n", "\t", "\r\n", " \n "])),
            min_size=1,
            max_size=12,
        ),
        sizes=DRAW_SIZES,
    )
    def test_ascii01_draws_concatenate_to_the_file(self, tmp_path_factory, chunks, sizes):
        bits = "".join(c for c, _ in chunks)
        if not bits:
            return
        p = tmp_path_factory.mktemp("ascii") / "bits.txt"
        p.write_text("".join(c + w for c, w in chunks))
        src = load_bit_file(p)
        got = drained(src, sizes)
        assert got == bits[: fitting(sizes, len(bits))]
        assert src.bits_consumed == len(got)

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(min_size=1, max_size=120), sizes=DRAW_SIZES)
    def test_raw_draws_concatenate_to_the_file(self, tmp_path_factory, data, sizes):
        bits = "".join(f"{b:08b}" for b in data)
        p = tmp_path_factory.mktemp("raw") / "bits.bin"
        p.write_bytes(data)
        src = load_bit_file(p, "raw")
        got = drained(src, sizes)
        assert got == bits[: fitting(sizes, len(bits))]
        assert src.bits_consumed == len(got)

    def test_memory_source_holds_only_bits(self):
        # int(piece, 2) alone would accept '_', a sign or surrounding spaces
        for text in ("1_0", "+1", " 1", "10\n"):
            with pytest.raises(ValueError, match="invalid character"):
                FileBitSource(text)

    def test_draw_above_the_int_digit_limit(self, tmp_path):
        # 10^4 bits, above the 4300-digit limit of int(); base 2 is exempt
        data = random.Random(3).randbytes(1250)
        word = int.from_bytes(data, "big")
        p = tmp_path / "bits.bin"
        p.write_bytes(data)
        assert load_bit_file(p, "raw").draw(10_000) == word
        p = tmp_path / "bits.txt"
        p.write_text(f"{word:010000b}")
        src = load_bit_file(p)
        assert src.draw(1) == word >> 9999
        assert src.draw(9999) == word & ((1 << 9999) - 1)

    def test_megabyte_raw_file_drains_in_linear_time(self, tmp_path):
        # 2^23 bits in 13-bit draws: a draw that shifted or masked one
        # file-sized int would make this quadratic (tens of seconds)
        data = random.Random(23).randbytes(1 << 20)
        p = tmp_path / "bits.bin"
        p.write_bytes(data)
        n_draws = (8 << 20) // 13
        deadline = time.perf_counter() + 10.0
        src = load_bit_file(p, "raw")
        draws = []
        while len(draws) < n_draws:
            # checked as it goes, so that a quadratic draw fails in seconds
            draws += [src.draw(13) for _ in range(min(64, n_draws - len(draws)))]
            assert time.perf_counter() < deadline
        tail = src.draw((8 << 20) % 13)
        with pytest.raises(BitsExhaustedError):
            src.draw(1)
        bits = f"{int.from_bytes(data, 'big'):0{8 << 20}b}"
        assert "".join(f"{v:013b}" for v in draws) + f"{tail:07b}" == bits

    def test_megabyte_raw_file_loads_in_small_memory(self, tmp_path):
        # one byte a bit for the held string, about 9 MB in all; bits held
        # as a tuple of ints took about 130 MB here
        p = tmp_path / "bits.bin"
        p.write_bytes(random.Random(23).randbytes(1 << 20))
        tracemalloc.start()
        try:
            src = load_bit_file(p, "raw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert src.draw(8) >= 0
        assert peak < 24 << 20

    def test_never_wraps(self):
        src = FileBitSource("101")
        assert src.draw(3) == 0b101
        with pytest.raises(BitsExhaustedError):
            src.draw(1)


class TestParseBitSource:
    def test_seed_spec(self):
        src = parse_bit_source("seed:42")
        assert isinstance(src, SeededBitSource) and src.seed == 42

    def test_os_spec(self):
        assert isinstance(parse_bit_source("os"), OsEntropyBitSource)

    def test_file_spec_with_format(self, tmp_path):
        p = tmp_path / "b.bin"
        p.write_bytes(bytes([0xFF]))
        src = parse_bit_source(f"file:{p}:raw")
        assert src.draw(8) == 0xFF

    def test_file_spec_default_format(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("110")
        assert parse_bit_source(f"file:{p}").draw(3) == 0b110

    @pytest.mark.parametrize("spec", ["seed:x", "file:", "urandom", ""])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_bit_source(spec)
