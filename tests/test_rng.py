import os
import pathlib
import subprocess
import sys

import epicsim
from epicsim.rng import SplitMix64, derive_seed, mix64

# Reference outputs of the standard SplitMix64 sequence from state 0.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_known_sequence_from_zero_seed():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == SEED0_OUTPUTS


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_unit_draw_in_range():
    rng = SplitMix64(7)
    for _ in range(1000):
        u = rng.next_unit()
        assert 0.0 <= u < 1.0


def test_fill_bytes_matches_scalar_stream():
    for size in (0, 1, 7, 8, 9, 64, 1000, 4097):
        vec = SplitMix64(size + 5)
        ref = SplitMix64(size + 5)
        blk = vec.fill_bytes(size)
        expect = b""
        while len(expect) < size:
            expect += ref.next_u64().to_bytes(8, "little")
        assert blk == expect[:size]
        assert vec.next_u64() == ref.next_u64()  # stream positions agree afterwards


def test_fill_bytes_interleaves_with_scalar_draws():
    a = SplitMix64(3)
    b = SplitMix64(3)
    seq_a = (a.next_u64(), a.fill_bytes(16), a.next_u64())
    seq_b = (
        b.next_u64(),
        b.next_u64().to_bytes(8, "little") + b.next_u64().to_bytes(8, "little"),
        b.next_u64(),
    )
    assert seq_a == seq_b


def test_derive_seed_is_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(5, 9) == derive_seed(5, 9)


def test_mix64_is_deterministic_and_64bit():
    assert 0 <= mix64(2**64 - 1) < 2**64
    assert mix64(12345) == mix64(12345)


def test_import_epicsim_leaves_numpy_unloaded():
    """numpy is imported by `fill_bytes` only, so a run that never fills bytes skips its set-up."""
    src = str(pathlib.Path(epicsim.__file__).resolve().parents[1])
    probe = "import sys, epicsim; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
