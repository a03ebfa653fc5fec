"""Unit tests for global/shared/constant memory with MMU checks."""

import numpy as np
import pytest

from repro.errors import MemoryViolation
from repro.mem.memory import (
    PAGE_SHIFT,
    PAGE_SIZE,
    ConstantBank,
    GlobalMemory,
    SharedMemory,
)


def _lanes(values) -> np.ndarray:
    out = np.zeros(32, dtype=np.int64)
    out[: len(values)] = values
    return out


def _mask(count: int) -> np.ndarray:
    mask = np.zeros(32, dtype=bool)
    mask[:count] = True
    return mask


class TestGlobalMemory:
    def test_host_roundtrip(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.write_bytes(block, b"\x01\x02\x03\x04")
        assert mem.read_bytes(block, 4) == b"\x01\x02\x03\x04"

    def test_load32_gather(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.write_bytes(block, np.arange(16, dtype=np.uint32).tobytes())
        addrs = _lanes([block, block + 4, block + 60])
        out = mem.load32(addrs, _mask(3))
        assert list(out[:3]) == [0, 1, 15]

    def test_store32_scatter(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        addrs = _lanes([block + 8, block + 12])
        values = np.zeros(32, dtype=np.uint32)
        values[0], values[1] = 7, 9
        mem.store32(addrs, _mask(2), values)
        raw = np.frombuffer(mem.read_bytes(block, 16), dtype=np.uint32)
        assert raw[2] == 7 and raw[3] == 9

    def test_load64(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.write_bytes(block, np.array([0x1122334455667788], np.uint64).tobytes())
        out = mem.load64(_lanes([block]), _mask(1))
        assert out[0] == 0x1122334455667788

    def test_misaligned_raises(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        with pytest.raises(MemoryViolation, match="misaligned"):
            mem.load32(_lanes([block + 2]), _mask(1))

    def test_unmapped_raises(self):
        mem = GlobalMemory(1 << 16)
        mem.alloc(64)
        with pytest.raises(MemoryViolation, match="unmapped"):
            mem.load32(_lanes([0x8000]), _mask(1))

    def test_null_pointer_raises(self):
        mem = GlobalMemory(1 << 16)
        mem.alloc(64)
        with pytest.raises(MemoryViolation):
            mem.load32(_lanes([0]), _mask(1))

    def test_straddling_allocation_end_raises(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)  # rounds to 256
        with pytest.raises(MemoryViolation, match="unmapped"):
            mem.load32(_lanes([block + 256]), _mask(1))

    def test_freed_memory_raises(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.free(block)
        with pytest.raises(MemoryViolation, match="unmapped"):
            mem.load32(_lanes([block]), _mask(1))

    def test_inactive_lanes_not_checked(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        addrs = _lanes([block, 0xDEAD1])  # lane 1 bad but inactive
        out = mem.load32(addrs, _mask(1))
        assert out.shape == (32,)

    def test_misaligned_64bit(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        with pytest.raises(MemoryViolation, match="misaligned"):
            mem.load64(_lanes([block + 4]), _mask(1))


class TestDirtyPageTracking:
    """Edge cases of the write-tracking window that golden-replay recording
    and tail fast-forward divergence tracking both depend on."""

    def _tracked(self, size=1 << 16) -> GlobalMemory:
        mem = GlobalMemory(size)
        mem.begin_write_tracking()
        return mem

    def test_host_write_straddles_pages(self):
        """``write_bytes`` has no alignment contract: a payload crossing a
        page boundary must dirty every page it touches."""
        mem = GlobalMemory(1 << 16)
        mem.alloc(4 * PAGE_SIZE)
        mem.begin_write_tracking()
        mem.write_bytes(PAGE_SIZE - 1, b"\xaa" * (PAGE_SIZE + 2))  # pages 0..2
        assert mem.end_write_tracking().tolist() == [0, 1, 2]

    def test_host_write_single_byte_at_page_end(self):
        mem = self._tracked()
        mem.write_bytes(2 * PAGE_SIZE - 1, b"\x01")
        assert mem.end_write_tracking().tolist() == [1]

    def test_empty_host_write_dirties_nothing(self):
        mem = self._tracked()
        mem.write_bytes(0, b"")
        assert mem.end_write_tracking().size == 0

    def test_aligned_stores_cannot_straddle(self):
        """The tracking soundness argument: an aligned W-byte store
        (W divides PAGE_SIZE) starts and ends on the same page, so
        store32/store64/note_stores may page-index starting addresses only."""
        for width in (4, 8):
            assert PAGE_SIZE % width == 0
            last_aligned = PAGE_SIZE - width  # the worst case on any page
            assert (last_aligned >> PAGE_SHIFT) == (
                (last_aligned + width - 1) >> PAGE_SHIFT
            )

    def test_store32_at_page_edges(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(2 * PAGE_SIZE)
        assert block % PAGE_SIZE == 0  # allocator returns page-aligned blocks
        mem.begin_write_tracking()
        # Last word of the first page and first word of the second.
        addrs = _lanes([block + PAGE_SIZE - 4, block + PAGE_SIZE])
        mem.store32(addrs, _mask(2), np.ones(32, dtype=np.uint32))
        pages = mem.end_write_tracking()
        assert pages.tolist() == [block >> PAGE_SHIFT, (block >> PAGE_SHIFT) + 1]

    def test_store64_tracks_start_page_only(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(2 * PAGE_SIZE)
        mem.begin_write_tracking()
        addrs = np.zeros(32, dtype=np.int64)
        addrs[0] = block + PAGE_SIZE - 8  # aligned: stays on the first page
        mem.store64(addrs, _mask(1), np.full(32, 0xAB, dtype=np.uint64))
        assert mem.end_write_tracking().tolist() == [block >> PAGE_SHIFT]

    def test_note_stores_ignores_inactive_lanes(self):
        """Atomics report via note_stores; masked-off lanes must not dirty
        their (possibly garbage) addresses."""
        mem = self._tracked()
        addrs = _lanes([3 * PAGE_SIZE, 0xDEAD00])  # lane 1 inactive
        mem.note_stores(addrs, _mask(1))
        assert mem.end_write_tracking().tolist() == [3]

    def test_note_stores_outside_window_is_free(self):
        mem = GlobalMemory(1 << 16)
        mem.note_stores(_lanes([0]), _mask(1))  # no window: no-op
        mem.begin_write_tracking()
        assert mem.end_write_tracking().size == 0

    def test_windows_are_independent(self):
        """A second window must not resurface the first window's pages."""
        mem = self._tracked()
        mem.write_bytes(0, b"\x01")
        assert mem.end_write_tracking().tolist() == [0]
        mem.begin_write_tracking()
        mem.write_bytes(5 * PAGE_SIZE, b"\x01")
        assert mem.end_write_tracking().tolist() == [5]


class TestDiffPages:
    def test_reports_only_differing_candidates(self):
        mem = GlobalMemory(1 << 16)
        shadow = mem.data.copy()
        mem.data[3 * PAGE_SIZE] ^= 0xFF  # page 3 diverges
        candidates = np.array([1, 3, 7], dtype=np.int64)
        assert mem.diff_pages(shadow, candidates).tolist() == [3]

    def test_single_bit_difference_detected(self):
        mem = GlobalMemory(1 << 16)
        shadow = mem.data.copy()
        mem.data[5 * PAGE_SIZE + PAGE_SIZE - 1] ^= 0x01  # last byte, one bit
        assert mem.diff_pages(shadow, np.array([5], np.int64)).tolist() == [5]

    def test_divergence_outside_candidates_unreported(self):
        """diff_pages only examines the candidate set — the caller owns the
        invariant that every possibly-divergent page is a candidate."""
        mem = GlobalMemory(1 << 16)
        shadow = mem.data.copy()
        mem.data[2 * PAGE_SIZE] ^= 0xFF
        assert mem.diff_pages(shadow, np.array([0, 1], np.int64)).size == 0

    def test_empty_candidates(self):
        mem = GlobalMemory(1 << 16)
        out = mem.diff_pages(mem.data.copy(), np.empty(0, dtype=np.int64))
        assert out.size == 0


class TestSharedMemory:
    def test_roundtrip(self):
        shared = SharedMemory(128)
        values = np.zeros(32, dtype=np.uint32)
        values[0] = 42
        shared.store32(_lanes([16]), _mask(1), values)
        assert shared.load32(_lanes([16]), _mask(1))[0] == 42

    def test_out_of_bounds(self):
        shared = SharedMemory(128)
        with pytest.raises(MemoryViolation, match="out-of-bounds"):
            shared.load32(_lanes([128]), _mask(1))

    def test_misaligned(self):
        shared = SharedMemory(128)
        with pytest.raises(MemoryViolation, match="misaligned"):
            shared.load32(_lanes([3]), _mask(1))


class TestConstantBank:
    def test_params_visible(self):
        bank = ConstantBank()
        bank.write_params([10, 20, 0xFFFFFFFF])
        assert bank.read32(0) == 10
        assert bank.read32(4) == 20
        assert bank.read32(8) == 0xFFFFFFFF

    def test_vector_load(self):
        bank = ConstantBank()
        bank.write_params([5, 6])
        out = bank.load32(_lanes([0, 4]), _mask(2))
        assert list(out[:2]) == [5, 6]

    def test_out_of_bounds_read(self):
        bank = ConstantBank(size=16)
        with pytest.raises(MemoryViolation):
            bank.read32(16)

    def test_misaligned_read(self):
        bank = ConstantBank()
        with pytest.raises(MemoryViolation):
            bank.read32(2)

    def test_vector_load_reports_offending_lane(self):
        bank = ConstantBank(size=64)
        offsets = _lanes([0, 4, 8, 12, 16, 66, 2, 128])
        with pytest.raises(MemoryViolation) as info:
            bank.load32(offsets, _mask(8))
        assert info.value.address == 66  # lane 5, not lane 0's offset 0
        assert info.value.reason == "out-of-bounds"
