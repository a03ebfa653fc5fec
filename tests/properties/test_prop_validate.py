"""Property tests: the one-compare MMU fast path agrees with the per-lane check.

``GlobalMemory.validate`` accepts a warp whose lanes all sit, aligned, in
the allocation holding its lowest address; everything else falls through
to ``validate_lanes``.  Over random allocation maps (adjacent allocations,
gaps, freed spans), lane addresses (negative, straddling, past-the-end,
misaligned) and masks (empty, partial, full), both must accept the same
warps and raise the identical ``(address, reason)`` — which must also be
what a lane-by-lane scan of the allocation map predicts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, MemoryViolation
from repro.mem.memory import GlobalMemory
from repro.sass.isa import WARP_SIZE

_HEAP = 1 << 14


@st.composite
def allocation_map(draw) -> GlobalMemory:
    """A memory after a random alloc/free script: back-to-back allocations
    are adjacent; frees leave gaps between live ones."""
    mem = GlobalMemory(_HEAP)
    live: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        if live and draw(st.integers(0, 3)) == 0:
            mem.free(live.pop(draw(st.integers(0, len(live) - 1))))
        else:
            try:
                live.append(mem.alloc(draw(st.integers(1, 1536))))
            except AllocationError:
                pass
    return mem


@st.composite
def lane_addresses(draw, mem: GlobalMemory) -> np.ndarray:
    """Per-lane addresses, mostly near allocation edges."""
    spans = sorted(
        (start, start + size) for start, size in mem.allocator._allocated.items()
    )
    edges = [edge for span in spans for edge in span] or [0]
    # Each warp mixes a few kinds of lane, so warps made only of in-range
    # and past-the-end lanes (no negative one) are common.
    kinds = sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    lanes = []
    for _ in range(WARP_SIZE):
        kind = draw(st.sampled_from(kinds))
        if kind == 0 and spans:  # inside a live allocation, aligned
            start, end = draw(st.sampled_from(spans))
            lanes.append(draw(st.integers(start // 8, (end - 8) // 8)) * 8)
        elif kind == 1:  # straddling / just past an allocation edge
            lanes.append(draw(st.sampled_from(edges)) + draw(st.integers(-12, 12)))
        elif kind == 2:  # negative
            lanes.append(draw(st.integers(-4096, -1)))
        elif kind == 3:  # past the end of the heap
            lanes.append(draw(st.integers(_HEAP - 16, _HEAP + 4096)))
        else:  # anywhere, possibly misaligned
            lanes.append(draw(st.integers(-64, _HEAP + 64)))
    if draw(st.booleans()):
        # Most warps in practice: one base plus a lane stride.
        base = lanes[0]
        stride = draw(st.sampled_from([0, 4, 8]))
        lanes = [base + stride * lane for lane in range(WARP_SIZE)]
    if draw(st.booleans()):
        # Aligned warps reach the membership checks past the alignment one.
        lanes = [lane & ~7 for lane in lanes]
    return np.array(lanes, dtype=np.int64)


masks = st.one_of(
    st.just(np.zeros(WARP_SIZE, dtype=bool)),
    st.just(np.ones(WARP_SIZE, dtype=bool)),
    st.lists(st.booleans(), min_size=WARP_SIZE, max_size=WARP_SIZE).map(
        lambda bits: np.array(bits, dtype=bool)
    ),
)


def _outcome(check, addresses, mask, width):
    try:
        check(addresses, mask, width)
    except MemoryViolation as exc:
        return exc.address, exc.reason
    return None


def _scan(mem: GlobalMemory, addresses, mask, width):
    """Lane-by-lane oracle over the allocator's own map."""
    active = [int(a) for a in addresses[mask]]
    for address in active:
        if address % width:
            return address, "misaligned"
    spans = mem.allocator._allocated.items()
    for address in active:
        if not any(
            start <= address and address + width <= start + size
            for start, size in spans
        ):
            return address, "unmapped"
    return None


@st.composite
def scenario(draw):
    mem = draw(allocation_map())
    return mem, draw(lane_addresses(mem)), draw(masks), draw(st.sampled_from([4, 8]))


class TestValidateFastPath:
    @given(scenario())
    @settings(max_examples=300, deadline=None)
    def test_fast_path_matches_per_lane_check(self, case):
        mem, addresses, mask, width = case
        fast = _outcome(mem.validate, addresses, mask, width)
        reference = _outcome(mem.validate_lanes, addresses, mask, width)
        assert fast == reference
        assert reference == _scan(mem, addresses, mask, width)

    def test_adjacent_allocations_straddle_is_accepted(self):
        mem = GlobalMemory(_HEAP)
        first = mem.alloc(256)
        second = mem.alloc(256)
        assert second == first + 256
        addresses = first + 128 + 8 * np.arange(WARP_SIZE, dtype=np.int64)
        mask = np.ones(WARP_SIZE, dtype=bool)
        mem.validate(addresses, mask, 8)  # spans both: per-lane path accepts

    def test_freed_span_between_live_ones_is_unmapped(self):
        mem = GlobalMemory(_HEAP)
        first = mem.alloc(256)
        middle = mem.alloc(256)
        mem.alloc(256)
        mem.free(middle)
        addresses = first + 4 * np.arange(WARP_SIZE, dtype=np.int64) * 4
        mask = np.ones(WARP_SIZE, dtype=bool)
        assert _outcome(mem.validate, addresses, mask, 4) == (middle, "unmapped")
