"""S2R / CS2R special-register reads.

``_read_special`` serves launch constants from the shared read-only
immediate cache and ``SR_TID.*`` from the warp's read-only thread-id rows
instead of building a table of fresh ``np.full`` arrays per call.  These
tests pin every register's lane values against that per-call table, and
check that the shared arrays can be neither mutated nor aliased through
the destination register.
"""

import numpy as np
import pytest

from repro.errors import DeviceTrap
from repro.gpusim.context import ExecContext
from repro.gpusim.exec_units import HANDLERS, _read_special
from repro.gpusim.sm import _build_warps
from repro.sass import assemble
from repro.sass.isa import SPECIAL_REGISTERS, WARP_SIZE
from tests.conftest import read_u32

_KERNEL = assemble(
    """
.kernel k
    S2R R1, SR_TID.X ;
    EXIT ;
"""
).get("k")


def _ctx(clock) -> ExecContext:
    return ExecContext(
        global_mem=None,
        shared=None,
        const=None,
        ctaid=(5, 2, 1),
        ntid=(12, 5, 2),
        nctaid=(7, 3, 2),
        sm_id=3,
        grid_id=11,
        clock=clock,
    )


def _reference(warp, name: str) -> np.ndarray:
    """The historical per-call table of fresh arrays."""
    ctx = warp.ctx
    table = {
        "SR_TID.X": warp.tid_x,
        "SR_TID.Y": warp.tid_y,
        "SR_TID.Z": warp.tid_z,
        "SR_CTAID.X": np.full(WARP_SIZE, ctx.ctaid[0], dtype=np.uint32),
        "SR_CTAID.Y": np.full(WARP_SIZE, ctx.ctaid[1], dtype=np.uint32),
        "SR_CTAID.Z": np.full(WARP_SIZE, ctx.ctaid[2], dtype=np.uint32),
        "SR_NTID.X": np.full(WARP_SIZE, ctx.ntid[0], dtype=np.uint32),
        "SR_NTID.Y": np.full(WARP_SIZE, ctx.ntid[1], dtype=np.uint32),
        "SR_NTID.Z": np.full(WARP_SIZE, ctx.ntid[2], dtype=np.uint32),
        "SR_NCTAID.X": np.full(WARP_SIZE, ctx.nctaid[0], dtype=np.uint32),
        "SR_NCTAID.Y": np.full(WARP_SIZE, ctx.nctaid[1], dtype=np.uint32),
        "SR_NCTAID.Z": np.full(WARP_SIZE, ctx.nctaid[2], dtype=np.uint32),
        "SR_SMID": np.full(WARP_SIZE, ctx.sm_id, dtype=np.uint32),
        "SR_GRIDID": np.full(WARP_SIZE, ctx.grid_id, dtype=np.uint32),
        "SR_CLOCK": np.full(WARP_SIZE, ctx.clock() & 0xFFFFFFFF, dtype=np.uint32),
        "SR_LANEID": np.arange(WARP_SIZE).astype(np.uint32),
        "SR_WARPID": np.full(WARP_SIZE, warp.warp_id, dtype=np.uint32),
        "SRZ": np.zeros(WARP_SIZE, dtype=np.uint32),
    }
    return table[name].astype(np.uint32)


@pytest.fixture
def warps():
    ticks = [1234]
    return _build_warps(_KERNEL, _ctx(lambda: ticks[0])), ticks


def _s2r(opcode: str, name: str):
    return assemble(f".kernel s\n    {opcode} R1, {name} ;\n    EXIT ;\n").get(
        "s"
    ).instructions[0]


class TestValues:
    @pytest.mark.parametrize("name", SPECIAL_REGISTERS)
    def test_matches_per_call_table(self, warps, name):
        built, _ = warps
        assert len(built) == 4  # 120 threads: the last warp is partial
        for warp in built:
            value = _read_special(warp, name)
            assert value.dtype == np.uint32 and value.shape == (WARP_SIZE,)
            assert np.array_equal(value, _reference(warp, name))

    @pytest.mark.parametrize("name", SPECIAL_REGISTERS)
    @pytest.mark.parametrize("opcode", ["S2R", "CS2R"])
    def test_handler_writes_the_same_lanes(self, warps, opcode, name):
        built, _ = warps
        warp = built[1]
        instr = _s2r(opcode, name)
        mask = np.zeros(WARP_SIZE, dtype=bool)
        mask[::3] = True
        expected = np.where(mask, _reference(warp, name), warp.regs[1])
        HANDLERS[opcode](warp, instr, mask)
        assert np.array_equal(warp.regs[1], expected)

    def test_end_to_end_thread_and_block_ids(self, device):
        text = """
.kernel ids
.params 1
    S2R R1, SR_TID.X ;
    S2R R2, SR_CTAID.X ;
    S2R R3, SR_NTID.X ;
    CS2R R4, SR_LANEID ;
    IMAD R5, R2, R3, R1 ;
    MOV R6, c[0x0][0x0] ;
    ISCADD R7, R5, R6, 2 ;
    IADD R8, R5, R4 ;
    STG.32 [R7], R8 ;
    EXIT ;
"""
        out = device.malloc(4 * 96)
        device.launch(assemble(text).get("ids"), 3, 32, [out])
        index = np.arange(96)
        assert (read_u32(device, out, 96) == index + index % 32).all()


class TestSharing:
    @pytest.mark.parametrize(
        "name", [n for n in SPECIAL_REGISTERS if n != "SR_CLOCK"]
    )
    def test_shared_arrays_are_read_only(self, warps, name):
        built, _ = warps
        value = _read_special(built[0], name)
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0] = 1

    def test_destination_never_aliases_tid_rows(self, warps):
        built, _ = warps
        warp = built[2]
        tid = warp.tid_x.copy()
        mask = np.ones(WARP_SIZE, dtype=bool)
        HANDLERS["S2R"](warp, _s2r("S2R", "SR_TID.X"), mask)
        assert np.array_equal(warp.regs[1], tid)
        assert not np.shares_memory(warp.regs, warp.tid_x)
        warp.regs[1] += 7
        assert np.array_equal(warp.tid_x, tid)
        assert np.array_equal(_read_special(warp, "SR_TID.X"), tid)

    def test_clock_tracks_live_tick(self, warps):
        built, ticks = warps
        warp = built[0]
        first = _read_special(warp, "SR_CLOCK")
        ticks[0] = (1 << 32) + 99
        second = _read_special(warp, "SR_CLOCK")
        assert (first == 1234).all() and (second == 99).all()
        assert first is not second and second.flags.writeable

    def test_unknown_name_traps(self, warps):
        built, _ = warps
        with pytest.raises(DeviceTrap, match="SR_BOGUS"):
            _read_special(built[0], "SR_BOGUS")
