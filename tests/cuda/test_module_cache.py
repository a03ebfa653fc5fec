"""The driver's module-image cache keeps every load isolated.

``cuModuleLoadData`` assembles (or decodes) an image once per process and
hands each load fresh :class:`Kernel` and :class:`CudaFunction` objects
over the shared instruction objects.  Per-load state — NVBit records, tool
bookkeeping, in-place instruction rewrites, compiled tables — must never
cross loads.
"""

import numpy as np
import pytest

from repro.core.params import PermanentParams
from repro.core.pf_injector import PermanentInjectorTool
from repro.cuda import driver as driver_module
from repro.cuda.driver import CudaDriver
from repro.cuda.runtime import CudaRuntime
from repro.errors import AssemblyError
from repro.gpusim import blockc
from repro.gpusim.device import Device
from repro.nvbit.api import NVBitRuntime
from repro.runner.app import AppContext, Application
from repro.runner.sandbox import run_app
from repro.sass import assemble, encode_module
from repro.sass.isa import opcode_info
from tests.conftest import read_u32

_KERNEL = """
.kernel work
.params 1
    S2R R1, SR_TID.X ;
    S2R R2, SR_CTAID.X ;
    S2R R3, SR_NTID.X ;
    IMAD R4, R2, R3, R1 ;
    IADD R5, R4, 100 ;
    MOV R6, c[0x0][0x0] ;
    ISCADD R7, R4, R6, 2 ;
    STG.32 [R7], R5 ;
    EXIT ;
"""

_IADD_ID = opcode_info("IADD").opcode_id


def _device() -> Device:
    return Device(num_sms=2, global_mem_bytes=1 << 20)


def _load(image, name="m"):
    return CudaDriver(_device()).cuModuleLoadData(image, name=name)


class TestFreshObjectsPerLoad:
    @pytest.mark.parametrize("binary", [False, True])
    def test_two_loads_give_distinct_kernels_and_functions(self, binary):
        image = encode_module(assemble(_KERNEL)) if binary else _KERNEL
        first, second = _load(image), _load(image)
        f1, f2 = first.functions["work"], second.functions["work"]
        assert f1 is not f2 and f1 != f2
        assert f1.kernel is not f2.kernel
        assert f1.kernel.instructions is not f2.kernel.instructions
        # The instruction objects themselves are shared: assembled once.
        assert all(
            a is b for a, b in zip(f1.kernel.instructions, f2.kernel.instructions)
        )
        assert f1.module is first and f2.module is second

    def test_module_name_is_per_load(self):
        assert _load(_KERNEL, name="a").name == "a"
        assert _load(_KERNEL, name="b").sass.name == "b"

    def test_assembles_once(self, monkeypatch):
        image = _KERNEL + "// unique to test_assembles_once\n"
        calls = []
        real = driver_module.assemble

        def counting(text, module_name="<module>"):
            calls.append(module_name)
            return real(text, module_name=module_name)

        monkeypatch.setattr(driver_module, "assemble", counting)
        _load(image)
        _load(image)
        assert len(calls) == 1

    def test_binary_and_library_loads_share_the_cache(self, monkeypatch):
        blob = encode_module(assemble(_KERNEL.replace("R4, 100", "R4, 123")))
        calls = []
        real = driver_module.decode_module

        def counting(data, name="<binary>"):
            calls.append(name)
            return real(data, name=name)

        monkeypatch.setattr(driver_module, "decode_module", counting)
        runtime = CudaRuntime(_device())
        runtime.libraries.register("libwork.so", blob)
        library = runtime.load_library("libwork.so")
        plain = runtime.load_module(blob)
        assert len(calls) == 1
        assert library.is_library and not plain.is_library
        assert library.functions["work"].kernel is not plain.functions["work"].kernel

    def test_cache_stays_bounded(self):
        for index in range(driver_module.MODULE_CACHE_SIZE + 8):
            _load(_KERNEL + f"// bounded {index}\n")
        assert len(driver_module._MODULE_CACHE) <= driver_module.MODULE_CACHE_SIZE

    def test_assembly_errors_are_not_cached(self):
        with pytest.raises(AssemblyError):
            _load(".kernel broken\n    IADD R1 ;\n")
        assert ".kernel broken\n    IADD R1 ;\n" not in driver_module._MODULE_CACHE


class TestToolStateIsPerLoad:
    def test_nvbit_record_is_per_function(self):
        nvbit = NVBitRuntime()
        first, second = _load(_KERNEL), _load(_KERNEL)
        f1, f2 = first.functions["work"], second.functions["work"]
        nvbit.enable_instrumented(f1, True)
        assert nvbit.is_instrumented_enabled(f1)
        assert not nvbit.is_instrumented_enabled(f2)
        assert nvbit.get_instrs(f1) is not nvbit.get_instrs(f2)

    def test_permanent_tool_reinstruments_each_run(self):
        """One tool object across two runs: run 2's function is new to it,
        so run 2 is instrumented and corrupted exactly like run 1."""

        class WorkApp(Application):
            name = "module_cache_work"

            def run(self, ctx: AppContext) -> None:
                module = ctx.cuda.load_module(_KERNEL)
                func = ctx.cuda.get_function(module, "work")
                out = ctx.cuda.alloc(64, np.uint32)
                ctx.cuda.launch(func, 2, 32, out)
                ctx.write_file("out.bin", out.to_host().tobytes())

        params = PermanentParams(sm_id=0, lane_id=3, bit_mask=1 << 2, opcode_id=_IADD_ID)
        tool = PermanentInjectorTool(params)
        first = run_app(WorkApp(), preload=[tool])
        assert tool.activations == 1
        second = run_app(WorkApp(), preload=[tool])
        assert tool.activations == 2
        assert len(tool._instrumented) == 2
        assert first.files["out.bin"] == second.files["out.bin"]
        assert first.cycles == second.cycles


class TestInPlaceRewriteStaysLocal:
    _SRC = """
.kernel cached
.params 1
    MOV R1, 0x5 ;
    IADD R2, R1, 1 ;
    MOV R3, c[0x0][0x0] ;
    STG.32 [R3], R2 ;
    EXIT ;
"""

    def test_rewrite_changes_neither_dispatch_nor_num_regs_of_other_load(self):
        first = _load(self._SRC).functions["cached"].kernel
        second = _load(self._SRC).functions["cached"].kernel
        before = blockc.compiled_for(second)
        assert blockc.compiled_for(first) is before  # shared tables
        donor = assemble(self._SRC.replace("IADD R2, R1, 1", "IADD R9, R1, 1"))
        first.instructions[1] = donor.get("cached").instructions[1]
        rewritten = blockc.compiled_for(first)
        assert rewritten is not before
        assert rewritten.num_regs == 10 and first.num_regs == 10
        assert blockc.compiled_for(second) is before
        assert before.num_regs == 4 and second.num_regs == 4
        assert second.instructions[1].dest.index == 2

        device = _device()
        out = device.malloc(4)
        device.launch(second, 1, 1, [out])
        assert read_u32(device, out, 1)[0] == 6

    def test_blocks_compiled_counts_per_run(self):
        """A warm table cache must not zero a run's blocks-bound count."""
        counts = []
        for _ in range(2):
            device = _device()
            kernel = CudaDriver(device).cuModuleLoadData(self._SRC).functions[
                "cached"
            ].kernel
            device.launch(kernel, 1, 1, [device.malloc(4)])
            device.launch(kernel, 1, 1, [device.malloc(4)])
            counts.append(device.blockc_blocks_compiled)
        assert counts[0] == counts[1] > 0
