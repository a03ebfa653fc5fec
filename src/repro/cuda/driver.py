"""Miniature CUDA driver API over the simulated device.

This layer exists because NVBit's whole mechanism is interception of
*driver API events*: every ``cuLaunchKernel``, module load and memcpy fires
callbacks into attached instrumentation tools (the ``LD_PRELOAD``
analogue), and the launch path asks the NVBit runtime whether to run the
original kernel or its instrumented clone.

Failure model (paper §IV-A): a GPU-side fault terminates the current kernel
early and records a *sticky last error* plus an entry in the per-context
error log, but the process — and subsequent kernels — keep running unless
the host explicitly checks.  A host that never calls
:meth:`CudaDriver.cuGetLastError` / :meth:`cuCtxSynchronize` sails on with
possibly corrupt data (the "potential DUE" outcome).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.cuda.errorcodes import CudaError
from repro.errors import (
    AllocationError,
    DeviceException,
    DeviceTrap,
    LaunchError,
    MemoryViolation,
    WatchdogTimeout,
)
from repro.gpusim.device import Device
from repro.sass.encoding import decode_module
from repro.sass.assembler import assemble
from repro.sass.program import Kernel, SassModule
from repro.utils.cache import evict_oldest


# Decoded module images, keyed by image content (SASS text or cubin bytes).
# A campaign loads the same images once per injection run, so each image is
# assembled once per process.  Bounded: the oldest image is dropped once
# more than this many distinct images are loaded.
MODULE_CACHE_SIZE = 32
_MODULE_CACHE: dict[str | bytes, SassModule] = {}


def _load_image(image: str | bytes, name: str) -> SassModule:
    """A fresh module for ``image``, assembling or decoding it at most once.

    Each call returns new :class:`Kernel` objects (so per-load state — NVBit
    function records, tool bookkeeping, in-place instruction rewrites —
    never crosses loads) over the cached, never-mutated instruction objects
    (so the block compiler's identity-keyed tables hit across loads).
    """
    template = _MODULE_CACHE.get(image)
    if template is None:
        if isinstance(image, bytes):
            template = decode_module(image, name=name)
        else:
            template = assemble(image, module_name=name)
        evict_oldest(_MODULE_CACHE, MODULE_CACHE_SIZE)
        _MODULE_CACHE[image] = template
    module = SassModule(name=name)
    for kernel in template:
        module.add(kernel.fresh_copy())
    return module


class CudaEvent(enum.Enum):
    """Driver API callback ids (cbids) observable by NVBit tools."""

    CTX_CREATE = "cuCtxCreate"
    CTX_DESTROY = "cuCtxDestroy"
    MODULE_LOAD = "cuModuleLoadData"
    MEM_ALLOC = "cuMemAlloc"
    MEM_FREE = "cuMemFree"
    MEMCPY_HTOD = "cuMemcpyHtoD"
    MEMCPY_DTOH = "cuMemcpyDtoH"
    LAUNCH_KERNEL = "cuLaunchKernel"
    CTX_SYNCHRONIZE = "cuCtxSynchronize"


@dataclass
class CudaFunction:
    """A loaded kernel handle."""

    kernel: Kernel
    module: "CudaModule"

    @property
    def name(self) -> str:
        return self.kernel.name

    def __hash__(self) -> int:
        return id(self.kernel)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CudaFunction) and other.kernel is self.kernel


@dataclass
class CudaModule:
    """A loaded module (possibly a dynamically loaded library)."""

    sass: SassModule
    name: str
    is_library: bool = False
    functions: dict[str, CudaFunction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kernel in self.sass:
            self.functions[kernel.name] = CudaFunction(kernel, self)


@dataclass
class LaunchParams:
    """The cbid payload for LAUNCH_KERNEL events (mutable by tools)."""

    func: CudaFunction
    grid: tuple[int, int, int] | int
    block: tuple[int, int, int] | int
    args: list[int]
    shared_bytes: int = 0
    error: CudaError = CudaError.SUCCESS


class CudaDriver:
    """One driver instance == one CUDA context on one device."""

    def __init__(
        self, device: Device, interceptor: Any = None, replay: Any = None
    ) -> None:
        self.device = device
        self.interceptor = interceptor  # the NVBit runtime, if attached
        # Golden-replay fast-forward (repro.gpusim.replay.ReplayCursor):
        # launches strictly before the injection target apply the recorded
        # golden delta instead of simulating; with tail fast-forward the
        # cursor also tracks post-target divergence (the device calls its
        # begin/end launch hooks) and re-arms once state re-converges.
        self.replay = replay
        if replay is not None:
            device.replay_tracker = replay
        self.last_error = CudaError.SUCCESS
        self.error_log: list[tuple[CudaError, str]] = []
        self.modules: list[CudaModule] = []
        self._dispatch(CudaEvent.CTX_CREATE, None, is_exit=False)
        self._dispatch(CudaEvent.CTX_CREATE, None, is_exit=True)

    # -- module management ---------------------------------------------------

    def cuModuleLoadData(
        self, image: str | bytes, name: str = "<module>", is_library: bool = False
    ) -> CudaModule:
        """Load a module from SASS text or a binary cubin blob."""
        module = CudaModule(
            sass=_load_image(image, name), name=name, is_library=is_library
        )
        self.modules.append(module)
        self._dispatch(CudaEvent.MODULE_LOAD, module, is_exit=False)
        self._dispatch(CudaEvent.MODULE_LOAD, module, is_exit=True)
        return module

    def cuModuleGetFunction(self, module: CudaModule, name: str) -> CudaFunction:
        try:
            return module.functions[name]
        except KeyError:
            raise KeyError(
                f"no kernel {name!r} in module {module.name!r}; "
                f"available: {sorted(module.functions)}"
            ) from None

    # -- memory ------------------------------------------------------------------

    def cuMemAlloc(self, nbytes: int) -> int:
        self._dispatch(CudaEvent.MEM_ALLOC, nbytes, is_exit=False)
        try:
            address = self.device.malloc(nbytes)
        except AllocationError:
            self._record(CudaError.ERROR_OUT_OF_MEMORY, f"cuMemAlloc({nbytes})")
            raise
        self._dispatch(CudaEvent.MEM_ALLOC, address, is_exit=True)
        return address

    def cuMemFree(self, address: int) -> None:
        self._dispatch(CudaEvent.MEM_FREE, address, is_exit=False)
        self.device.free(address)
        self._dispatch(CudaEvent.MEM_FREE, address, is_exit=True)

    def cuMemcpyHtoD(self, address: int, payload: bytes) -> CudaError:
        self._dispatch(CudaEvent.MEMCPY_HTOD, (address, len(payload)), is_exit=False)
        try:
            self.device.global_mem.write_bytes(address, payload)
            if self.replay is not None:
                # Tail tracking: the payload is golden-identical (host state
                # cannot have diverged while the DtoH/error guards hold), so
                # it is mirrored into the golden shadow.
                self.replay.note_host_write(address, bytes(payload))
            result = CudaError.SUCCESS
        except MemoryViolation as exc:
            result = self._record(CudaError.ERROR_ILLEGAL_ADDRESS, str(exc))
        self._dispatch(CudaEvent.MEMCPY_HTOD, (address, len(payload)), is_exit=True)
        return result

    def cuMemcpyDtoH(self, address: int, nbytes: int) -> bytes:
        self._dispatch(CudaEvent.MEMCPY_DTOH, (address, nbytes), is_exit=False)
        data = self.device.global_mem.read_bytes(address, nbytes)
        if self.replay is not None:
            # Tail tracking: reading a divergent page makes the divergence
            # host-visible, which permanently disarms tail fast-forward.
            self.replay.note_host_read(address, nbytes)
        self._dispatch(CudaEvent.MEMCPY_DTOH, (address, nbytes), is_exit=True)
        return data

    # -- launch ----------------------------------------------------------------

    def cuLaunchKernel(
        self,
        func: CudaFunction,
        grid,
        block,
        args: list[int] | None = None,
        shared_bytes: int = 0,
    ) -> CudaError:
        """Launch a kernel; GPU faults become sticky errors, not exceptions."""
        params = LaunchParams(func, grid, block, list(args or []), shared_bytes)
        self._dispatch(CudaEvent.LAUNCH_KERNEL, params, is_exit=False)
        hooks = None
        if self.interceptor is not None:
            compiles_before = getattr(self.interceptor, "jit_compile_count", 0)
            hooks = self.interceptor.active_hooks(func)
            compiles_after = getattr(self.interceptor, "jit_compile_count", 0)
            for _ in range(compiles_after - compiles_before):
                self.device.charge_jit_compile()
        try:
            replayed = None
            if self.replay is not None:
                from repro.gpusim.device import _as_dim3

                replayed = self.replay.consult(
                    self.device,
                    func.name,
                    _as_dim3(grid),
                    _as_dim3(block),
                    params.args,
                    shared_bytes,
                    instrumented=hooks is not None,
                )
            if replayed is not None:
                # Fast-forward: this launch is bit-identical to the golden
                # run, so restore its recorded write delta and counters
                # instead of simulating it.
                self.replay.apply(self.device, replayed)
            else:
                self.device.launch(
                    func.kernel, grid, block, params.args, shared_bytes, hooks=hooks
                )
            result = CudaError.SUCCESS
        except LaunchError as exc:
            result = self._record(CudaError.ERROR_INVALID_CONFIGURATION, str(exc))
        except MemoryViolation as exc:
            code = (
                CudaError.ERROR_MISALIGNED_ADDRESS
                if exc.reason == "misaligned"
                else CudaError.ERROR_ILLEGAL_ADDRESS
            )
            result = self._record(code, str(exc))
        except WatchdogTimeout:
            # A hang: the sandbox monitor, not the driver, handles this.
            params.error = CudaError.ERROR_LAUNCH_TIMEOUT
            self._dispatch(CudaEvent.LAUNCH_KERNEL, params, is_exit=True)
            raise
        except DeviceTrap as exc:
            result = self._record(CudaError.ERROR_ILLEGAL_INSTRUCTION, str(exc))
        except DeviceException as exc:  # pragma: no cover - safety net
            result = self._record(CudaError.ERROR_LAUNCH_FAILED, str(exc))
        params.error = result
        self._dispatch(CudaEvent.LAUNCH_KERNEL, params, is_exit=True)
        return result

    # -- synchronisation / errors ---------------------------------------------

    def cuCtxSynchronize(self) -> CudaError:
        """Returns (without clearing) the sticky error, like cudaDeviceSynchronize."""
        self._dispatch(CudaEvent.CTX_SYNCHRONIZE, None, is_exit=False)
        self._dispatch(CudaEvent.CTX_SYNCHRONIZE, None, is_exit=True)
        return self.last_error

    def cuGetLastError(self) -> CudaError:
        """Returns and clears the sticky error, like cudaGetLastError."""
        error, self.last_error = self.last_error, CudaError.SUCCESS
        return error

    def shutdown(self) -> None:
        self._dispatch(CudaEvent.CTX_DESTROY, None, is_exit=False)
        self._dispatch(CudaEvent.CTX_DESTROY, None, is_exit=True)

    # -- internals -----------------------------------------------------------------

    def _record(self, code: CudaError, detail: str) -> CudaError:
        self.last_error = code
        self.error_log.append((code, detail))
        if self.replay is not None:
            # The golden run recorded no errors (a faulted golden launch
            # aborts recording), so any sticky error is an anomaly the host
            # may branch on: tail fast-forward must never re-arm.
            self.replay.disarm_tail()
        return code

    def _dispatch(self, event: CudaEvent, payload: Any, is_exit: bool) -> None:
        if self.interceptor is not None:
            self.interceptor.dispatch_event(self, event, payload, is_exit)
