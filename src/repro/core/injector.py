"""The transient-fault injector (``injector.so`` in the real package).

Given a :class:`~repro.core.params.TransientParams` record, the tool

1. watches kernel launches until the ``(kernel_count+1)``-th dynamic
   instance of ``kernel_name`` — only that launch runs instrumented; every
   other kernel (and every other instance) runs the unmodified fast path,
   which is the selective-instrumentation property the paper's overhead
   numbers rest on;
2. counts executed group instructions thread-by-thread (lane order within
   a warp instruction, matching the profiler's counting);
3. at ``instruction_count``, XORs the selected destination register of the
   selected thread with the Table II mask, records the event, and disarms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitflip import BitFlipModel, compute_mask
from repro.core.dictionary import FaultDictionary
from repro.core.groups import instruction_in_group
from repro.core.params import TransientParams
from repro.cuda.driver import CudaEvent, CudaFunction
from repro.errors import ReproError
from repro.gpusim.context import InstrSite
from repro.nvbit.instr import IPoint
from repro.nvbit.tool import NVBitTool


@dataclass
class InjectionRecord:
    """What actually happened — the injector's log line."""

    injected: bool
    kernel_name: str = ""
    pc: int = -1
    opcode: str = ""
    sm_id: int = -1
    ctaid: tuple[int, int, int] = (-1, -1, -1)
    thread_idx: tuple[int, int, int] = (-1, -1, -1)
    lane: int = -1
    dest_kind: str = ""  # "reg" or "pred"
    dest_index: int = -1
    value_before: int = 0
    value_after: int = 0
    mask: int = 0
    num_regs_corrupted: int = 0

    def describe(self) -> str:
        if not self.injected:
            return "no injection performed (target instruction never reached)"
        dest = (
            f"R{self.dest_index}" if self.dest_kind == "reg" else f"P{self.dest_index}"
        )
        return (
            f"injected {self.opcode} pc={self.pc} kernel={self.kernel_name} "
            f"sm={self.sm_id} cta={self.ctaid} thread={self.thread_idx} "
            f"{dest}: 0x{self.value_before:08x} -> 0x{self.value_after:08x} "
            f"(mask 0x{self.mask:08x})"
        )

    def to_text(self) -> str:
        """Serialise every field (the human-readable line rides as a comment)."""
        return "\n".join(
            [
                f"# {self.describe()}",
                f"injected={self.injected}",
                f"kernel_name={self.kernel_name}",
                f"pc={self.pc}",
                f"opcode={self.opcode}",
                f"sm_id={self.sm_id}",
                f"ctaid={self.ctaid[0]},{self.ctaid[1]},{self.ctaid[2]}",
                f"thread_idx={self.thread_idx[0]},{self.thread_idx[1]},{self.thread_idx[2]}",
                f"lane={self.lane}",
                f"dest_kind={self.dest_kind}",
                f"dest_index={self.dest_index}",
                f"value_before={self.value_before}",
                f"value_after={self.value_after}",
                f"mask={self.mask}",
                f"num_regs_corrupted={self.num_regs_corrupted}",
            ]
        ) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "InjectionRecord":
        """Rebuild a record from :meth:`to_text` output.

        Legacy stores kept only the ``describe()`` line; those fall back to
        a record carrying nothing but the injected/not-injected bit.
        Malformed values raise :class:`~repro.errors.ReproError` naming the
        offending line, so a corrupted store entry is diagnosable instead of
        surfacing as a bare ``ValueError`` deep in the resume scan.
        """
        fields: dict[str, tuple[int, str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = line.split("=", 1)
            fields[key] = (lineno, value)
        if "injected" not in fields:
            return cls(injected=text.strip().startswith("injected"))

        def dim3(value: str) -> tuple[int, int, int]:
            parts = value.split(",")
            if len(parts) != 3:
                raise ValueError(f"expected 3 comma-separated ints, got {value!r}")
            x, y, z = (int(part) for part in parts)
            return (x, y, z)

        def get(key: str, conv, default):
            if key not in fields:
                return default
            lineno, value = fields[key]
            try:
                return conv(value)
            except ValueError as exc:
                raise ReproError(
                    f"injection record line {lineno}: bad {key}={value!r}: {exc}"
                ) from None

        return cls(
            injected=get("injected", _parse_bool, False),
            kernel_name=get("kernel_name", str, ""),
            pc=get("pc", int, -1),
            opcode=get("opcode", str, ""),
            sm_id=get("sm_id", int, -1),
            ctaid=get("ctaid", dim3, (-1, -1, -1)),
            thread_idx=get("thread_idx", dim3, (-1, -1, -1)),
            lane=get("lane", int, -1),
            dest_kind=get("dest_kind", str, ""),
            dest_index=get("dest_index", int, -1),
            value_before=get("value_before", int, 0),
            value_after=get("value_after", int, 0),
            mask=get("mask", int, 0),
            num_regs_corrupted=get("num_regs_corrupted", int, 0),
        )


def _parse_bool(value: str) -> bool:
    """Strict but drift-tolerant booleans for record fields.

    Our own ``to_text`` writes ``True``/``False``, but hand-edited or
    foreign stores drift to ``true``/``1`` — which ``v == "True"`` used to
    parse silently as ``False``, flipping an injected run into a
    never-injected one.  Accept the common spellings; anything else raises
    ``ValueError`` so ``from_text`` reports a line-numbered
    :class:`~repro.errors.ReproError` instead of corrupting the record.
    """
    norm = value.strip().lower()
    if norm in ("true", "1"):
        return True
    if norm in ("false", "0"):
        return False
    raise ValueError(f"expected True/False/true/false/1/0, got {value!r}")


class TransientInjectorTool(NVBitTool):
    """Injects exactly one fault into one dynamic instruction."""

    name = "injector"

    def __init__(
        self,
        params: TransientParams,
        dictionary: FaultDictionary | None = None,
        num_regs_to_corrupt: int = 1,
    ) -> None:
        super().__init__()
        if num_regs_to_corrupt < 1:
            raise ValueError("must corrupt at least one register")
        self.params = params
        self.dictionary = dictionary
        self.num_regs_to_corrupt = num_regs_to_corrupt
        self.record = InjectionRecord(injected=False)
        self._instance_counter: dict[str, int] = {}
        self._instrumented: set[CudaFunction] = set()
        self._armed = False
        self._instr_counter = 0

    @property
    def params(self) -> TransientParams:
        return self._params

    @params.setter
    def params(self, value: TransientParams) -> None:
        # `_visit` runs once per instrumented site — the hottest Python
        # path in an injection run — so the target count is cached here
        # instead of chasing `self.params.instruction_count` per site.
        # Assignment keeps the cache coherent if a caller retargets an
        # existing tool.
        self._params = value
        self._target_count = getattr(value, "instruction_count", 0)

    # -- NVBit event handling ---------------------------------------------------

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is not CudaEvent.LAUNCH_KERNEL:
            return
        func = payload.func
        if func.name != self.params.kernel_name:
            return
        if not is_exit:
            instance = self._instance_counter.get(func.name, 0)
            if instance == self.params.kernel_count and not self.record.injected:
                self._instrument(func)
                self.nvbit.enable_instrumented(func, True)
                self._armed = True
                self._instr_counter = 0
            else:
                self.nvbit.enable_instrumented(func, False)
        else:
            self._instance_counter[func.name] = (
                self._instance_counter.get(func.name, 0) + 1
            )
            self._armed = False

    def _instrument(self, func: CudaFunction) -> None:
        if func in self._instrumented:
            return
        for instr in self.nvbit.get_instrs(func):
            if instruction_in_group(instr.raw, self.params.group):
                instr.insert_call(self._visit, IPoint.AFTER)
        self._instrumented.add(func)

    # -- the injection instrumentation function ------------------------------------

    def _visit(self, site: InstrSite) -> None:
        if not self._armed or self.record.injected:
            return
        executed = site.num_executed
        counter = self._instr_counter
        target = self._target_count
        if counter + executed <= target:
            self._instr_counter = counter + executed
            return
        self._instr_counter = counter + executed
        lane = int(site.active_lanes[target - counter])
        self._inject(site, lane)
        self._armed = False

    def _inject(self, site: InstrSite, lane: int) -> None:
        instr = site.instr
        model, pattern_value = self._effective_model(instr.opcode)
        dest_regs = instr.dest_regs
        record = InjectionRecord(
            injected=True,
            kernel_name=self.params.kernel_name,
            pc=instr.pc,
            opcode=instr.opcode,
            sm_id=site.sm_id,
            ctaid=site.ctaid,
            thread_idx=site.thread_index(lane),
            lane=lane,
        )
        if dest_regs:
            chosen = int(self.params.dest_reg_selector * len(dest_regs))
            corrupted = 0
            for step in range(self.num_regs_to_corrupt):
                reg = dest_regs[(chosen + step) % len(dest_regs)]
                before = site.read_reg(lane, reg)
                mask = compute_mask(model, pattern_value, before)
                after = (before ^ mask) & 0xFFFFFFFF
                site.write_reg(lane, reg, after)
                corrupted += 1
                if step == 0:
                    record.dest_kind = "reg"
                    record.dest_index = reg
                    record.value_before = before
                    record.value_after = after
                    record.mask = mask
                if corrupted >= len(dest_regs):
                    break
            record.num_regs_corrupted = corrupted
        else:
            pred = instr.dest_pred
            if pred is None:
                # e.g. a PT-destination compare: architecturally a no-op write.
                record.dest_kind = "none"
                self.record = record
                return
            before = site.read_pred(lane, pred)
            after = _corrupt_pred(model, pattern_value, before)
            site.write_pred(lane, pred, after)
            record.dest_kind = "pred"
            record.dest_index = pred
            record.value_before = int(before)
            record.value_after = int(after)
            record.mask = 1
            record.num_regs_corrupted = 1
        self.record = record

    def _effective_model(self, opcode: str) -> tuple[BitFlipModel, float]:
        if self.dictionary is not None:
            return self.dictionary.draw(opcode)
        return self.params.model, self.params.bit_pattern_value


def _corrupt_pred(model: BitFlipModel, value: float, before: bool) -> bool:
    """Predicate destinations are 1 bit wide; map each model onto that bit."""
    if model is BitFlipModel.ZERO_VALUE:
        return False
    if model is BitFlipModel.RANDOM_VALUE:
        return value >= 0.5
    return not before  # single/double bit flip both flip the one bit
