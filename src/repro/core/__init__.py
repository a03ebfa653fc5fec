"""NVBitFI core: profilers, injectors, campaigns, outcome classification."""

from repro.core.adaptive import (
    AdaptiveSummary,
    SamplingPlan,
    StoppingRule,
)
from repro.core.analysis import (
    AvfEstimate,
    estimate_avf,
    format_avf_report,
    per_group_breakdown,
    per_kernel_breakdown,
    per_opcode_breakdown,
    permanent_avf_by_opcode,
)
from repro.core.bitflip import BitFlipModel, apply_mask, compute_mask
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    PermanentCampaignResult,
    PermanentResult,
    TransientCampaignResult,
    TransientResult,
)
from repro.core.dictionary import DictionaryEntry, FaultDictionary
from repro.core.engine import (
    CampaignEngine,
    EngineHooks,
    EngineMetrics,
    ParallelExecutor,
    SerialExecutor,
)
from repro.core.groups import InstructionGroup, base_group, in_group
from repro.core.injector import InjectionRecord, TransientInjectorTool
from repro.core.kinds import CampaignKind
from repro.core.propagation import (
    MemoryTraceTool,
    PropagationTrace,
    compare_traces,
    trace_propagation,
)
from repro.core.resilience import (
    HARNESS_FAILURE_SYMPTOM,
    CampaignInterrupted,
    RetryPolicy,
    TaskFailure,
    quarantine_outcome,
)
from repro.core.result_store import (
    RESULTS_CSV_COLUMNS,
    ResultStore,
    render_results_csv,
)
from repro.core.store import CampaignStore
from repro.core.thread_target import ThreadTarget, ThreadTargetedInjectorTool
from repro.core.outcomes import Outcome, OutcomeRecord, classify
from repro.core.params import IntermittentParams, PermanentParams, TransientParams
from repro.core.pf_injector import IntermittentInjectorTool, PermanentInjectorTool
from repro.core.profile_data import KernelProfile, ProgramProfile
from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.core.report import OutcomeTally, confidence_interval, error_margin
from repro.core.site_selection import (
    select_permanent_sites,
    select_transient_site,
    select_transient_sites,
)

__all__ = [
    "BitFlipModel",
    "compute_mask",
    "apply_mask",
    "InstructionGroup",
    "base_group",
    "in_group",
    "TransientParams",
    "PermanentParams",
    "IntermittentParams",
    "ProgramProfile",
    "KernelProfile",
    "ProfilerTool",
    "ProfilingMode",
    "TransientInjectorTool",
    "InjectionRecord",
    "PermanentInjectorTool",
    "IntermittentInjectorTool",
    "FaultDictionary",
    "DictionaryEntry",
    "Outcome",
    "OutcomeRecord",
    "classify",
    "OutcomeTally",
    "confidence_interval",
    "error_margin",
    "select_transient_site",
    "select_transient_sites",
    "select_permanent_sites",
    "Campaign",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignKind",
    "EngineHooks",
    "EngineMetrics",
    "SerialExecutor",
    "ParallelExecutor",
    "TransientCampaignResult",
    "TransientResult",
    "PermanentCampaignResult",
    "PermanentResult",
    "RetryPolicy",
    "TaskFailure",
    "CampaignInterrupted",
    "HARNESS_FAILURE_SYMPTOM",
    "quarantine_outcome",
    "CampaignStore",
    "ResultStore",
    "RESULTS_CSV_COLUMNS",
    "render_results_csv",
    "AvfEstimate",
    "estimate_avf",
    "format_avf_report",
    "per_kernel_breakdown",
    "per_opcode_breakdown",
    "per_group_breakdown",
    "permanent_avf_by_opcode",
    "MemoryTraceTool",
    "PropagationTrace",
    "compare_traces",
    "trace_propagation",
    "ThreadTarget",
    "ThreadTargetedInjectorTool",
    "StoppingRule",
    "SamplingPlan",
    "AdaptiveSummary",
]
