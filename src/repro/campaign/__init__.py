"""The simulation-campaign engine.

Turns ad-hoc experiment scripts into declarative, parallel, resumable
campaigns: frozen :class:`JobSpec`/:class:`CampaignSpec` descriptions
with deterministic content hashes (:mod:`~repro.campaign.spec`), an
on-disk content-addressed result store (:mod:`~repro.campaign.cache`),
same-model job groups as the one unit of work
(:mod:`~repro.campaign.batching`), a process-pool executor with
retry/timeout/serial-fallback semantics
(:mod:`~repro.campaign.executor`), JSONL run manifests and summaries
(:mod:`~repro.campaign.manifest`), and a registry of named campaigns
wrapping the paper's experiment sweeps
(:mod:`~repro.campaign.registry`).  Driven from Python or via
``repro campaign run <name> --jobs N``.
"""

from .batching import batch_groups
from .cache import (
    JobResult,
    ResultCache,
    default_cache_dir,
    disk_cache_enabled,
    machine_cache,
)
from .executor import CampaignRun, JobOutcome, execute_group, run_campaign
from .manifest import (
    CampaignSummary,
    ManifestWriter,
    manifest_summary,
    read_manifest,
    summarize,
)
from .registry import (
    CampaignDefinition,
    campaign_definition,
    get_campaign,
    list_campaigns,
)
from .runners import get_runner, runner
from .spec import CampaignSpec, JobSpec, ModelSpec
from .triage import (
    TriageDecision,
    TriagedCampaignRun,
    TriageSettings,
    run_campaign_triaged,
)

__all__ = [
    "CampaignDefinition",
    "CampaignRun",
    "CampaignSpec",
    "CampaignSummary",
    "JobOutcome",
    "JobResult",
    "JobSpec",
    "ManifestWriter",
    "ModelSpec",
    "ResultCache",
    "TriageDecision",
    "TriageSettings",
    "TriagedCampaignRun",
    "batch_groups",
    "campaign_definition",
    "default_cache_dir",
    "disk_cache_enabled",
    "execute_group",
    "get_campaign",
    "get_runner",
    "list_campaigns",
    "machine_cache",
    "manifest_summary",
    "read_manifest",
    "run_campaign",
    "run_campaign_triaged",
    "runner",
    "summarize",
]
