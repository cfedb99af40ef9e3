"""Declarative traffic/chaos campaigns compiled to runner sweep points.

A campaign is a JSON/py-literal spec (:mod:`repro.campaigns.spec`) that
:func:`compile_campaign` lowers to ordinary runner sweep points, so
caching, ``--jobs N`` sharding and telemetry come for free.  See
EXPERIMENTS.md "Campaigns" and ``dcp-experiment campaign list``.
"""

from repro.campaigns.compiler import (CompiledCampaign, compile_campaign,
                                      merge_campaign, run_campaign)
from repro.campaigns.library import (CAMPAIGNS, campaign_names,
                                     get_campaign, load_campaign)
from repro.campaigns.metrics import DEFAULT_METRICS, METRIC_COLUMNS
from repro.campaigns.spec import CampaignError, validate_campaign

__all__ = [
    "CAMPAIGNS", "CampaignError", "CompiledCampaign", "DEFAULT_METRICS",
    "METRIC_COLUMNS", "campaign_names", "compile_campaign",
    "get_campaign", "load_campaign", "merge_campaign", "run_campaign",
    "validate_campaign",
]
