"""Declarative traffic/chaos campaigns compiled to runner sweep points.

A campaign is a JSON/py-literal spec (:mod:`repro.campaigns.spec`) that
:func:`compile_campaign` lowers to ordinary runner sweep points, so
caching, ``--jobs N`` sharding and telemetry come for free.  See
EXPERIMENTS.md "Campaigns" and ``dcp-experiment campaign list``.
The names resolve on first use (:mod:`repro._lazy`): a key's replay
imports the compiler and must not pay for the rest.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.campaigns.compiler": ("CampaignError", "CompiledCampaign",
                                 "DEFAULT_METRICS", "compile_campaign",
                                 "lower_campaign", "merge_campaign",
                                 "run_campaign"),
    "repro.campaigns.library": ("CAMPAIGNS", "campaign_names",
                                "get_campaign", "load_campaign"),
    "repro.campaigns.metrics": ("METRIC_COLUMNS",),
    "repro.campaigns.spec": ("validate_campaign",),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__ = lazy_exports(__name__, _EXPORTS)
