"""The built-in campaign library, shipped as specs — not modules.

Each entry is a plain dict in exactly the form a user would put in a
JSON or py-literal file, so the library doubles as worked examples for
:mod:`repro.campaigns.spec`.  ``load_campaign`` accepts a library name
or a path to a ``.json`` / py-literal file.
"""

from __future__ import annotations

import ast
import copy
import json
from pathlib import Path

#: Timer overrides matching the robustness sweep: tight enough that a
#: soak's loss bursts resolve within the simulated window on every
#: transport, including the timeout-only baseline.
_SOAK_TIMERS = {"rto_ns": 400_000, "rto_low_ns": 150_000,
                "coarse_timeout_ns": 400_000}

CAMPAIGNS: dict[str, dict] = {
    "bursting": {
        "name": "bursting",
        "title": "Synchronized bursting traffic vs transport",
        "description": (
            "Every host fires a burst at its ring neighbor "
            "simultaneously, repeatedly — the pathological synchronized "
            "pattern that separates loss-recovery schemes without any "
            "Poisson noise."),
        "topology": {"topology": "clos", "lb": "ecmp"},
        "workload": [
            {"kind": "bursting", "name": "burst",
             "burst_bytes": 30_000, "period_ns": 200_000, "bursts": 4},
        ],
        "groups": [
            {"name": "burst", "axis": "workload.burst.burst_bytes",
             "values": [10_000, 30_000, 90_000]},
            {"name": "transport", "axis": "spec.transport",
             "values": ["gbn", "irn", "dcp"]},
        ],
    },
    "incast_backpressure": {
        "name": "incast_backpressure",
        "title": "Incast backpressure storms vs fan-in and transport",
        "description": (
            "Poisson N-to-1 incast storms at growing fan-in: the "
            "backpressure regime where lossless PFC baselines head-of-"
            "line block and lossy schemes retransmit."),
        "topology": {"topology": "clos"},
        "workload": [
            {"kind": "incast", "name": "incast", "load": 0.1},
        ],
        "groups": [
            {"name": "fanin", "axis": "workload.incast.fan_in",
             "values": [4, 8, 12]},
            {"name": "transport", "axis": "spec.transport",
             "values": ["gbn", "irn", "dcp"]},
        ],
    },
    "link_integrity_soak": {
        "name": "link_integrity_soak",
        "title": "Link-integrity soak: loss bursts vs all transports",
        "description": (
            "Two long flows cross a testbed link that degrades into a "
            "severe random-loss window mid-transfer — every transport, "
            "two burst severities."),
        "topology": {"topology": "testbed", "num_hosts": 4,
                     "cross_links": 1, "lb": "ecmp", "loss_rate": 1e-9,
                     "transport_overrides": _SOAK_TIMERS},
        "workload": [
            {"kind": "flows", "name": "pair",
             "flows": [[0, 2, 240_000, 0], [1, 3, 240_000, 10_000]]},
        ],
        "chaos": {"scenario": "loss_burst", "at_ns": 50_000,
                  "duration_ns": 150_000},
        "groups": [
            {"name": "transport", "axis": "spec.transport",
             "values": ["dcp", "gbn", "irn", "mp_rdma", "rack_tlp",
                        "rifl", "sdr", "tcp", "timeout"]},
            {"name": "loss", "axis": "chaos.loss_rate",
             "values": [0.1, 0.3]},
        ],
        "metrics": ["completed", "goodput_gbps", "retx", "timeouts",
                    "dup_pkts", "recovery_us", "retx_storm"],
        "sim": {"max_events": 20_000_000},
    },
    "multi_tenant_mix": {
        "name": "multi_tenant_mix",
        "title": "Multi-tenant mix: collective over websearch background",
        "description": (
            "An all-to-all collective shares the fabric with open-loop "
            "websearch background traffic — the noisy-neighbor setting "
            "where a transport's loss recovery decides the collective's "
            "tail."),
        "topology": {"topology": "clos"},
        "workload": [
            {"kind": "poisson", "name": "websearch", "load": 0.3,
             "max_flows": 60},
            {"kind": "collective", "name": "collective",
             "collective": "alltoall",
             "hosts": [0, 1, 2, 3, 4, 5, 6, 7], "start_ns": 100_000},
        ],
        "groups": [
            {"name": "bg", "axis": "workload.websearch.load",
             "values": [0.3, 0.5]},
            {"name": "transport", "axis": "spec.transport",
             "values": ["mp_rdma", "irn", "dcp"]},
        ],
    },
}


def campaign_names() -> list[str]:
    return sorted(CAMPAIGNS)


def get_campaign(name: str) -> dict:
    """A deep copy of a library campaign (callers may mutate freely)."""
    try:
        return copy.deepcopy(CAMPAIGNS[name])
    except KeyError:
        raise ValueError(f"unknown campaign {name!r}; choose from "
                         f"{campaign_names()}") from None


def load_campaign(source: str | Path) -> dict:
    """Resolve ``source`` to a validated campaign spec dict.

    A library name wins; otherwise ``source`` must be a file holding the
    spec as JSON or a Python literal (``ast.literal_eval`` — the
    "py-literal" form, which permits trailing commas, single quotes and
    ``1_000_000`` separators).  Raises
    :class:`~repro.campaigns.compiler.CampaignError` on an invalid spec
    (:func:`~repro.campaigns.spec.validate_campaign`, whose normalized
    copy it returns).
    """
    from repro.campaigns.spec import validate_campaign
    if isinstance(source, str) and source in CAMPAIGNS:
        return validate_campaign(CAMPAIGNS[source])
    path = Path(source)
    if not path.is_file():
        raise ValueError(f"{source!r} is neither a library campaign "
                         f"({campaign_names()}) nor a spec file")
    text = path.read_text()
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        try:
            loaded = ast.literal_eval(text)
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"{path}: not valid JSON or a Python "
                             f"literal: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: campaign spec must be a dict, got "
                         f"{type(loaded).__name__}")
    return validate_campaign(loaded)
