"""The seven pinned workloads.

Every parameter is pinned here and none is read from
``repro.experiments.presets``, so editing a preset cannot move the
benchmark.  Sizes were chosen on the 2-core reference box so that one
repetition takes 0.3-1 s and a run (``--seconds``, 12 by default) fits
12-40 of them: that box's speed moves between plateaus a few seconds
long, and the median of many short repetitions is steadier across runs
than the median of a few long ones.  ``smoke`` shrinks
every workload about 20x for the self-test; smoke results are marked
non-comparable.

Nothing here imports ``repro``: a workload is plain data (``Cell``
records) that ``bench.child`` feeds to public functions.  The reason
each workload exists is recorded in ``BENCHMARK.json`` (``why``) and in
``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from bench import gen

MTU_PAYLOAD = 1000
LINK_RATE = 10.0  # bits/ns
#: NetworkSpec.seed of every cell.  The simulator's own random streams
#: (ECMP hash salt, forced-loss draws) are part of the pinned workload:
#: the program receives only the inputs bench/gen.py makes from --seed.
#: At 1 % loss a fresh loss stream per seed moves the RTO-driven makespan
#: of singleflow_lossy by 15 % (quartile distance over ten seeds).
SPEC_SEED = 1

#: Every registered transport, pinned so that a tenth transport joining
#: the registry does not silently change the single-flow workloads.
TRANSPORTS = ("dcp", "gbn", "irn", "mp_rdma", "rack_tlp", "rifl", "sdr",
              "tcp", "timeout")

SIM_WORKLOADS = ("collective64", "websearch_mix", "singleflow_clean",
                 "singleflow_lossy", "hybrid256")
CLI_WORKLOADS = ("sweep_cold", "sweep_replay")
WORKLOADS = SIM_WORKLOADS + CLI_WORKLOADS

#: Event budget of one cell; a flow still running when it is spent is a
#: failed operation.
MAX_EVENTS = 50_000_000


@dataclass(frozen=True)
class Cell:
    """One network build + one traffic pattern, run to completion."""

    name: str
    spec: dict                      # NetworkSpec keyword arguments
    flows: Optional[list] = None    # [[src, dst, size_bytes, start_ns], ...]
    #: (groups, group_size, total_bytes): one ring-AllReduce per group,
    #: posted by repro's run_grouped_collectives because ring steps
    #: depend on simulated completions.
    allreduce: Optional[tuple] = None
    #: Invariants the model guarantees for this cell (checked per repetition).
    lossless_fabric: bool = False   # PFC: no congestion or buffer drops
    no_recovery: bool = False       # loss 0, uncontended: no retx, no timeout
    fluid_only: bool = False        # hybrid: no packet built, no escalation


def _clos(hosts: int, leaves: int, spines: int, **kw) -> dict:
    return dict(topology="clos", num_hosts=hosts, num_leaves=leaves,
                num_spines=spines, link_rate=LINK_RATE,
                mtu_payload=MTU_PAYLOAD, seed=SPEC_SEED, **kw)


def _ring_bytes(seed: int, total_bytes: int, group_size: int) -> int:
    """Group total whose ring slice (total // group_size) is the pinned
    slice minus a seeded part of its last packet."""
    return group_size * gen.trim_last_packet(
        seed, total_bytes // group_size, MTU_PAYLOAD)


def collective64(seed: int, smoke: bool) -> list[Cell]:
    spec = _clos(64, 8, 4, transport="dcp", lb="ar", cc="none")
    total = _ring_bytes(seed, 40_000 if smoke else 400_000, 8)
    return [Cell("allreduce", spec, allreduce=(8, 8, total),
                 no_recovery=True)]


def websearch_mix(seed: int, smoke: bool) -> list[Cell]:
    flows = gen.websearch_incast_mix(
        seed, num_leaves=4, hosts_per_leaf=8, link_rate=LINK_RATE,
        duration_ns=50_000 if smoke else 500_000, size_scale=50.0,
        bg_load=0.5, incast_load=0.05, fan_in=16, incast_flow_bytes=30_000)
    # A 1 MB shared buffer puts the PFC XOFF threshold inside reach of a
    # 16-to-1 burst, so net/pfc.py executes.
    common = dict(buffer_bytes=1_000_000)
    return [
        Cell("dcp_dcqcn", _clos(32, 4, 4, transport="dcp", lb="ar",
                                cc="dcqcn", **common), flows=flows),
        Cell("gbn_pfc", _clos(32, 4, 4, transport="gbn", lb="ecmp",
                              cc="none", **common), flows=flows,
             lossless_fabric=True),
    ]


def _singleflow(seed: int, smoke: bool, loss_rate: float) -> list[Cell]:
    flows = gen.cross_fabric_flow(seed, 16, 100_000 if smoke else 1_000_000,
                                  MTU_PAYLOAD)
    return [
        Cell(transport,
             dict(transport=transport, topology="testbed", num_hosts=16,
                  cross_links=8, lb="ecmp", cc="none", link_rate=LINK_RATE,
                  mtu_payload=MTU_PAYLOAD, loss_rate=loss_rate,
                  seed=SPEC_SEED),
             flows=flows, no_recovery=(loss_rate == 0.0))
        for transport in TRANSPORTS
    ]


def singleflow_clean(seed: int, smoke: bool) -> list[Cell]:
    return _singleflow(seed, smoke, 0.0)


def singleflow_lossy(seed: int, smoke: bool) -> list[Cell]:
    return _singleflow(seed, smoke, 0.01)


def hybrid256(seed: int, smoke: bool) -> list[Cell]:
    hosts, leaves, spines, total = ((32, 4, 2, 400_000) if smoke
                                    else (256, 32, 16, 2_000_000))
    spec = _clos(hosts, leaves, spines, transport="dcp", lb="ar",
                 cc="none", fidelity="hybrid")
    return [Cell("allreduce", spec,
                 allreduce=(leaves, 8, _ring_bytes(seed, total, 8)),
                 no_recovery=True, fluid_only=True)]


CELLS = {
    "collective64": collective64,
    "websearch_mix": websearch_mix,
    "singleflow_clean": singleflow_clean,
    "singleflow_lossy": singleflow_lossy,
    "hybrid256": hybrid256,
}

#: The robustness sweep as a user types it.  ``--jobs 2`` is fixed (not
#: nproc) so that the number does not depend on the box's core count.
#: The sweep's own inputs are pinned inside the CLI (seed 29, preset
#: sizes): the CLI exposes no seed, so these two workloads run the same
#: inputs at every --seed.
SWEEP_ARGS = ("robustness", "--preset", "quick", "--jobs", "2")
SWEEP_POINTS = 45          # 5 chaos scenarios x 9 transports
SWEEP_SMOKE_ARGS = SWEEP_ARGS + ("--chaos", "none")
SWEEP_SMOKE_POINTS = 9
