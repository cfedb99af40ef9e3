"""The benchmark's own seeded input generator.

``src/`` receives only explicit ``[src, dst, size_bytes, start_ns]``
lists made here, never a generator object or a preset: the seed is an
argument of the benchmark, not of the program under test.  Nothing in
this file imports ``repro``.

The WebSearch table is a pinned copy (Fig 13's twenty equal-probability
size bins), so an edit to ``repro.workload.distributions`` cannot move
the benchmark's inputs.

The WebSearch mix is *stratified*: the flow count and the multiset of
size bins are fixed by the workload's parameters.  A Poisson process
conditioned on its arrival count is a set of independent uniform arrival
times, so the arrivals stay Poisson; what the stratification removes is
the swing of a heavy-tailed byte total.

The seed changes the inputs without changing how hard they are.  Measured
on the 212-flow mix, a freshly drawn pattern per seed moves the event
count by 9 % and the simulated makespan by 46 % (quartile distance over
ten seeds; RTO tails), wider than any bound worth having.  So the pattern
is drawn once from ``PATTERN_SEED`` and ``--seed`` relabels the hosts by a
random symmetry of the Clos (``relabel_clos``): every address, ECMP hash
and adaptive-routing tie-break the program sees changes, the contention
structure does not (events within 1 %, makespan within 4 %).  Single
flows and ring slices likewise keep their packet count and lose a seeded
part of their last packet (``trim_last_packet``).
"""

from __future__ import annotations

import random

#: Fig 13's twenty flow-size bins (KB), one per 5 % probability bucket.
WEBSEARCH_BINS_KB = (
    3, 6, 9, 20, 24, 29, 40, 50, 61, 73,
    117, 218, 614, 1021, 1507, 1991, 3494, 5109, 8674, 29995,
)
#: +/- uniform spread applied inside a bin.
SIZE_JITTER = 0.25

#: Seed of the one traffic pattern ``websearch_incast_mix`` draws.
PATTERN_SEED = 1

Flow = list  # [src, dst, size_bytes, start_ns]


def websearch_flows(rng: random.Random, num_hosts: int, link_rate: float,
                    load: float, duration_ns: int, size_scale: float
                    ) -> list[Flow]:
    """Poisson WebSearch background at ``load`` of every host's line rate.

    The flow count is the expected count of the Poisson process rounded
    to a whole number of passes over the size table, so every bin
    appears equally often.
    """
    mean_bytes = (sum(WEBSEARCH_BINS_KB) * 1000 / len(WEBSEARCH_BINS_KB)
                  / size_scale)
    expected = load * link_rate / 8 * num_hosts * duration_ns / mean_bytes
    passes = max(1, round(expected / len(WEBSEARCH_BINS_KB)))
    bins = list(WEBSEARCH_BINS_KB) * passes
    rng.shuffle(bins)
    starts = sorted(rng.randrange(duration_ns) for _ in bins)
    flows = []
    for kb, start in zip(bins, starts):
        src = rng.randrange(num_hosts)
        dst = rng.randrange(num_hosts - 1)
        if dst >= src:
            dst += 1
        spread = rng.uniform(1 - SIZE_JITTER, 1 + SIZE_JITTER)
        flows.append([src, dst, max(1, int(kb * 1000 * spread / size_scale)),
                      start])
    return flows


def incast_flows(rng: random.Random, num_hosts: int, link_rate: float,
                 load: float, duration_ns: int, fan_in: int,
                 flow_bytes: int) -> list[Flow]:
    """``fan_in``-to-1 bursts carrying ``load`` of the aggregate bandwidth."""
    total_bytes = load * num_hosts * link_rate / 8 * duration_ns
    events = max(1, round(total_bytes / (fan_in * flow_bytes)))
    flows = []
    for start in sorted(rng.randrange(duration_ns) for _ in range(events)):
        receiver = rng.randrange(num_hosts)
        senders = rng.sample(
            [h for h in range(num_hosts) if h != receiver], fan_in)
        flows.extend([s, receiver, flow_bytes, start] for s in senders)
    return flows


def relabel_clos(seed: int, flows: list[Flow], num_leaves: int,
                 hosts_per_leaf: int) -> list[Flow]:
    """``flows`` with hosts renamed by a seeded symmetry of the Clos:
    the leaves are permuted, and so are the hosts under each leaf."""
    rng = random.Random(seed)
    leaves = list(range(num_leaves))
    rng.shuffle(leaves)
    rename = {}
    for leaf, new_leaf in enumerate(leaves):
        slots = list(range(hosts_per_leaf))
        rng.shuffle(slots)
        for slot, new_slot in enumerate(slots):
            rename[leaf * hosts_per_leaf + slot] = (
                new_leaf * hosts_per_leaf + new_slot)
    return [[rename[src], rename[dst], size, start]
            for src, dst, size, start in flows]


def websearch_incast_mix(seed: int, num_leaves: int, hosts_per_leaf: int,
                         link_rate: float, duration_ns: int,
                         size_scale: float, bg_load: float,
                         incast_load: float, fan_in: int,
                         incast_flow_bytes: int) -> list[Flow]:
    """Background plus incast in start-time order, relabelled by ``seed``."""
    rng = random.Random(PATTERN_SEED)
    num_hosts = num_leaves * hosts_per_leaf
    flows = websearch_flows(rng, num_hosts, link_rate, bg_load, duration_ns,
                            size_scale)
    flows += incast_flows(rng, num_hosts, link_rate, incast_load,
                          duration_ns, fan_in, incast_flow_bytes)
    flows.sort(key=lambda f: f[3])
    return relabel_clos(seed, flows, num_leaves, hosts_per_leaf)


def trim_last_packet(seed: int, size_bytes: int, mtu_payload: int) -> int:
    """``size_bytes`` minus a seeded part of its last packet.

    Sizes differ from seed to seed while ceil(size / MTU), and with it
    the work, stays what the workload pinned.
    """
    return size_bytes - random.Random(seed).randrange(mtu_payload)


def cross_fabric_flow(seed: int, num_hosts: int, size_bytes: int,
                      mtu_payload: int) -> list[Flow]:
    """One flow from the testbed's first switch to its second."""
    rng = random.Random(seed)
    half = num_hosts // 2
    return [[rng.randrange(half), half + rng.randrange(half),
             trim_last_packet(seed, size_bytes, mtu_payload), 0]]
