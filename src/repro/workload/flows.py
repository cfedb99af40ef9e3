"""Poisson background-traffic generation at a target load.

"WebSearch workload with an average load of 0.3" means each host's NIC
carries 30% of its line rate on average.  With mean flow size ``S`` and
per-host rate ``B`` the per-host flow arrival rate is
``lambda = load * B / (8 * S)`` flows per ns; the generator draws
exponential inter-arrivals globally at ``num_hosts * lambda`` and picks
uniformly random source/destination pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.experiments.spec import NetworkSpec
from repro.workload.distributions import EmpiricalSizeDistribution


@dataclass
class PoissonWorkload:
    """Open-loop Poisson flow arrivals over a host set."""

    load: float
    size_dist: EmpiricalSizeDistribution
    duration_ns: int
    seed: int = 1
    tag: str = "bg"
    hosts: Optional[list[int]] = None
    max_flows: Optional[int] = None

    def schedule(self, num_hosts: int, link_rate: float
                 ) -> list[tuple[int, int, int, int]]:
        """Pure arrival schedule: ``(src, dst, size_bytes, start_ns)``.

        Depends only on the workload fields plus ``(num_hosts,
        link_rate)``, so flows are laid out before any network exists.
        """
        if not 0 < self.load < 1:
            raise ValueError("load must be in (0, 1)")
        rng = random.Random(self.seed)
        hosts = self.hosts if self.hosts is not None else list(range(num_hosts))
        if len(hosts) < 2:
            raise ValueError("need at least two hosts")
        mean_size = self.size_dist.mean_bytes()
        lam = self.load * link_rate / (8 * mean_size) * len(hosts)  # flows/ns
        arrivals: list[tuple[int, int, int, int]] = []
        t = 0.0
        while t < self.duration_ns:
            t += rng.expovariate(lam)
            if t >= self.duration_ns:
                break
            if self.max_flows is not None and len(arrivals) >= self.max_flows:
                break
            src = rng.choice(hosts)
            dst = rng.choice(hosts)
            while dst == src:
                dst = rng.choice(hosts)
            size = self.size_dist.sample(rng)
            arrivals.append((src, dst, size, int(t)))
        return arrivals


@dataclass
class IncastWorkload:
    """Poisson N-to-1 incast events (§2.2 / §6.3).

    ``load`` is measured against the aggregate host bandwidth: total
    incast bytes per ns = load * num_hosts * B / 8.  Every event picks a
    random receiver and ``fan_in`` distinct senders, each contributing
    ``flow_bytes``.
    """

    load: float
    fan_in: int
    flow_bytes: int
    duration_ns: int
    seed: int = 2
    tag: str = "incast"

    def schedule(self, num_hosts: int, link_rate: float
                 ) -> list[tuple[int, int, int, int]]:
        """Pure arrival schedule: ``(src, dst, size_bytes, start_ns)``."""
        if not 0 < self.load < 1:
            raise ValueError("load must be in (0, 1)")
        if self.fan_in >= num_hosts:
            raise ValueError("fan_in must be below the host count")
        rng = random.Random(self.seed)
        bytes_per_event = self.fan_in * self.flow_bytes
        byte_rate = self.load * num_hosts * link_rate / 8  # bytes/ns
        event_rate = byte_rate / bytes_per_event
        arrivals: list[tuple[int, int, int, int]] = []
        t = 0.0
        while True:
            t += rng.expovariate(event_rate)
            if t >= self.duration_ns:
                break
            receiver = rng.randrange(num_hosts)
            senders = rng.sample([h for h in range(num_hosts) if h != receiver],
                                 self.fan_in)
            for s in senders:
                arrivals.append((s, receiver, self.flow_bytes, int(t)))
        return arrivals


def layout(spec: NetworkSpec,
           *workloads: PoissonWorkload | IncastWorkload) -> list[list]:
    """The :meth:`schedule` of each workload in turn, on ``spec``'s hosts
    and link rate, as :func:`repro.runner.points.simulate_flows` rows
    ``[src, dst, size_bytes, start_ns, tag]``."""
    return [[src, dst, size, start, wl.tag]
            for wl in workloads
            for src, dst, size, start in wl.schedule(spec.num_hosts,
                                                     spec.link_rate)]
