"""Collective-communication workloads as flow rows (§6.2).

Both collectives are modelled at the flow level, the way the paper's
NS3 simulation does, as :func:`repro.runner.points.simulate_flows` rows:

* **Ring-AllReduce**: the group's total traffic ``T`` is partitioned
  into ``k`` slices.  The algorithm runs ``2(k-1)`` synchronized steps;
  in each step host ``i`` sends one slice (``T/k`` bytes) to its ring
  successor and may only start step ``s+1`` after its step-``s``
  receive completes: that row's ``after`` names the row it waited for.
* **AllToAll**: ``T`` is partitioned into ``k`` slices and every member
  sends one slice to every other member, all at once.

The *job completion time* (JCT) of a group is the completion time of
its last flow; AI workloads are synchronized, so one straggler flow
delays the whole collective (Fig 14's explanation).  Harness-side: no
simulator is loaded to declare rows or read JCTs back.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.experiments.common import Network
    from repro.rnic.base import Flow


def collective_rows(kind: str, groups: Sequence[Sequence[int]],
                    total_bytes: int, tag: str = "",
                    start_ns: int = 0) -> list[list]:
    """Rows for one ``kind`` (``"allreduce"`` | ``"alltoall"``)
    collective per member list, all starting at ``start_ns``.  Flow tags
    are ``<tag>.g<group>`` (``tag`` defaults to ``kind``), plus
    ``.s<step>`` on a ring step."""
    if kind not in ("allreduce", "alltoall"):
        raise ValueError(f"unknown collective {kind!r}")
    rows: list[list] = []
    for g, members in enumerate(groups):
        k = len(members)
        if k < 2:
            raise ValueError(f"{kind} needs at least two members")
        size = max(1, total_bytes // k)
        name = f"{tag or kind}.g{g}"
        if kind == "alltoall":
            rows.extend([src, dst, size, start_ns, name]
                        for src in members for dst in members if src != dst)
            continue
        ring = [(members[i], members[(i + 1) % k]) for i in range(k)]
        first = len(rows)
        rows.extend([src, dst, size, start_ns, f"{name}.s0"]
                    for src, dst in ring)
        for step in range(1, 2 * (k - 1)):
            # Sender i's step waits for the previous step's row into i.
            prev, tag_s = first + (step - 1) * k, f"{name}.s{step}"
            rows.extend([src, dst, size, start_ns, tag_s, prev + (i - 1) % k]
                        for i, (src, dst) in enumerate(ring))
    return rows


def run_grouped_collectives(net: Network, kind: str, num_groups: int,
                            group_size: int, total_bytes: int,
                            start_ns: int = 0) -> list[Optional[Flow]]:
    """Open one collective per group of contiguous hosts (the paper's
    16-servers-per-group arrangement) on ``net``, all starting together;
    returns ``net.open_rows``'s per-row flow slots."""
    if num_groups * group_size > net.spec.num_hosts:
        raise ValueError("not enough hosts for the requested groups")
    groups = [range(g * group_size, (g + 1) * group_size)
              for g in range(num_groups)]
    return net.open_rows(collective_rows(kind, groups, total_bytes,
                                         start_ns=start_ns))


def group_jcts(records: Sequence[dict]) -> list[int]:
    """Each group's JCT from per-flow records, in first-row order: the
    latest ``start_ns + fct_ns`` of the records whose tag (without
    ``.s<step>``) names the group, minus their earliest start.  A group
    with a flow open or never posted has none: :class:`ValueError`."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        name = re.sub(r"\.s\d+$", "", rec["tag"])
        groups.setdefault(name, []).append(rec)
    jcts = []
    for name, recs in groups.items():
        still_open = sum(1 for r in recs if not r["completed"])
        if still_open:
            raise ValueError(f"{name}: {still_open} flows still running")
        jcts.append(max(r["start_ns"] + r["fct_ns"] for r in recs)
                    - min(r["start_ns"] for r in recs))
    return jcts
