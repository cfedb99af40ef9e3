"""repro — full reproduction of "Revisiting RDMA Reliability for Lossy
Fabrics" (DCP, SIGCOMM 2025).

Quickstart::

    from repro.experiments.common import build_network

    net = build_network(transport="dcp", topology="clos", num_hosts=32)
    flow = net.open_flow(src=0, dst=17, size_bytes=1_000_000, start_ns=0)
    net.run_until_flows_done()
    print(flow.fct_ns())

Packages (each ``__init__`` is its docstring alone: import a name from
the module that defines it, e.g. ``repro.sim.engine.Simulator``):

* :mod:`repro.core` — DCP (the paper's contribution)
* :mod:`repro.sim` — discrete-event engine
* :mod:`repro.net` — switches, links, topologies, PFC, ECN, trimming
* :mod:`repro.rnic` — RNIC transports (GBN, IRN, MP-RDMA, RACK-TLP, ...)
* :mod:`repro.cc` — congestion control (DCQCN, static window)
* :mod:`repro.workload` — WebSearch, incast, AllReduce/AllToAll
* :mod:`repro.analysis` — FCT stats and the paper's analytic models
* :mod:`repro.experiments` — one regeneration script per table/figure
"""

__version__ = "1.0.0"
