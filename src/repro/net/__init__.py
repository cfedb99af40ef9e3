"""Network substrate: packets, links, queues, switches, topologies."""
