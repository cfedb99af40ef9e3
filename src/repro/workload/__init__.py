"""Workload generators: WebSearch, Poisson arrivals, incast, collectives."""
