"""Congestion-control modules (pluggable into every transport)."""
