"""RNIC transports: common machinery plus all baseline implementations.

The DCP transport itself lives in :mod:`repro.core` (it is the paper's
contribution); everything here is substrate or baseline.
"""
