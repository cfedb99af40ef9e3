"""Declarative traffic/chaos campaigns compiled to runner sweep points.

A campaign is a JSON/py-literal spec (:mod:`repro.campaigns.spec`) that
:func:`repro.campaigns.compiler.compile_campaign` lowers to ordinary
runner sweep points, so caching, ``--jobs N`` sharding and telemetry
come for free; :mod:`repro.campaigns.library` holds the named
campaigns.  See EXPERIMENTS.md "Campaigns" and
``dcp-experiment campaign list``.
"""
