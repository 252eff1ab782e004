"""Maintenance tools that are part of the repo's workflow, not its API.

* :mod:`repro.tools.regen_golden` — rewrite every golden the
  conformance suite pins: artifact fingerprints and the rule-based and
  costed explain texts (``python -m repro.tools.regen_golden`` after an
  intentional change).
"""
