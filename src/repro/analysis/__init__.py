"""Statistics, CDF, and presentation helpers shared by the analysis modules.

The helpers in this package are intentionally free of any simulator or
measurement dependency: they operate on plain Python numbers and sequences so
that the analysis code in :mod:`repro.core` stays testable in isolation and
could be reused on data exported from a real go-ipfs measurement node.
"""
