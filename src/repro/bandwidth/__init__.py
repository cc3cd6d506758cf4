"""Data-plane bandwidth model: block sizes, link classes, transmit queues.

See :mod:`repro.bandwidth.config` for the model description.  Attach a
:class:`BandwidthConfig` to ``PopulationConfig.bandwidth`` to activate it;
``None`` (the default) keeps the zero-size fabric byte-identical to earlier
builds.
"""
