"""The hydra-booster vantage point: its heads are :mod:`repro.hydra.head`."""
