"""Deterministic fault injection and resilience for the simulated fabric."""
