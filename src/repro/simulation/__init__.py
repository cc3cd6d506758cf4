"""Discrete-event simulation of the IPFS network.

The paper measures the live IPFS network; this package provides the synthetic
stand-in: a deterministic, seedable discrete-event simulation of a peer
population whose composition and dynamics are calibrated to the values the
paper reports (see ``repro.experiments.paper_values``).  The passive
measurement nodes (go-ipfs, hydra-booster), the active crawler baseline, and
the remote peers all run against the same simulated clock.
"""
