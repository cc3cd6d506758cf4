"""Adversarial subsystem: Sybil, eclipse, routing-poisoning, and
churn-spoofing attackers that ride the simulated fabric, plus the ground
truth needed to quantify how they distort the paper's passive measurements.
"""
