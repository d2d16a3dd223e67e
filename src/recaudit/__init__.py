"""Offline-evaluation harness and audit toolkit for next-item recommenders."""

__version__ = "0.5.0"
