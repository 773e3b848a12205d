"""Uplink simulator for distributed MIMO with pluggable pilot-assignment strategies."""

__version__ = "0.1.0"
