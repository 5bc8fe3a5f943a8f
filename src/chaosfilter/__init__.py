"""Filtering and state estimation for partially observed dissipative chaos."""

__version__ = "0.1.0"
