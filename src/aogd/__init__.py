"""Adaptive online gradient descent for convex problems with long-term constraints."""

__version__ = "0.1.0"
