"""Angles and mutual information between FBM increment subspaces."""

__version__ = "0.1.0"
