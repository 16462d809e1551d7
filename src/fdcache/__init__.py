"""Coded caching for fully demanded systems: exact construction and analysis."""
