"""Interpolation algorithms for resolution and sequent calculi."""
