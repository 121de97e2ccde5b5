"""Pseudo-spectral solver and inequality-verification lab for the
logarithmically regularized 2D Euler vorticity equation on the torus."""

__version__ = "0.1.0"
