"""Two-stage universal lossy coding and identification of parametric
stationary mixing sources."""

__version__ = "0.1.0"
