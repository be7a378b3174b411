"""nssm: network state-space time-series models.

Gaussian network TVP-VARs and Poisson network DGLMs with exact Kalman
filtering, graph-structured designs, probabilistic multi-step
forecasting, theory-backed diagnostics, and a rolling-origin evaluation
harness.
"""

__version__ = "0.1.0"
