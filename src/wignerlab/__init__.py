"""Numerical laboratory for low-rank symmetric matrix estimation in Gaussian
noise: replica-symmetric potentials and their fixed points, worst-noise
information inequalities, exact finite-size posteriors, and multiscale cavity
bookkeeping with growing rank.

The package re-exports nothing, so ``import wignerlab`` loads no submodule;
import the submodules (``priors``, ``rng``, ``channel``, ``replica``,
``reduction``, ``simulator``, ``cavity``, ``cli``) themselves."""

__version__ = "0.1.0"
