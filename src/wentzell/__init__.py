"""Scalar field with dynamical (generalized Wentzell) boundary conditions:
mode spectra, time evolution, boundary two-point functions, and the
holographic bulk-to-boundary map, on the strip and the half-space."""

from .core import (BulkBoundaryFunction, CauchyData, GeometryError, Grid1D,
                   GridMismatchError, HalfSpace, PhysicalParams, Strip,
                   ZeroModeError, spectral_sobolev_norm, weighted_inner_product,
                   weighted_norm)
from .modes import (ModeTable, build_table, eval_halfspace_mode, eval_mode,
                    project, synthesize)
from .evolve import (CflError, EnergyReport, FdtdState, SpectralState,
                     causality_probe, energy, explicit_solution, fdtd_run,
                     fdtd_samples, make_fdtd_state, spectral_evolve)
from .qft import (SmearedCoefficients, TwoPointSpec, boundary_2pt_halfspace,
                  boundary_2pt_strip, commutator_boundary, smeared_coeffs,
                  source_relation_check, spacelike_2pt_bessel, tail_convergence)
from .holo import (FreqExtension, HoloImage, fig2_reproduce, halfspace_dual,
                   holographic_dual, verify_dual)

__version__ = "0.1.0"
