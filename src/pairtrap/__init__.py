"""Exact spectra and wavefunctions for two contact-interacting atoms in an
axially symmetric harmonic trap of arbitrary anisotropy.

Energies are in units of the axial quantum, lengths in axial oscillator
units, for the relative motion after exact center-of-mass separation.
"""

from .numerics import NumericsError, QuadratureError, RootBracket, SeriesError
from .solver import (EnergyLevel, InteractionModel, NoBoundState,
                     TrapGeometry, a1d_effective, a2d_effective,
                     bound_state_exact, bound_state_quasi1d,
                     bound_state_quasi2d, eigenenergies,
                     ground_energy_offset, resonance_a_eff,
                     solve_self_consistent, spectrum_1d_reference,
                     spectrum_2d_reference)
from .spectral import (PoleGrid, SpectralArgument, SpectralValue, f_cigar,
                       f_eval, f_eval_many, f_integral, f_pancake, f_quasi1d,
                       f_quasi2d, f_recurrence_extend, phi, pole_grid)
from .wavefn import (ProfileSamples, SeriesTruncation, contact_coefficient,
                     contact_scattering_length, norm_squared_exact,
                     normalize, profile_quasi1d, profile_quasi2d, psi,
                     psi_integral, psi_series_axial, psi_series_radial,
                     sample_grid)

__version__ = "0.1.0"

__all__ = [
    "EnergyLevel", "InteractionModel", "NoBoundState", "NumericsError",
    "PoleGrid", "ProfileSamples", "QuadratureError", "RootBracket",
    "SeriesError", "SeriesTruncation", "SpectralArgument",
    "SpectralValue", "TrapGeometry", "a1d_effective", "a2d_effective",
    "bound_state_exact", "bound_state_quasi1d", "bound_state_quasi2d",
    "contact_coefficient", "contact_scattering_length", "eigenenergies",
    "f_cigar", "f_eval", "f_eval_many", "f_integral", "f_pancake",
    "f_quasi1d", "f_quasi2d",
    "f_recurrence_extend", "ground_energy_offset", "norm_squared_exact",
    "normalize", "phi", "pole_grid", "profile_quasi1d", "profile_quasi2d",
    "psi", "psi_integral", "psi_series_axial", "psi_series_radial",
    "resonance_a_eff", "sample_grid", "solve_self_consistent",
    "spectrum_1d_reference", "spectrum_2d_reference",
]
