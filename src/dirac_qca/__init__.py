"""dirac_qca: a numerical laboratory for a 1D two-component quantum cellular
automaton, its dispersion analytics, and its distinguishability from the
continuum Dirac evolution."""

from .automaton import (
    AutomatonParams,
    ModeSpectrum,
    SpinorField,
    SymmetryReport,
    evolve_momentum,
    evolve_position,
    inverse_transform,
    symmetry_check,
    transform,
    unitary_k,
)
from .dispersion import Derivatives, derivatives, dirac_omega, omega
from .wavepacket import BandwidthReport, WavepacketSpec, bandwidth, build, localized
from .approx import AccuracyBound, accuracy_bound, fidelity, schrodinger_evolve
from .discrimination import (
    DiscriminationInput,
    DiscriminationReport,
    extremal_alpha_beta,
    mu,
    pe_lower_bound,
    t_min_approx,
    t_min_exact,
    validate_bound_montecarlo,
)
from .flytime import FlytimeInput, FlytimeReport, broadening, separation_time, visibility_report

__version__ = "0.1.0"
