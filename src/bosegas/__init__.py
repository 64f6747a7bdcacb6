"""Exact statistics of ideal Bose gases in anisotropic harmonic traps.

Canonical (fixed-N) statistics through the partition-function recursion,
grand-canonical fugacity solves with thermodynamic-limit closed forms, the
one-body density-matrix spectrum, mirror-point correlation functions and the
condensate/quasicondensate crossover temperature.
"""

from .canonical import (
    OccupationSpectrum,
    ThermalState,
    build_partition_table,
    mean_occupation,
    mean_occupations,
    occupancy_distribution,
    occupation_spectrum,
    sticking_ratio,
    temperature_for_fraction,
)
from .coherence import (
    AxisGrid,
    find_tph,
    fwhm,
    g1_curve,
    g1_profile,
)
from .errors import (
    BoseGasError,
    BracketError,
    CutoffError,
    GridExtentError,
    NumericalError,
    ResourceLimitError,
)
from .grand import (
    GrandCanonicalState,
    atom_number,
    closed_form_sticking,
    solve_fugacity,
    sticking_ratio_gc,
    temperature_for_fraction_gc,
)
from .trap import (
    TrapGeometry,
    characteristic_temperature,
    enumerate_modes,
)

__version__ = "0.1.0"
