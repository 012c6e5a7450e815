"""Heat-fluctuation analysis of probe-based quantum thermometry."""

from .linalg import (
    HermitianOperator,
    HilbertSpace,
    hermitian_eig,
    truncation_level,
)
from .models import (
    BathMode,
    CompositeModel,
    ProjectiveMeasurement,
    SectorCouplingError,
    SpectralDensity,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    discretize_spectral_density,
    eigenbasis_measurement,
    fock_measurement,
    pauli_x_measurement,
)
from .engine import (
    HeatEngine,
    HeatRecord,
    OutcomeHeat,
    precision_bound,
)
from .closed_form import (
    DephParams,
    HEParams,
    deph_C,
    deph_Q,
    deph_fisher,
    deph_gamma,
    deph_heat_terms,
    deph_precision_bound,
    deph_probability,
    deph_scaling_points,
    he_fisher,
    he_heat_terms,
    he_mean_excitation,
    he_optimal_time,
    he_outcome_probability,
    he_precision_bound,
    he_scaling_points,
    scaling_fit,
)
from .mean_force import (
    MeanForceResult,
    energy_operator,
    internal_energy,
    internal_energy_deviation,
    mean_force_hamiltonian,
    temperature_energy_ur_check,
    z_star,
)

__version__ = "0.1.0"
