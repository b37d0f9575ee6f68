"""Planar ion crystals in a hybrid DC + optical-cavity trap.

Equilibrium structures, normal modes, the 2D-3D transition, configuration
barriers, phonon-mediated spin couplings, and scattering-limited lifetimes
for crystals confined radially by DC electrodes and axially by the AC Stark
shift of an intracavity standing wave.
"""

__version__ = "0.1.0"

from .core import (
    CONST,
    ANTINODE_COS2,
    NODE_SIN2,
    AtomicLine,
    IonSpecies,
    OpticalTrapConfig,
    PhysicalConstants,
    TrapConfig,
    characteristic_length,
    depth_for_aspect,
    effective_frequencies,
    intensity_for_depth,
    intensity_from_power,
    load_species,
    make_trap,
    power_for_intensity,
    stark_coefficient,
    trap_depth,
    yb171,
)
from .errors import (
    AntiTrappedError,
    BracketError,
    CavitrapError,
    ConvergenceError,
    DomainError,
    FitError,
    ResonanceError,
    SamplingError,
    SingularConfigurationError,
    ValidationError,
)
from .potential import (
    EnergyBreakdown,
    coulomb_z_block,
    gradient,
    hessian,
    optical_z_curvature,
    planar_energy,
    planar_energy_batch,
    planar_energy_gradient,
    planar_gradient,
    planar_hessian,
    total_energy,
)
from .equilibrium import (
    METASTABLE,
    STABLE,
    EquilibriumResult,
    align_configurations,
    crystal_metrics,
    find_equilibria,
    ring_configuration,
)
from .modes import (
    IN_PLANE,
    OUT_OF_PLANE,
    ModeSpectrum,
    amplitude_ratio,
    label_modes,
    normal_modes,
    out_of_plane_lowest,
)
from .transition import (
    PowerLawFit,
    TransitionPoint,
    alpha_tr_uniform,
    find_alpha_tr,
    fit_power_law,
    transition_scan,
    waist_sweep,
)
from .barrier import (
    BarrierPath,
    BarrierWalkParams,
    barrier_pair,
    barrier_upper_bound,
    optimize_path,
    propose_step,
)
from .spin import (
    SpinDriveConfig,
    SpinGraph,
    beta_sweep,
    compute_jij,
    fit_beta,
    uniform_drive,
)
from .lifetime import (
    NON_LANGEVIN_HEATING_BOUND,
    GasSpecies,
    LifetimeEstimate,
    langevin_rate,
    lifetime_estimate,
    load_gas,
    photon_recoil,
    recoil_heating,
    scattering_rates,
    trapping_lifetime,
)
