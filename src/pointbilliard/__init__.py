"""Spectra of rectangular quantum billiards perturbed by point scatterers."""

__version__ = "0.1.0"

from .basis import (
    GOLDEN_RATIO,
    BilliardSpec,
    ModeTable,
    basis_column,
    build_mode_table,
    eval_eigenfunction,
    golden_rectangle,
    mode_table_with_count,
)
from .errors import (
    IllConditionedExtensionError,
    PointBilliardError,
    PoleProximityError,
    RootBracketError,
    ValidationError,
)
from .extension import (
    ExtensionAngle,
    angle_from_inv_coupling,
    deficiency_gram,
    gram_invariant_defect,
    hermitian_conjugation_defect,
    inv_coupling_from_angle,
    u_matrix,
    u_phase,
    unitarity_defect,
)
from .greens import GreensAccuracy, GreensEvaluator, ScattererSet
from .rankone import reduce_full, reduce_full_batch
from .solver import (
    DEFAULT_ROOT_TOL,
    EigenfunctionRep,
    EnergyWindow,
    PerturbedLevel,
    build_eigenfunction,
    solve_multi,
    solve_single,
    truncation_shift_bound,
)
from .stats import (
    CouplingPrediction,
    InflectionRow,
    InflectionSurvey,
    SpacingHistogram,
    UnfoldedSpectrum,
    coupling_band_range,
    gbar_inflection_survey,
    ks_distance,
    predict_strong_coupling,
    reference_cdf,
    spacing_distribution,
    unfold,
)
