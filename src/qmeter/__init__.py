"""qmeter: resolution and disturbance characterization of quantum measurements.

Characterizes arbitrary generalized measurements {M_m} on finite-dimensional
Hilbert spaces: optimal input-eigenvalue estimates and their errors
(resolution), the back-action damage to other observables (disturbance), the
uncertainty relations connecting both, and worked photon-counting, QND,
classical-teleportation, eavesdropping and cloning scenarios.
"""

__version__ = "0.1.0"

from .backaction import DisturbanceReport
from .characterize import (
    CharacterizationReport,
    ObservableRow,
    OutcomeCharacterization,
    PairCheck,
    PairRow,
    ResolutionDisturbanceCheck,
    characterize,
)
from .errors import (
    CompletenessUnachievable,
    DecompositionFailure,
    DimensionMismatch,
    IncompleteKrausSet,
    InternalConsistencyError,
    NonUnitState,
    NotHermitian,
    QmeterError,
    SchemaError,
    TruncationError,
    UnknownObservable,
    UnreachableOutcome,
)
from .measurement import (
    CompletenessReport,
    KrausSet,
    retrodictive_operator,
    validate_completeness,
)
from .operators import (
    BosonicOperators,
    BosonicSpace,
    CoherentState,
    HermitianObservable,
    bosonic_operators,
    coherent_state,
    commutator,
    eigendecompose,
    named_observable,
)
from .scenarios import (
    CloningReport,
    EavesdropReport,
    ScenarioConfig,
    ScenarioReport,
    TeleportationCharacterization,
    classical_teleportation_preset,
    cloning_error,
    eavesdrop_simulation,
    photon_detector_preset,
    qnd_preset,
    run_scenario,
)
from .verify import (
    VerificationReport,
    random_hermitian,
    random_kraus_operator,
    run_verification_suite,
)
