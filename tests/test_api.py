import types

import qmeter

# Every name the package exports: what the library and the CLI use. Test
# oracles and fixtures live in tests/oracles.py instead.
EXPORTS = [
    "BosonicOperators", "BosonicSpace", "CharacterizationReport", "CloningReport",
    "CoherentState", "CompletenessReport", "CompletenessUnachievable",
    "DecompositionFailure", "DimensionMismatch", "DisturbanceRecord",
    "DisturbanceReport", "EavesdropReport", "HermitianObservable", "IncompleteKrausSet",
    "InternalConsistencyError", "KrausSet", "NonUnitState", "NotHermitian",
    "ObservableRow", "OutcomeCharacterization", "PairCheck", "PairRow", "QmeterError",
    "ResolutionDisturbanceCheck", "ScenarioConfig",
    "ScenarioReport", "SchemaError", "TeleportationCharacterization", "TruncationError",
    "UnknownObservable", "UnreachableOutcome", "VerificationReport",
    "bosonic_operators", "characterize", "classical_teleportation_preset",
    "cloning_error", "coherent_state", "commutator",
    "eavesdrop_simulation", "eigendecompose", "named_observable",
    "photon_detector_preset", "qnd_preset", "random_hermitian", "random_kraus_operator",
    "retrodictive_operator", "run_scenario", "run_verification_suite",
    "validate_completeness",
]


def test_exported_names():
    exported = sorted(name for name in dir(qmeter) if not name.startswith("_")
                      and not isinstance(getattr(qmeter, name), types.ModuleType))
    assert exported == EXPORTS
    assert len(EXPORTS) == 49
