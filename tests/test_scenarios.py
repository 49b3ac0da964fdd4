import math
import warnings

import numpy as np
import pytest

from oracles import (
    coherent_grid_completeness,
    random_complete_kraus_set,
    reprepared_disturbance,
    single_outcome,
)
from qmeter import (
    BosonicSpace,
    CompletenessUnachievable,
    DimensionMismatch,
    IncompleteKrausSet,
    KrausSet,
    NonUnitState,
    ScenarioConfig,
    TruncationError,
    UnreachableOutcome,
    characterize,
    classical_teleportation_preset,
    cloning_error,
    eavesdrop_simulation,
    eigendecompose,
    named_observable,
    photon_detector_preset,
    qnd_preset,
    run_scenario,
    validate_completeness,
)
from qmeter import scenarios
from qmeter.serialization import report_json_bytes

SZ = named_observable("sz")
SX = named_observable("sx")
SY = named_observable("sy")


def qnd_oracle_distribution(m, sigma, grid, levels):
    """Oracle: retrodicted photon-number distribution from scalar sums only."""
    per_level = [sum(math.exp(-((g - n) ** 2) / (2 * sigma ** 2)) for g in grid)
                 for n in range(levels)]
    weights = [math.exp(-((m - n) ** 2) / (2 * sigma ** 2)) / per_level[n]
               for n in range(levels)]
    total = sum(weights)
    return [w / total for w in weights]


class TestPhotonPreset:
    def test_characterization_values(self):
        space = BosonicSpace(40)
        kraus = photon_detector_preset(space)
        assert not kraus.complete
        [outcome] = characterize(kraus, {"n": named_observable("n", 40)}).outcomes
        assert outcome.outcome == "n=1"
        [row] = outcome.rows
        assert row.estimate == pytest.approx(1.0, abs=1e-12)
        assert row.resolution == pytest.approx(0.0, abs=1e-12)
        assert row.disturbance == pytest.approx(1.0, abs=1e-12)

    def test_uncertainty_vs_quadrature(self):
        report = characterize(photon_detector_preset(BosonicSpace(40)),
                              {"n": named_observable("n", 40), "x": named_observable("x", 40)},
                              [("n", "x")])
        check = report.outcomes[0].pairs[0].disturbance_check
        assert check.satisfied
        assert check.chain_ok

    def test_minimal_space(self):
        report = characterize(photon_detector_preset(BosonicSpace(2)),
                              {"n": named_observable("n", 2)})
        [row] = report.outcomes[0].rows
        assert row.estimate == pytest.approx(1.0, abs=1e-15)
        assert row.disturbance == pytest.approx(1.0, abs=1e-15)


class TestQndPreset:
    def test_complete_and_nondemolition(self):
        space = BosonicSpace(30)
        kraus = qnd_preset(space, 5.0, list(range(-10, 41)))
        report = validate_completeness(kraus)
        assert report.max_deviation <= 1e-12
        for outcome in characterize(kraus, {"n": named_observable("n", 30)}).outcomes:
            assert outcome.rows[0].disturbance <= 1e-12

    def test_resolution_matches_direct_sum_oracle(self):
        space = BosonicSpace(30)
        grid = list(range(-10, 41))
        kraus = qnd_preset(space, 5.0, grid)
        dist = qnd_oracle_distribution(10.0, 5.0, grid, 30)
        mean = sum(n * p for n, p in enumerate(dist))
        var = sum(n * n * p for n, p in enumerate(dist)) - mean ** 2
        est = single_outcome(dict(kraus.items())["m=10"], named_observable("n", 30)).rows[0]
        assert est.estimate == pytest.approx(mean, abs=1e-10)
        assert est.resolution == pytest.approx(var, abs=1e-10)

    def test_wide_pointer_approaches_uniform(self):
        levels = 12
        grid = list(range(-5, 18))
        kraus = qnd_preset(BosonicSpace(levels), 1e8, grid)
        est = single_outcome(dict(kraus.items())["m=5"], named_observable("n", levels)).rows[0]
        uniform_var = (levels ** 2 - 1) / 12.0
        assert est.resolution == pytest.approx(uniform_var, abs=1e-6)

    def test_unreachable_level_rejected(self):
        with pytest.raises(CompletenessUnachievable):
            qnd_preset(BosonicSpace(40), 0.05, [0.0])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            qnd_preset(BosonicSpace(4), -1.0, [0.0])
        with pytest.raises(ValueError):
            qnd_preset(BosonicSpace(4), 1.0, [])


class TestClassicalTeleportation:
    @pytest.mark.parametrize("alpha", [0j, 0.5 + 0.3j, 1 + 1j])
    def test_quadrature_report(self, alpha):
        report = classical_teleportation_preset(alpha, BosonicSpace(60))
        assert abs(report.estimate - alpha) < 1e-6
        assert report.resolution_x == pytest.approx(0.25, abs=1e-6)
        assert report.resolution_y == pytest.approx(0.25, abs=1e-6)
        assert report.disturbance_x == pytest.approx(0.5, abs=1e-4)
        assert report.disturbance_y == pytest.approx(0.5, abs=1e-4)

    def test_prefactor_invariance(self):
        # the 1/sqrt(pi) density prefactor cancels in every reported quantity
        space = BosonicSpace(40)
        from qmeter import coherent_state
        vec = coherent_state(0.7 + 0.2j, space).vector
        n_obs = named_observable("x", 40)
        for scale in (1.0, 1 / math.sqrt(math.pi), 3.7):
            op = scale * np.outer(vec, vec.conj())
            est = single_outcome(op, n_obs).rows[0]
            assert est.estimate == pytest.approx(0.7, abs=1e-9)
            assert est.resolution == pytest.approx(0.25, abs=1e-9)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            classical_teleportation_preset(4.0, BosonicSpace(8))

    def test_grid_completeness_improves_with_density(self):
        space = BosonicSpace(12)
        coarse = coherent_grid_completeness(space, 4.0, 1.0, check_levels=3)
        fine = coherent_grid_completeness(space, 4.0, 0.25, check_levels=3)
        assert fine["max_deviation"] < coarse["max_deviation"]
        assert fine["max_deviation"] < 0.01


def projective_set(observable):
    ops = tuple(np.outer(observable.eigenvectors[:, k], observable.eigenvectors[:, k].conj())
                for k in range(observable.dim))
    return KrausSet(operators=ops, labels=tuple(f"p{k}" for k in range(observable.dim)),
                    complete=True)


class TestEavesdrop:
    def config(self, kraus, trials=100_000, seed=2024, forwarding="resend"):
        return ScenarioConfig(scenario="eavesdrop", dim=2, trials=trials, seed=seed,
                              observable_a=SZ, observable_b=SX, kraus=kraus,
                              forwarding=forwarding)

    def test_identity_eve_no_disturbance(self):
        kraus = KrausSet(operators=(np.eye(2, dtype=complex),), complete=True)
        report = eavesdrop_simulation(self.config(kraus, trials=20_000))
        assert report.bases[0].empirical.mean == 0.0
        assert report.bases[1].empirical.mean == 0.0
        assert report.passed

    def test_sz_projective_eve(self):
        report = eavesdrop_simulation(self.config(projective_set(SZ)))
        basis_a, basis_b = report.bases
        assert basis_a.empirical.mean == 0.0           # sent basis commutes
        assert basis_a.analytic == pytest.approx(0.0, abs=1e-12)
        assert basis_b.analytic == pytest.approx(2.0, abs=1e-12)
        assert abs(basis_b.empirical.mean - 2.0) <= 3 * basis_b.empirical.std_error
        assert report.passed

    def test_noisy_eve_matches_analytic(self):
        ops = (np.eye(2, dtype=complex) / math.sqrt(2), SZ.matrix / math.sqrt(2))
        kraus = KrausSet(operators=ops, labels=("keep", "flip"), complete=True)
        report = eavesdrop_simulation(self.config(kraus))
        basis_b = report.bases[1]
        # the phase-flip branch swaps the sx eigenstates: squared change 4,
        # taken with probability 1/2 -> overall 2
        assert basis_b.analytic == pytest.approx(2.0, abs=1e-12)
        for stat in basis_b.outcomes:
            if stat.outcome == "flip":
                assert stat.analytic == pytest.approx(4.0, abs=1e-12)
            else:
                assert stat.analytic == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_seed_reproducibility(self):
        config = self.config(projective_set(SZ), trials=30_000, seed=99)
        first = eavesdrop_simulation(config)
        second = eavesdrop_simulation(config)
        assert report_json_bytes(first) == report_json_bytes(second)
        third = eavesdrop_simulation(self.config(projective_set(SZ), trials=30_000, seed=100))
        assert report_json_bytes(first) != report_json_bytes(third)

    def test_reprepare_forwarding(self):
        report = eavesdrop_simulation(
            self.config(projective_set(SZ), trials=50_000, forwarding="reprepare"))
        # re-prepared sz eigenstates are still maximally uncertain in sx
        basis_b = report.bases[1]
        assert abs(basis_b.empirical.mean - 2.0) <= 3 * basis_b.empirical.std_error + 1e-12

    def test_reprepare_analytics_track_empirical(self):
        rng = np.random.Generator(np.random.Philox(key=89))
        from qmeter.verify import random_hermitian
        kraus = random_complete_kraus_set(3, 3, rng)
        obs_a = eigendecompose(random_hermitian(3, rng), name="A")
        obs_b = eigendecompose(random_hermitian(3, rng), name="B")
        config = ScenarioConfig(scenario="eavesdrop", dim=3, trials=150_000, seed=17,
                                observable_a=obs_a, observable_b=obs_b,
                                kraus=kraus, forwarding="reprepare")
        report = eavesdrop_simulation(config)
        assert report.passed
        for block in report.bases:
            assert block.within_three_se

    def test_reprepare_analytic_matches_gram_oracle(self):
        # deterministic: each outcome's re-prepared disturbance, and the
        # basis total weighted by tr{M'M} / d, against the Gram-matrix formula
        from qmeter.verify import random_hermitian
        rng = np.random.Generator(np.random.Philox(key=101))
        kraus = random_complete_kraus_set(3, 4, rng)
        bases = [eigendecompose(random_hermitian(3, rng), name=name) for name in "AB"]
        report = eavesdrop_simulation(ScenarioConfig(
            scenario="eavesdrop", dim=3, trials=1, observable_a=bases[0],
            observable_b=bases[1], kraus=kraus, forwarding="reprepare"))
        for block, obs in zip(report.bases, bases):
            expected = [reprepared_disturbance(op, obs) for op in kraus.operators]
            assert [o.analytic for o in block.outcomes] == pytest.approx(expected, rel=1e-12)
            total = sum(np.linalg.norm(op) ** 2 / 3 * e
                        for op, e in zip(kraus.operators, expected))
            assert block.analytic == pytest.approx(total, rel=1e-12)

    def test_incomplete_set_rejected(self):
        partial = KrausSet(operators=(np.outer([1, 0], [0, 1]),), complete=False)
        with pytest.raises(IncompleteKrausSet):
            eavesdrop_simulation(self.config(partial))

    @pytest.mark.parametrize("forwarding", ["resend", "reprepare"])
    def test_unreachable_outcome_rejected_before_sampling(self, forwarding, monkeypatch):
        # a zero operator completes the set but never occurs: neither mode may
        # divide by its zero weight or draw a trial
        kraus = KrausSet(operators=(np.eye(2, dtype=complex), np.zeros((2, 2))),
                         labels=("id", "never"), complete=True)
        monkeypatch.setattr(scenarios, "_sample_blocks", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnreachableOutcome, match="never"):
                eavesdrop_simulation(self.config(kraus, forwarding=forwarding))

    def test_random_configurations_agree_with_analytic(self):
        rng = np.random.Generator(np.random.Philox(key=83))
        agree = 0
        total = 0
        for case in range(12):
            dim = int(rng.integers(2, 4))
            kraus = random_complete_kraus_set(dim, int(rng.integers(2, 4)), rng)
            from qmeter.verify import random_hermitian
            obs_a = eigendecompose(random_hermitian(dim, rng), name="A")
            obs_b = eigendecompose(random_hermitian(dim, rng), name="B")
            config = ScenarioConfig(scenario="eavesdrop", dim=dim, trials=100_000,
                                    seed=1000 + case, observable_a=obs_a,
                                    observable_b=obs_b, kraus=kraus)
            report = eavesdrop_simulation(config)
            for block in report.bases:
                total += 1
                agree += block.within_three_se
        assert agree / total >= 0.95


def reference_sample_blocks(eve_cum, bob_cum, values, trials, seed):
    """Row-wise fancy-index gather: the block loop the column-major helper replaced."""
    _, d, n_out = eve_cum.shape
    counts = np.zeros((2, n_out), dtype=np.int64)
    s1 = np.zeros((2, n_out))
    s2 = np.zeros((2, n_out))
    for block in range((trials + scenarios.TRIAL_BLOCK - 1) // scenarios.TRIAL_BLOCK):
        size = min(scenarios.TRIAL_BLOCK, trials - block * scenarios.TRIAL_BLOCK)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=block << 64))
        basis = gen.integers(0, 2, size=size)
        sent = gen.integers(0, d, size=size)
        u_eve = gen.random(size=size)
        u_bob = gen.random(size=size)

        outcome = (eve_cum[basis, sent] < u_eve[:, None]).sum(axis=1)
        received = (bob_cum[basis, sent, outcome] < u_bob[:, None]).sum(axis=1)
        diff2 = (values[basis, received] - values[basis, sent]) ** 2

        flat = basis * n_out + outcome
        counts += np.bincount(flat, minlength=2 * n_out).reshape(2, n_out)
        s1 += np.bincount(flat, weights=diff2, minlength=2 * n_out).reshape(2, n_out)
        s2 += np.bincount(flat, weights=diff2 ** 2, minlength=2 * n_out).reshape(2, n_out)
    return counts, s1, s2


def random_qubit_config(trials, seed):
    rng = np.random.Generator(np.random.Philox(key=7))
    return ScenarioConfig(scenario="eavesdrop", dim=2, trials=trials, seed=seed,
                          observable_a=SZ, observable_b=SX,
                          kraus=random_complete_kraus_set(2, 30, rng))


def reprepare_dim3_config(trials, seed):
    from qmeter.verify import random_hermitian
    rng = np.random.Generator(np.random.Philox(key=11))
    return ScenarioConfig(scenario="eavesdrop", dim=3, trials=trials, seed=seed,
                          observable_a=eigendecompose(random_hermitian(3, rng), name="A"),
                          observable_b=eigendecompose(random_hermitian(3, rng), name="B"),
                          kraus=random_complete_kraus_set(3, 4, rng),
                          forwarding="reprepare")


def projective_config(observable):
    return lambda trials, seed: ScenarioConfig(
        scenario="eavesdrop", dim=2, trials=trials, seed=seed, observable_a=SZ,
        observable_b=SX, kraus=projective_set(observable))


@pytest.mark.parametrize("make_config,trials", [
    (projective_config(SZ), 3 * 4096 + 1),
    (projective_config(SX), 3 * 4096 + 1),
    (random_qubit_config, 3 * 4096 + 1),
    (reprepare_dim3_config, 3 * 4096 + 1),
    (projective_config(SZ), 1),
    (random_qubit_config, 4095),
    (reprepare_dim3_config, 1),
    (reprepare_dim3_config, 4095),
], ids=["sz-set", "sx-set", "random-30-outcome", "reprepare-dim3",
        "sz-set-1", "random-30-outcome-4095", "reprepare-dim3-1", "reprepare-dim3-4095"])
def test_sample_blocks_equals_row_wise_reference(make_config, trials, monkeypatch):
    """The column-major gather reproduces the row-wise loop bit for bit, on the
    tables eavesdrop_simulation itself builds."""
    calls = []

    def spy(*args):
        result = sampler(*args)
        calls.append((args, result))
        return result

    sampler = scenarios._sample_blocks
    monkeypatch.setattr(scenarios, "_sample_blocks", spy)
    eavesdrop_simulation(make_config(trials, seed=31))
    (args, (counts, s1, s2)), = calls
    ref_counts, ref_s1, ref_s2 = reference_sample_blocks(*args)
    assert counts.sum() == trials
    assert counts.dtype == ref_counts.dtype
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(s1, ref_s1)
    assert np.array_equal(s2, ref_s2)


class TestCloning:
    def test_eigenbasis_clones_perfectly(self):
        states = [SZ.eigenvectors[:, k] for k in range(2)]
        report = cloning_error(states, SZ, check_completeness=True)
        assert report.completeness_deviation <= 1e-12
        for row in report.rows:
            assert row.resolution == pytest.approx(0.0, abs=1e-12)
            assert row.disturbance == pytest.approx(0.0, abs=1e-12)

    def test_sz_basis_disturbs_sx(self):
        states = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
        report = cloning_error(states, SX)
        for row in report.rows:
            assert row.disturbance == pytest.approx(2.0, abs=1e-12)

    def test_sy_basis_symmetric_errors(self):
        states = [SY.eigenvectors[:, k] for k in range(2)]
        for observable, expected_res, expected_dist in ((SZ, 1.0, 2.0), (SX, 1.0, 2.0)):
            report = cloning_error(states, observable)
            for row in report.rows:
                assert row.resolution == pytest.approx(expected_res, abs=1e-12)
                assert row.disturbance == pytest.approx(expected_dist, abs=1e-12)
        for k in range(2):
            op = np.outer(SY.eigenvectors[:, k], SY.eigenvectors[:, k].conj())
            check = single_outcome(op, SZ, SX).pairs[0].disturbance_check
            assert check.bound == pytest.approx(1.0, abs=1e-12)
            assert check.satisfied

    def test_non_unit_state_rejected(self):
        with pytest.raises(NonUnitState):
            cloning_error([np.array([1.0, 1.0])], SZ)

    def test_state_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            cloning_error([np.array([1.0, 0.0, 0.0])], SZ)
        with pytest.raises(DimensionMismatch):
            cloning_error([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])], SZ)


class TestRunScenario:
    def test_photon_dispatch(self):
        config = ScenarioConfig(scenario="photon", dim=3)
        report = run_scenario(config)
        assert report.passed
        row = report.body.outcomes[0].rows[0]
        assert row.estimate == pytest.approx(1.0, abs=1e-12)
        assert row.disturbance == pytest.approx(1.0, abs=1e-12)

    def test_qnd_dispatch(self):
        config = ScenarioConfig(scenario="qnd", dim=20, pointer_sigma=5.0,
                                outcome_grid=tuple(float(g) for g in range(-10, 31)))
        report = run_scenario(config)
        assert report.passed
        for outcome in report.body.outcomes:
            assert outcome.rows[0].disturbance <= 1e-12

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(scenario="nope", dim=2))

    def test_preset_kraus_matches_the_presets(self):
        photon = scenarios.preset_kraus(ScenarioConfig(scenario="photon", dim=3))
        assert photon.labels == photon_detector_preset(BosonicSpace(3)).labels
        grid = (-2.0, 0.0, 1.5, 4.0)
        qnd = scenarios.preset_kraus(ScenarioConfig(
            scenario="qnd", dim=4, pointer_sigma=1.5, outcome_grid=grid))
        expected = qnd_preset(BosonicSpace(4), 1.5, grid)
        assert qnd.labels == expected.labels
        for op, ref in zip(qnd.operators, expected.operators):
            assert np.array_equal(op, ref)
        with pytest.raises(ValueError):
            scenarios.preset_kraus(ScenarioConfig(scenario="classical_teleport", dim=4))

    @pytest.mark.parametrize("fields", [
        {"scenario": "photon", "dim": dim} for dim in (1, 2.5, True, "3", None)] + [
        {"scenario": "qnd", "dim": 4, "pointer_sigma": sigma, "outcome_grid": (0.0,)}
        for sigma in (0.0, float("inf"), float("nan"), True, "2")] + [
        {"scenario": "qnd", "dim": 4, "pointer_sigma": 1.0, "outcome_grid": grid}
        for grid in ((0.0, float("nan")), (0.0, float("-inf")), (True,), ("1",), (1j,))] + [
        {"scenario": "classical_teleport", "dim": 4, "alpha": alpha}
        for alpha in (complex(float("nan"), 0.0), float("inf"), True, "0.5")] + [
        {"scenario": scenario, "dim": 4, **pointer}
        for scenario in ("photon", "classical_teleport")
        for pointer in ({"pointer_sigma": 2.0}, {"outcome_grid": (0.0, 1.0)})])
    def test_preset_fields_validated(self, fields):
        with pytest.raises(ValueError):
            ScenarioConfig(**fields)

    def test_numpy_preset_fields_accepted(self):
        config = ScenarioConfig(scenario="qnd", dim=4, pointer_sigma=np.float64(2.0),
                                outcome_grid=tuple(np.arange(-2.0, 6.0)))
        assert len(scenarios.preset_kraus(config)) == 8
        teleport = ScenarioConfig(scenario="classical_teleport", dim=40,
                                  alpha=np.complex128(0.5 + 0.25j))
        assert run_scenario(teleport).body.alpha == 0.5 + 0.25j

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            ScenarioConfig(scenario="eavesdrop", dim=2, trials=0, observable_a=SZ,
                           observable_b=SX, kraus=projective_set(SZ))


# The config fields each scenario reads, written out here rather than taken
# from scenarios.SCENARIOS; a scenario must reject every other field that is
# not at its default.
READS = {
    "photon": ("dim", "observable_a", "observable_b"),
    "qnd": ("dim", "pointer_sigma", "outcome_grid", "observable_a", "observable_b"),
    "classical_teleport": ("dim", "alpha"),
    "eavesdrop": ("dim", "trials", "seed", "kraus", "observable_a", "observable_b",
                  "forwarding"),
    "cloning": ("dim", "states", "observable_a"),
}
CONFIG_FIELDS = ("dim", "trials", "seed", "observable_a", "observable_b", "kraus",
                 "pointer_sigma", "outcome_grid", "alpha", "states", "forwarding")


def non_default_field(field, dim):
    """A valid value, other than the default, for one config field at ``dim``."""
    ramp = np.diag(np.arange(dim, dtype=float))
    return {
        "dim": dim,
        "trials": 7,
        "seed": 5,
        "observable_a": eigendecompose(ramp, name="A"),
        "observable_b": eigendecompose(ramp, name="B"),
        "kraus": KrausSet(operators=(np.eye(dim, dtype=complex),)),
        "pointer_sigma": 2.0,
        "outcome_grid": (0.0, 1.0, 2.0),
        "alpha": 0.5 + 0.25j,
        "states": (np.eye(dim, dtype=complex)[0],),
        "forwarding": "reprepare",
    }[field]


REQUIRED = {"qnd": ("pointer_sigma", "outcome_grid"),
            "eavesdrop": ("kraus", "observable_a", "observable_b"),
            "cloning": ("observable_a", "states")}


@pytest.mark.parametrize("scenario,field", [
    (scenario, field) for scenario in READS for field in CONFIG_FIELDS],
    ids=[f"{scenario}-{field}" for scenario in READS for field in CONFIG_FIELDS])
def test_scenario_reads_only_its_fields(scenario, field):
    dim = 5 if field == "dim" else 3
    fields = {name: non_default_field(name, dim)
              for name in ("dim", *REQUIRED.get(scenario, ()), field)}
    if field in READS[scenario]:
        assert ScenarioConfig(scenario=scenario, **fields).dim == dim
    else:
        with pytest.raises(ValueError, match=f"{scenario} scenario does not read {field}$"):
            ScenarioConfig(scenario=scenario, **fields)


def test_read_table_counts():
    assert sum(len(fields) for fields in READS.values()) == 20
    assert len(READS) * len(CONFIG_FIELDS) - 20 == 35
