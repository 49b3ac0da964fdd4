import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import random_complete_kraus_set
from qmeter import (
    InternalConsistencyError,
    NotHermitian,
    UnreachableOutcome,
    __version__,
    commutator,
    eigendecompose,
    random_hermitian,
    retrodictive_operator,
    run_verification_suite,
    sequence_statistics,
    validate_completeness,
)
from qmeter import cli, verify
from qmeter.backaction import WEIGHT_FLOOR
from qmeter.measurement import clamp_variances
from qmeter.serialization import make_manifest, report_json_bytes
from qmeter.verify import IDENTITY_NAMES, RELATION_NAMES


def result_fingerprint(report):
    return ([(r.name, r.samples, r.violations, r.min_slack) for r in report.relations],
            [(i.name, i.samples, i.max_error) for i in report.identities])


class TestSuite:
    def test_small_suite_passes(self):
        report = run_verification_suite(dims=(2, 3, 4), samples=60, seed=31)
        assert report.passed
        assert {r.name for r in report.relations} == set(RELATION_NAMES)
        assert {i.name for i in report.identities} == set(IDENTITY_NAMES)
        for rel in report.relations:
            assert rel.violations == 0
        assert report.worst_offender() is None

    def test_seed_reproducibility(self):
        a = run_verification_suite(dims=(2, 3), samples=25, seed=5)
        b = run_verification_suite(dims=(2, 3), samples=25, seed=5)
        assert result_fingerprint(a) == result_fingerprint(b)
        c = run_verification_suite(dims=(2, 3), samples=25, seed=6)
        assert result_fingerprint(a) != result_fingerprint(c)

    def test_bound_scale_trips_anchor_case(self):
        report = run_verification_suite(dims=(2,), samples=2, seed=5,
                                        bound_scale=1.01)
        assert not report.passed
        offender = report.worst_offender()
        assert offender is not None
        assert offender["min_slack"] < 0
        assert "operator" in offender


def test_random_complete_sets_are_complete():
    rng = np.random.Generator(np.random.Philox(key=314))
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        ks = random_complete_kraus_set(dim, int(rng.integers(1, 6)), rng)
        assert validate_completeness(ks).max_deviation < 1e-12


def assert_matches_oracle(stack, cases, bound_scale):
    """Every slack and error of the stacked path equals, bit for bit, what the
    one-case-at-a-time oracle gives for the same case."""
    slacks, errors = verify._evaluate_stack(stack, bound_scale)
    got = {**slacks, **errors}
    expected = {name: [] for name in got}
    for case in cases:
        case_slacks, case_errors = oracles.evaluate_case(case, bound_scale)
        for name, value in {**case_slacks, **case_errors}.items():
            expected[name].append(value)
    for name, values in got.items():
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        assert bits.tolist() == np.array(expected[name]).view(np.int64).tolist(), name


def substream_draws(gen):
    # an odd number of 32-bit draws leaves half a word cached in the bit generator
    return (gen.integers(0, 2, size=7).tolist() + gen.standard_normal(5).tolist()
            + gen.random(3).tolist() + gen.integers(0, 10 ** 12, size=3).tolist())


@pytest.mark.parametrize("seed,index", [
    (0, 0), (988, 4999), (42, 2441), (7, 2 ** 32 + 5), (2 ** 64 + 3, 2 ** 40),
    (2 ** 128 - 1, 3), (2 ** 128 - 12345, 2 ** 63)])
def test_philox_substreams_match_fresh_generators(seed, index):
    # the reused, reset generator draws what a Philox built per substream draws,
    # also after another substream left draws cached
    substream = verify.philox_substreams(seed)
    for i in (index, index + 1, index):
        fresh = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        assert substream_draws(substream(i)) == substream_draws(fresh)


def random_stack(dim, indices, seed):
    substream = verify.philox_substreams(seed)
    return verify._stack(dim, indices, [verify._case_for(dim, substream(i)) for i in indices])


@pytest.mark.parametrize("seed", [5, 988, 31337])
@pytest.mark.parametrize("dim", range(1, 7))
def test_stacked_cases_match_oracle(dim, seed):
    indices = range(50 * dim, 50 * dim + 30)
    assert_matches_oracle(random_stack(dim, indices, seed),
                          [oracles.case_for(dim, i, seed) for i in indices], 1.0)


@pytest.mark.parametrize("bound_scale", [1.0, 1.01])
def test_anchor_stack_matches_oracle(bound_scale):
    assert_matches_oracle(verify._anchor_stack(), oracles.anchor_cases(), bound_scale)


def test_squares_go_through_pow():
    # Seed 988, dim 2, case 107: the bound |tr{R[A,B]}|^2 / 4 squares a value
    # whose x * x differs from x ** 2 (libm pow) in the last bit, so a kernel
    # that squares with x * x moves two of this case's slacks.
    case = oracles.case_for(2, 107, 988)
    retro = retrodictive_operator(case.operator)
    x = abs(np.trace(retro.matrix @ commutator(case.obs_a.matrix, case.obs_b.matrix)))
    assert x * x != x ** 2
    assert_matches_oracle(random_stack(2, [107], 988), [case], 1.0)


def test_dropped_final_results_match_oracle():
    # M = V diag(c) W' with V the eigenvectors of B sends final result f to
    # weight c_f^2 / sum c^2; one final result per case falls below the floor,
    # and both paths must skip it in their sums, minima and maxima.
    rng = np.random.Generator(np.random.Philox(key=41))
    dim, cases = 4, []
    for index in range(24):
        obs_a = eigendecompose(random_hermitian(dim, rng))
        obs_b = eigendecompose(random_hermitian(dim, rng))
        c2 = rng.uniform(0.1, 1.0, dim)
        c2[index % dim] = 0.01 * WEIGHT_FLOOR
        w, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        m = obs_b.eigenvectors @ np.diag(np.sqrt(c2)) @ w.conj().T
        cases.append(oracles.Case(dim=dim, index=index, operator=m, obs_a=obs_a, obs_b=obs_b))
    stack = verify._stack(dim, range(len(cases)),
                          [(c.operator, c.obs_a.matrix, c.obs_b.matrix) for c in cases])
    comm = commutator(stack.obs_a.matrix, stack.obs_b.matrix)
    kept = sequence_statistics(stack.operators, stack.obs_a, stack.obs_b, comm).kept
    assert kept.sum(axis=-1).tolist() == [dim - 1] * len(cases)
    assert_matches_oracle(stack, cases, 1.0)


def test_stacked_checks_raise_the_per_case_errors():
    # One bad matrix in a stack trips the check a case on its own would trip.
    eye = np.eye(3, dtype=complex)
    with pytest.raises(NotHermitian):
        eigendecompose(np.stack([eye, np.triu(np.ones((3, 3)))]))
    obs = eigendecompose(np.stack([np.diag([0.0, 1.0, 2.0])] * 2))
    silent = np.stack([eye, np.full((3, 3), 1e-9, dtype=complex)])  # tr{M'M} = 9e-18
    with pytest.raises(UnreachableOutcome):
        retrodictive_operator(silent)
    with pytest.raises(UnreachableOutcome):
        sequence_statistics(silent, obs, obs, commutator(obs.matrix, obs.matrix))
    assert clamp_variances(np.array([0.25, -5e-13])).tolist() == [0.25, 0.0]
    with pytest.raises(InternalConsistencyError, match="clamp floor"):
        clamp_variances(np.array([0.25, -1e-6]))


@pytest.mark.parametrize("seed,samples,bound_scale", [
    (988, 40, 1.0), (7, 40, 1.0), (988, 0, 1.0), (988, 40, 1.01)])
def test_report_bytes_match_oracle_run(seed, samples, bound_scale):
    manifest = make_manifest(["verify"], {}, {}, seed, __version__)
    reports = [run(dims=range(1, 7), samples=samples, seed=seed, bound_scale=bound_scale)
               for run in (run_verification_suite, oracles.run_verification_suite)]
    assert report_json_bytes(reports[0], manifest) == report_json_bytes(reports[1], manifest)
    offenders = [report.worst_offender() for report in reports]
    assert (offenders[0] is None) == (bound_scale == 1.0)
    if offenders[0] is not None:
        assert report_json_bytes(offenders[0]) == report_json_bytes(offenders[1])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_checks():
    """The benchmark's golden reader and comparison, imported from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_verify_matches_benchmark_golden(tmp_path, capsys):
    # The benchmark's verify_default run at program seed 990, whose golden
    # pins the trace form's rounding: its disturbance_eigensum_vs_trace worst
    # case moves (case 3021 to 4920) if verify compares the commutator norm.
    out = tmp_path / "verify"
    rc = cli.main(["verify", "--dims", "2..6", "--samples", "1000", "--seed", "990",
                   "--out", str(out)])
    assert (rc, capsys.readouterr().out.strip().splitlines()[-1]) == (0, "PASS")
    checks = perfbench_checks()
    golden = checks.load_golden(PERFBENCH / "golden" / "verify_default-990.json.xz")
    assert checks.compare(golden["files"], checks.read_outputs(out)) == []
