"""Test oracles and fixtures that the library itself never reads.

Each is an independent reference computation (outcome probabilities and
post-measurement states from a density matrix, the quadratic error of an
announced value, the coherent-grid completeness sum, the eigenvalue grouping
loop) or an input generator (random complete Kraus sets, random density
matrices, Kraus-set files). They live with the tests so that the public API
holds only what the library and the CLI use.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Hashable

import numpy as np

from qmeter import DimensionMismatch, KrausSet, QmeterError, retrodictive_operator
from qmeter.measurement import UNREACHABLE_TRACE_FLOOR, clamp_variance
from qmeter.operators import (
    DEGENERACY_GAP,
    BosonicSpace,
    HermitianObservable,
    as_complex_matrix,
    require_same_dim,
    require_square,
)
from qmeter.serialization import matrix_to_literal

# Tolerance for accepting an input as a density matrix.
STATE_TOL = 1e-9


class InvalidState(QmeterError):
    """Density matrix is not unit-trace positive within tolerance."""


class ZeroProbabilityOutcome(QmeterError):
    """Conditioning on an outcome whose probability vanishes for this input."""


def _check_density(rho, dim: int) -> np.ndarray:
    arr = require_square(as_complex_matrix(rho, "rho"), "rho")
    if arr.shape[0] != dim:
        raise DimensionMismatch(
            f"state has dimension {arr.shape[0]}, measurement has {dim}")
    if abs(np.trace(arr).real - 1.0) > STATE_TOL or abs(np.trace(arr).imag) > STATE_TOL:
        raise InvalidState(f"state trace {np.trace(arr):.6g} is not 1")
    if float(np.max(np.abs(arr - arr.conj().T))) > STATE_TOL:
        raise InvalidState("state is not Hermitian")
    min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[0])
    if min_eig < -STATE_TOL:
        raise InvalidState(f"state has negative eigenvalue {min_eig:.3e}")
    return arr


def outcome_probability(kraus: KrausSet, rho, label: Hashable) -> float:
    """tr{rho M'M} for the requested outcome."""
    op = kraus.operator(label)
    arr = _check_density(rho, kraus.dim)
    return float(np.trace(arr @ op.conj().T @ op).real)


def post_measurement_state(kraus: KrausSet, rho, label: Hashable) -> np.ndarray:
    """State after outcome ``label``: M rho M' / p."""
    op = kraus.operator(label)
    arr = _check_density(rho, kraus.dim)
    prob = float(np.trace(arr @ op.conj().T @ op).real)
    if prob <= UNREACHABLE_TRACE_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {label!r} has probability {prob:.3e} for this input")
    out = op @ arr @ op.conj().T / prob
    out.setflags(write=False)
    return out


def quadratic_error(operator, observable: HermitianObservable, assigned_value: float) -> float:
    """Mean squared error of announcing ``assigned_value`` for this outcome.

    Equals the optimal error plus the squared offset from the optimal
    estimate, so it is minimized exactly at tr{A R}.
    """
    retro = retrodictive_operator(operator)
    require_same_dim(retro.matrix, observable.matrix)
    shifted = observable.matrix - float(assigned_value) * np.eye(retro.dim)
    return clamp_variance(float(np.trace(shifted @ retro.matrix @ shifted).real))


def coherent_grid_completeness(space: BosonicSpace, half_width: float,
                               spacing: float, check_levels: int | None = None) -> dict:
    """Approximate completeness of a square grid of coherent projections.

    Sums spacing^2/pi |alpha><alpha| over the grid (raw truncated amplitudes,
    no renormalization) and reports the max deviation from the identity over
    the lowest ``check_levels`` Fock levels. The continuum family resolves the
    identity exactly; a finite grid on a truncated space only approximates it.
    """
    if spacing <= 0.0 or half_width <= 0.0:
        raise ValueError("spacing and half_width must be positive")
    n = space.levels
    levels = min(n, check_levels if check_levels is not None else n // 2)
    axis = np.arange(-half_width, half_width + spacing / 2.0, spacing)
    total = np.zeros((n, n), dtype=np.complex128)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n)))))
    for re in axis:
        for im in axis:
            alpha = complex(re, im)
            if alpha == 0.0:
                amps = np.zeros(n, dtype=np.complex128)
                amps[0] = 1.0
            else:
                mag = abs(alpha)
                phase = alpha / mag
                amps = np.exp(-mag ** 2 / 2.0 + np.arange(n) * np.log(mag)
                              - 0.5 * log_fact) * phase ** np.arange(n)
            total += spacing ** 2 / math.pi * np.outer(amps, amps.conj())
    block = total[:levels, :levels] - np.eye(levels)
    return {
        "grid_points": int(len(axis) ** 2),
        "checked_levels": int(levels),
        "max_deviation": float(np.max(np.abs(block))),
    }


def eigenvalue_groups(observable: HermitianObservable) -> list[tuple[float, np.ndarray]]:
    """Eigen-indices grouped by (near-)degenerate eigenvalue, one eigenvalue at
    a time: ``[(mean, indices), ...]`` ascending, where adjacent eigenvalues
    closer than ``DEGENERACY_GAP * max(1, spectral radius)`` share a group."""
    vals = observable.eigenvalues
    threshold = DEGENERACY_GAP * max(1.0, float(np.max(np.abs(vals))))
    groups: list[tuple[float, np.ndarray]] = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > threshold:
            groups.append((float(np.mean(vals[start:k])), np.arange(start, k)))
            start = k
    return groups


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_complete_kraus_set(dim: int, n_outcomes: int,
                              rng: np.random.Generator) -> KrausSet:
    """Random complete set: Ginibre blocks whitened by their summed Gram matrix."""
    blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
              for _ in range(n_outcomes)]
    gram = sum(b.conj().T @ b for b in blocks)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return KrausSet(operators=tuple(b @ inv_sqrt for b in blocks), complete=True)


def kraus_set_to_dict(kraus: KrausSet) -> dict:
    return {
        "dim": kraus.dim,
        "outcomes": [
            {"label": str(label), "matrix": matrix_to_literal(op)}
            for label, op in kraus.items()
        ],
        "complete": kraus.complete,
    }


def save_kraus_set(kraus: KrausSet, path) -> None:
    Path(path).write_text(json.dumps(kraus_set_to_dict(kraus), indent=2,
                                     sort_keys=True) + "\n", encoding="utf-8")
