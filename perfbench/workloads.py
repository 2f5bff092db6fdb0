"""Workload definitions: the CLI argv of every operation and the input files.

Everything here uses numpy and the standard library only.  Nothing imports
entbound, so a change to the program cannot alter its own inputs: the
program receives argv and the state files written here, nothing else.

An operation is one ``entbound.cli.main(argv)`` call.  Operations come in
cycles, fixed lists whose content depends only on the workload seed and the
cycle index; runs always finish whole cycles, so the mix of operations is the
same in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SURVEY_SAMPLES = 100
# lcm of the N pattern (3), the rank pattern (9) and the family pattern (4)
SURVEY_CYCLE = 36
FAMILY_STEPS = 11
LARGE_N_RANKS = (4, 16, 64, 256)
OPTIMIZE_LAMBDAS = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class Op:
    argv: list[str]
    kind: str      # "survey", "family" or "bounds"
    states: int    # states analysed when the operation succeeds


@dataclass(frozen=True)
class StateInput:
    """A state file the benchmark wrote, with what the checks need to know."""

    path: str
    matrix: np.ndarray
    lam: float | None = None   # family parameter of a twisted family state


@dataclass(frozen=True)
class Workload:
    ns: tuple[int, ...]        # local dimensions whose structure set-up builds
    processes: int             # fresh worker processes a timed run is split over
    prepare: Callable[[int, Path], list[StateInput]]
    cycle: Callable[[int, int, list[str]], list[Op]]


def _draw_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2 ** 31)))


def _write_state(path: Path, n: int, m: np.ndarray) -> None:
    # json writes the shortest round-trip repr, so the file holds m exactly
    pairs = np.stack([m.real, m.imag], axis=-1).tolist()
    path.write_text(json.dumps({"n_local": n, "matrix": pairs}), encoding="utf-8")


def _hermitian_unit_trace(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _family_matrix(n: int, lam: float) -> np.ndarray:
    """lam |psi0><psi0| + (1 - lam) 2 P_sym / (n (n + 1)), built from scratch."""
    psi = np.zeros(n * n)
    for i in range(n):
        psi[i * n + n - 1 - i] = (-1) ** i / np.sqrt(n)
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
    sym = (np.eye(n * n) + swap) / 2
    return lam * np.outer(psi, psi) + (1 - lam) * 2 / (n * (n + 1)) * sym


# --- survey-small ---------------------------------------------------------

def _no_inputs(seed: int, work: Path) -> list[StateInput]:
    return []


def survey_cycle(seed: int, cycle: int, paths: list[str]) -> list[Op]:
    """36 survey calls: N = 4, 4, 6 repeating, rank in {4, 2N, N^2}, family every 4th.

    N = 4 gets two calls in three so that the median call lies inside the
    N = 4 latency cluster; with strict alternation it would fall in the gap
    between the two clusters and jump from run to run.
    """
    rng = np.random.default_rng([seed, cycle])
    ops = []
    for i in range(SURVEY_CYCLE):
        n = 6 if i % 3 == 2 else 4
        rank = (4, 2 * n, n * n)[(i // 3) % 3]
        argv = ["survey", "--n", str(n), "--samples", str(SURVEY_SAMPLES),
                "--rank", str(rank), "--seed", _draw_seed(rng)]
        family = i % 4 == 3
        if family:
            argv.append("--include-family")
        ops.append(Op(argv, "survey", SURVEY_SAMPLES + 5 * family))
    return ops


# --- large-n ----------------------------------------------------------------

def large_n_inputs(seed: int, work: Path) -> list[StateInput]:
    """Random N = 16 density matrices of rank 4, 16, 64 and 256."""
    n = 16
    out = []
    for k, rank in enumerate(LARGE_N_RANKS):
        rng = np.random.default_rng([seed, k])
        g = _ginibre(rng, n * n, rank)
        m = _hermitian_unit_trace(g @ g.conj().T)
        path = work / f"large-n-{k}.json"
        _write_state(path, n, m)
        out.append(StateInput(str(path), m))
    return out


def large_n_cycle(seed: int, cycle: int, paths: list[str]) -> list[Op]:
    """Family sweeps at N = 16 and N = 20 plus one bounds report per state file."""
    family = [Op(["family", "--n", str(n), "--steps", str(FAMILY_STEPS)], "family",
                 FAMILY_STEPS) for n in (16, 20)]
    bounds = [Op(["bounds", p], "bounds", 1) for p in paths]
    return [bounds[0], family[0], bounds[1], family[1], bounds[2], bounds[3]]


# --- optimize -------------------------------------------------------------

def optimize_inputs(seed: int, work: Path) -> list[StateInput]:
    """Family states at N = 4 twisted by Haar product unitaries."""
    n = 4
    out = []
    for k, lam in enumerate(OPTIMIZE_LAMBDAS):
        rng = np.random.default_rng([seed, k])
        u = np.kron(_haar(rng, n), _haar(rng, n))
        m = _hermitian_unit_trace(u @ _family_matrix(n, lam) @ u.conj().T)
        path = work / f"optimize-{k}.json"
        _write_state(path, n, m)
        out.append(StateInput(str(path), m, lam))
    return out


def optimize_cycle(seed: int, cycle: int, paths: list[str]) -> list[Op]:
    rng = np.random.default_rng([seed, cycle])
    return [Op(["bounds", p, "--optimize", "--restarts", "2", "--iterations", "100",
                "--seed", _draw_seed(rng)], "bounds", 1) for p in paths]


WORKLOADS = {
    "survey-small": Workload((4, 6), 8, _no_inputs, survey_cycle),
    "large-n": Workload((16, 20), 3, large_n_inputs, large_n_cycle),
    "optimize": Workload((4,), 3, optimize_inputs, optimize_cycle),
}

