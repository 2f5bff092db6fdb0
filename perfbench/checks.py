"""Correctness checks of CLI output, independent of the code under ``src/``.

numpy and the standard library only.  The closed forms below are the
benchmark's own copies of the paper's formulas, not ``entbound.closedform``;
the functionals are recomputed with a plain reshape plus ``eigvalsh`` or
``svd``.  Each check returns a list of error strings, empty when the
operation's output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

VERDICT_TOL = 1e-9   # margin the CLI adds to its strict inequalities
VALUE_TOL = 1e-9
WITNESS_TOL = 1e-12
RECOMPUTE_EVERY = 25  # every k-th random survey state is recomputed
SURVEY_COLUMNS = ["state", "ppt_violated", "realignment_violated", "witness_value",
                  "witness_detects", "trace_norm_T2", "trace_norm_R"]
FAMILY_COLUMNS = ["lambda", "tr_W_rho", "bound_witness", "norm_T2", "bound_ppt", "norm_R",
                  "bound_realign", "bound_upper", "eof_new", "eof_old", "eof_upper"]
SURVEY_FAMILY_LAMBDAS = (0.05, 0.06, 0.07, 0.08, 0.09)


def t2_norm(rho: np.ndarray, n: int) -> float:
    t = rho.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)
    return float(np.abs(np.linalg.eigvalsh((t + t.conj().T) / 2)).sum())


def r_norm(rho: np.ndarray, n: int) -> float:
    r = rho.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return float(np.linalg.svd(r, compute_uv=False).sum())


def witness(rho: np.ndarray, n: int) -> float:
    """tr W rho for W = I - N |psi0><psi0| - F, without building W."""
    psi = np.zeros(n * n)
    for i in range(n):
        psi[i * n + n - 1 - i] = (-1) ** i / math.sqrt(n)
    r = rho.reshape(n, n, n, n)
    swap = np.einsum("abba->", r)
    return float((np.trace(rho) - n * (psi @ rho @ psi) - swap).real)


def entropy_hull(lam0: float, n: int) -> float:
    """Convex hull of the minimal Schmidt entropy at constraint value lam0."""
    if lam0 > 4 * (n - 1) / n:
        return math.log2(n - 1) / (n - 2) * (lam0 - n) + math.log2(n)
    g = (math.sqrt(lam0) + math.sqrt((n - 1) * (n - lam0))) ** 2 / n ** 2
    g = min(g, 1.0)
    h = -sum(p * math.log2(p) for p in (g, 1 - g) if p > 0)
    return h + (1 - g) * math.log2(n - 1)


def family_closed_form(n: int, lam: float) -> tuple[float, float, float]:
    """(||T2 rho||_1, ||R rho||_1, tr W rho) of the singlet/Werner mixture."""
    edge = 1 / (n + 2)
    if lam <= edge:
        t2 = 1.0
    elif lam <= 0.5:
        t2 = 1.0 + (n - 2) / n * ((n + 2) * lam - 1)
    else:
        t2 = n * lam
    r = 1.0 - 2 * lam if lam <= edge else n * lam
    return t2, r, -lam * (n - 2)


def _close(name: str, got: float, want: float, tol: float, errors: list[str]) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{name}: got {got!r}, want {want!r} (tol {tol:g})")


def _flag(text: str) -> bool:
    if text not in ("True", "False"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "True"


def _options(argv: list[str]) -> dict[str, str]:
    out = {}
    for k, arg in enumerate(argv):
        if arg.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else ""
            out[arg[2:]] = "" if nxt.startswith("--") else nxt
    return out


def _random_density(n: int, rank: int, seed: int, samples: int, k: int) -> np.ndarray:
    """The k-th state of a survey call: G G^dag / tr from a complex Gaussian factor."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(samples)[k])
    g = rng.normal(size=(n * n, rank)) + 1j * rng.normal(size=(n * n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def check_survey(argv: list[str], stdout: str) -> list[str]:
    opt = _options(argv)
    n, samples, rank, seed = (int(opt[k]) for k in ("n", "samples", "rank", "seed"))
    family = "include-family" in opt
    lines = stdout.splitlines()
    errors: list[str] = []
    if not lines or lines[0].split(",") != SURVEY_COLUMNS:
        return ["survey header differs"]
    rows = [line.split(",") for line in lines[1:-1]]
    names = [f"family({lam})" for lam in SURVEY_FAMILY_LAMBDAS if family]
    names += [f"random{k}" for k in range(samples)]
    if [r[0] for r in rows] != names:
        return ["survey rows differ from the states asked for"]
    counts = [0, 0, 0, 0]
    for row in rows:
        ppt, realigned, wit = _flag(row[1]), _flag(row[2]), _flag(row[4])
        w, t2, r = float(row[3]), float(row[5]), float(row[6])
        if ppt != (t2 > 1 + VERDICT_TOL) or realigned != (r > 1 + VERDICT_TOL) \
                or wit != (w < -VERDICT_TOL):
            errors.append(f"{row[0]}: verdicts disagree with the printed values")
        if t2 < 1 - VALUE_TOL:
            errors.append(f"{row[0]}: ||T2 rho||_1 = {t2!r} < 1")
        if w < -(n - 2) - VALUE_TOL:
            errors.append(f"{row[0]}: tr W rho = {w!r} < -(N-2)")
        counts = [c + x for c, x in zip(counts, (ppt, realigned, wit,
                                                 wit and not ppt and not realigned))]
        if row[0].startswith("family("):
            lam = float(row[0][7:-1])
            _close(f"{row[0]} tr W rho", w, -lam * (n - 2), WITNESS_TOL, errors)
            if ppt or not wit:
                errors.append(f"{row[0]}: want ppt_violated=False and witness_detects=True")
        elif int(row[0][6:]) % RECOMPUTE_EVERY == 0:
            rho = _random_density(n, rank, seed, samples, int(row[0][6:]))
            _close(f"{row[0]} ||T2||", t2, t2_norm(rho, n), VALUE_TOL, errors)
            _close(f"{row[0]} ||R||", r, r_norm(rho, n), VALUE_TOL, errors)
            _close(f"{row[0]} tr W rho", w, witness(rho, n), VALUE_TOL, errors)
    summary = (f"# summary states={len(rows)} ppt={counts[0]} realign={counts[1]} "
               f"witness={counts[2]} witness_only={counts[3]}")
    if lines[-1] != summary:
        errors.append(f"summary line {lines[-1]!r}, want {summary!r}")
    return errors


def check_family(argv: list[str], stdout: str) -> list[str]:
    opt = _options(argv)
    n, steps = int(opt["n"]), int(opt["steps"])
    lines = stdout.splitlines()
    if not lines or lines[0].split(",") != FAMILY_COLUMNS:
        return ["family header differs"]
    if len(lines) != steps + 1:
        return [f"family printed {len(lines) - 1} rows, want {steps}"]
    scale = math.sqrt(2 / (n * (n - 1)))
    errors: list[str] = []
    for lam, line in zip(np.linspace(0.0, 1.0, steps), lines[1:]):
        got = dict(zip(FAMILY_COLUMNS, map(float, line.split(","))))
        t2, r, w = family_closed_form(n, float(lam))
        want = {"lambda": lam, "tr_W_rho": w, "bound_witness": scale * max(-w, 0.0),
                "norm_T2": t2, "bound_ppt": scale * max(t2 - 1, 0.0), "norm_R": r,
                "bound_realign": scale * max(r - 1, 0.0),
                "bound_upper": math.sqrt(2 * (n - 1) / n) * lam,
                "eof_new": entropy_hull(min(max(t2, r, 1 - w), n), n),
                "eof_old": entropy_hull(min(max(t2, r), n), n),
                "eof_upper": lam * math.log2(n)}
        for key, value in want.items():
            _close(f"lambda={lam:g} {key}", got[key], float(value), VALUE_TOL, errors)
    return errors


def check_bounds(argv: list[str], stdout: str, rho: np.ndarray, lam: float | None) -> list[str]:
    out = json.loads(stdout)
    n = out["n_local"]
    t2, r, w = t2_norm(rho, n), r_norm(rho, n), witness(rho, n)
    f_opt = out.get("f_witness_optimized")
    best = max(t2 - 1, r - 1, -w, *([f_opt] if f_opt is not None else []))
    lam0 = min(max(1 + best, 1.0), float(n))
    want = {"f_ppt": t2 - 1, "f_realign": r - 1, "f_witness": -w,
            "concurrence_lower": math.sqrt(2 / (n * (n - 1))) * max(best, 0.0),
            "lambda0": lam0, "eof_lower": entropy_hull(lam0, n),
            "witness_value": w, "trace_norm_T2": t2, "trace_norm_R": r}
    errors: list[str] = []
    if n * n != rho.shape[0]:
        errors.append(f"n_local {n} does not match the state file")
    for key, value in want.items():
        _close(key, out[key], value, VALUE_TOL, errors)
    flags = {"ppt_violated": out["trace_norm_T2"] > 1 + VERDICT_TOL,
             "realignment_violated": out["trace_norm_R"] > 1 + VERDICT_TOL,
             "witness_detects": out["witness_value"] < -VERDICT_TOL}
    errors += [f"{key} is {out[key]}" for key, value in flags.items() if out[key] != value]
    if "--optimize" in argv:
        if f_opt is None:
            return errors + ["f_witness_optimized missing"]
        if f_opt < -w - VALUE_TOL:
            errors.append(f"f_witness_optimized {f_opt!r} < f_witness {-w!r}")
        if lam is not None and f_opt < lam * (n - 2) - 1e-6:
            errors.append(f"f_witness_optimized {f_opt!r} misses the target {lam * (n - 2)!r}")
    return errors


def check_op(op: dict, inputs: dict) -> list[str]:
    """Errors of one operation record written by the worker."""
    if op["error"] is not None:
        return [op["error"].strip().splitlines()[-1]]
    if op["rc"] != 0:
        return [f"exit code {op['rc']}: {op['stderr'].strip()}"]
    try:
        if op["kind"] == "survey":
            return check_survey(op["argv"], op["stdout"])
        if op["kind"] == "family":
            return check_family(op["argv"], op["stdout"])
        state = inputs[op["argv"][1]]
        return check_bounds(op["argv"], op["stdout"], state.matrix, state.lam)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output does not parse: {exc!r}"]
