"""Command-line interface.

Subcommands: ``family`` (bound-curve sweep to CSV), ``bounds`` (JSON report
for one state file), ``verify`` (self-check suites), ``survey`` (random-state
detection rates to CSV), ``witness`` (spectrum / matrix dump).

Exit codes: 0 success, 1 input or usage error (or an internal error, reported
in one line), 2 verification failure.
Every randomized command takes an explicit --seed; there is no wall-clock
default, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys as _sys
from dataclasses import asdict, fields
from functools import lru_cache
from itertools import chain

import numpy as np

from . import closedform
from .bounds import (FamilyCurvePoint, concurrence_from_functional,
                     eof_from_functional, report_from_verdict)
from .closedform import family_bounds_closed_form
from .criteria import (CriteriaVerdict, OptimizerBudget, _verdicts, build_witness,
                       evaluate_criteria, minimize_witness, twisted_witness,
                       witness_value)
from .spinspace import coupled_system
from .states import (family_state, haar_unitary, load_state, random_densities,
                     random_pure, schmidt_decompose)

FAMILY_COLUMNS = ("lambda",) + tuple(f.name for f in fields(FamilyCurvePoint))[1:]

SURVEY_COLUMNS = ("state",) + tuple(f.name for f in fields(CriteriaVerdict))

# survey evaluates random states this many at a time: enough to share the
# per-call overhead of the stacked kernels, few enough that memory stays flat
SURVEY_CHUNK = 16
SURVEY_FAMILY_LAMBDAS = (0.05, 0.06, 0.07, 0.08, 0.09)

# --n is refused when N^2 exceeds this: every state and the witness are dense
# N^2 x N^2 matrices, and 4096 x 4096 (N = 64) is already a usage limit
MAX_STATE_DIM = 4096


def _fmt(x) -> str:
    """True/False for a bool, else the shortest decimal that round-trips to the double."""
    if isinstance(x, bool):
        return str(x)
    return repr(float(x))


def _even_n(value: str) -> int:
    n = int(value)
    if n < 4 or n % 2 != 0:
        raise argparse.ArgumentTypeError(f"local dimension must be even and >= 4, got {n}")
    if n * n > MAX_STATE_DIM:
        raise argparse.ArgumentTypeError(
            f"local dimension must satisfy N^2 <= {MAX_STATE_DIM}, got {n}")
    return n


def _family_row(sys_, lam: float) -> FamilyCurvePoint:
    """The numeric family row: one verdict and its bound report at lam."""
    n = sys_.n
    v = evaluate_criteria(family_state(sys_, lam), sys_)
    report = report_from_verdict(v, n)
    return FamilyCurvePoint(
        lam=lam,
        tr_W_rho=v.witness_value + 0.0,
        bound_witness=concurrence_from_functional(report.f_witness, n),
        norm_T2=v.trace_norm_T2,
        bound_ppt=concurrence_from_functional(report.f_ppt, n),
        norm_R=v.trace_norm_R,
        bound_realign=concurrence_from_functional(report.f_realign, n),
        bound_upper=np.sqrt(2 * (n - 1) / n) * lam,
        eof_new=report.eof_lower,
        eof_old=eof_from_functional(max(report.f_ppt, report.f_realign), n),
        eof_upper=lam * np.log2(n),
    )


def cmd_family(args) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not (0 <= args.lambda_min <= args.lambda_max <= 1):
        raise ValueError("need 0 <= lambda-min <= lambda-max <= 1")
    sys_ = coupled_system(args.n)
    grid = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    rows = (_family_row(sys_, float(lam)) for lam in grid)
    _write_lines(args.out, chain(
        [",".join(FAMILY_COLUMNS)],
        (",".join(_fmt(getattr(row, f.name)) for f in fields(row)) for row in rows)))
    return 0


def cmd_bounds(args) -> int:
    state = load_state(args.state)  # a PureState enters every criterion as its projector
    sys_ = coupled_system(state.n_local)
    if args.optimize and args.seed is None:
        raise ValueError("--optimize requires an explicit --seed")
    verdict = evaluate_criteria(state, sys_)
    f_opt = None
    if args.optimize:
        budget = OptimizerBudget(restarts=args.restarts, iterations=args.iterations,
                                 seed=args.seed)
        f_opt = -minimize_witness(state, sys_, budget)[0]
    report = report_from_verdict(verdict, sys_.n, f_opt)
    out = {"n_local": state.n_local, **asdict(verdict), **asdict(report)}
    if report.f_witness_optimized is None:
        del out["f_witness_optimized"]
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_survey(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    sys_ = coupled_system(args.n)
    n2 = args.n * args.n
    rank = args.rank if args.rank is not None else n2
    if not 1 <= rank <= n2:
        raise ValueError(f"--rank must lie in [1, {n2}]")
    root = np.random.SeedSequence(args.seed)

    # a chunk of states and their lines at a time, so memory does not grow
    # with --samples; spawn(k) per chunk gives the same child streams as one
    # spawn(samples)
    def chunks():
        if args.include_family:
            yield ([f"family({lam})" for lam in SURVEY_FAMILY_LAMBDAS],
                   np.stack([family_state(sys_, lam).matrix for lam in SURVEY_FAMILY_LAMBDAS]))
        for start in range(0, args.samples, SURVEY_CHUNK):
            size = min(SURVEY_CHUNK, args.samples - start)
            yield ([f"random{k}" for k in range(start, start + size)],
                   random_densities(sys_, rank, root.spawn(size)))

    def lines():
        yield ",".join(SURVEY_COLUMNS)
        n_states = n_ppt = n_re = n_wit = n_wit_only = 0
        for names, stack in chunks():  # validated stacks: the ungated core
            for name, v in zip(names, _verdicts(stack, sys_)):
                n_states += 1
                n_ppt += v.ppt_violated
                n_re += v.realignment_violated
                n_wit += v.witness_detects
                n_wit_only += v.witness_detects and not v.ppt_violated \
                    and not v.realignment_violated
                # getattr, not dataclasses.astuple, which deep-copies every field
                yield ",".join([name, *(_fmt(getattr(v, c)) for c in SURVEY_COLUMNS[1:])])
        yield (f"# summary states={n_states} ppt={n_ppt} realign={n_re} "
               f"witness={n_wit} witness_only={n_wit_only}")

    _write_lines(args.out, lines())
    return 0


def cmd_witness(args) -> int:
    sys_ = coupled_system(args.n)
    w = build_witness(sys_)
    evals = np.linalg.eigh(w)[0]  # not eigvalsh, whose eigenvalues differ in the last bits
    if args.format == "json":
        lines = _witness_json_lines(args.n, w, evals)
    else:
        lines = chain(["eigenvalue"], map(_fmt, evals),
                      ["# matrix rows (real part only differs from zero)"],
                      (",".join(_fmt(z.real) for z in row) for row in w))
    _write_lines(args.out, lines)
    return 0


def _witness_json_lines(n: int, w: np.ndarray, evals: np.ndarray):
    """``json.dumps(record, indent=2)`` of the witness record, one matrix row per item.

    The record is {"n_local", "trace", "eigenvalues", "matrix": rows of
    [re, im] pairs}; only one row is ever held as text, not the whole matrix.
    """
    def items(values, indent):  # the body of an indented JSON list
        return ",\n".join(indent + v for v in values)

    yield "{"
    yield f'  "n_local": {n},'
    yield f'  "trace": {_fmt(np.trace(w).real)},'
    yield '  "eigenvalues": ['
    yield items(map(_fmt, evals.tolist()), "    ")
    yield "  ],"
    yield '  "matrix": ['
    for k, row in enumerate(w):
        pairs = (f"[\n        {re!r},\n        {im!r}\n      ]"
                 for re, im in zip(row.real.tolist(), row.imag.tolist()))
        yield "    [\n" + items(pairs, "      ") + "\n    ]" + ("," if k + 1 < len(w) else "")
    yield "  ]"
    yield "}"


def _write_lines(path, lines) -> None:
    """Write each line and a newline as it arrives, to stdout if path is None or "-".

    A file is opened before the first line is drawn, so an unwritable path
    fails before any work; lines written before an error stay written.
    """
    with (contextlib.nullcontext(_sys.stdout) if path is None or path == "-"
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        fh.writelines(line + "\n" for line in lines)


class _Checker:
    """Collects named pass/fail outcomes and prints one line each."""

    def __init__(self):
        self.failed = False

    def check(self, name: str, err: float, tol: float) -> None:
        ok = err <= tol
        self.failed |= not ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name:40s} max_err={err:.3e} tol={tol:.1e}")


def _verify_witness(ck: _Checker, n: int) -> None:
    sys_ = coupled_system(n)
    w = build_witness(sys_)
    err = max(float(np.abs(closedform.lifted_witness(sys_) - w).max()),
              float(np.abs(w - closedform.spectral_witness(sys_)).max()))
    ck.check(f"witness-forms-agree n={n}", err, 1e-10)
    evals = np.linalg.eigh(w)[0]  # the eigenvalues that ``witness`` prints
    values, mults = map(np.array, zip(*closedform.witness_spectrum(n)))
    ck.check(f"witness-eigenvalues n={n}",
             float(np.abs(evals - np.repeat(values, mults)).max()), 1e-9)
    # the exact eigenvalues are >= 2 apart, so each computed one counts
    # towards the exact value nearest to it
    nearest = np.abs(evals[:, None] - values).argmin(axis=1)
    ck.check(f"witness-multiplicities n={n}",
             int(np.abs(np.bincount(nearest, minlength=len(values)) - mults).sum()), 0)
    psi = sys_.singlet
    ck.check(f"witness-singlet-expectation n={n}",
             abs(float((psi.conj() @ w @ psi).real) + (n - 2)), 1e-10)


def _verify_appendix_a(ck: _Checker, n: int, samples: int, seed: int) -> None:
    sys_ = coupled_system(n)
    rng = np.random.default_rng(seed)
    # the singlet's Schmidt frames attain |A| = 1; Haar-random ones stay far below
    eye = np.eye(n)
    worst = abs(closedform.overlap_kernel(
        closedform.FrameConfig(phi_i=eye[0], phi_j=eye[1], chi_i=eye[n - 1], chi_j=-eye[n - 2]),
        sys_))
    for _ in range(samples):
        cfg = closedform.sample_frame_config(sys_, rng)
        worst = max(worst, abs(closedform.overlap_kernel(cfg, sys_)))
    ck.check(f"overlap-kernel-bound n={n} samples={samples}", max(worst - 1.0, 0.0), 1e-12)

    w = build_witness(sys_)
    worst = 0.0
    for k in range(max(samples // 10, 100)):
        psi = random_pure(sys_, rng)
        alpha = schmidt_decompose(psi).coefficients
        cap = float(np.sum(alpha) ** 2 - np.sum(alpha ** 2))
        fw = -witness_value(w, psi)
        u1, u2 = haar_unitary(sys_.n, rng), haar_unitary(sys_.n, rng)
        fw_twist = -witness_value(twisted_witness(w, u1, u2), psi)
        worst = max(worst, fw - cap, fw_twist - cap)
    ck.check(f"pure-state-witness-cap n={n}", max(worst, 0.0), 1e-10)


# suite -> (check name, family-row columns, tolerance) for each check
_FAMILY_CHECKS = {
    "appendixB": (("trace-norms-vs-closed-form", ("norm_T2", "norm_R"), 1e-9),
                  ("witness-value-vs-closed-form", ("tr_W_rho",), 1e-12)),
    "figures": (("figure-concurrence-curves",
                 ("bound_witness", "bound_ppt", "bound_realign"), 1e-9),
                ("figure-eof-curves", ("eof_new", "eof_old"), 1e-9)),
}


def _family_pairs(n: int) -> list:
    """(printed family row, closed-form point) at lambda = 0, 0.01, ..., 1."""
    sys_ = coupled_system(n)
    return [(_family_row(sys_, k / 100), family_bounds_closed_form(n, k / 100))
            for k in range(101)]


def _verify_family(ck: _Checker, n: int, suite: str, pairs: list) -> None:
    """Compare the rows that ``family`` prints with the closed-form rows, column by column."""
    for name, columns, tol in _FAMILY_CHECKS[suite]:
        ck.check(f"{name} n={n}", max(abs(getattr(row, c) - getattr(point, c))
                                      for row, point in pairs for c in columns), tol)
    if suite == "figures":
        cross = family_bounds_closed_form(n, 0.5)
        ck.check(f"curve-crossing-at-half n={n}",
                 abs(cross.bound_witness - cross.bound_ppt), 1e-9)


def cmd_verify(args) -> int:
    ck = _Checker()
    suites = ("witness", "appendixA", "appendixB", "figures") if args.suite == "all" \
        else (args.suite,)
    if "appendixA" in suites:
        if args.seed is None:
            raise ValueError("this suite is randomized and requires an explicit --seed")
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
    pairs = None  # built once, for the first family suite, and shared
    for suite in suites:
        if suite == "witness":
            _verify_witness(ck, args.n)
        elif suite == "appendixA":
            _verify_appendix_a(ck, args.n, args.samples, args.seed)
        else:
            if pairs is None:
                pairs = _family_pairs(args.n)
            _verify_family(ck, args.n, suite, pairs)
    return 2 if ck.failed else 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each subcommand runs ``cmd_<name>``."""
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Entanglement detection and concurrence / entanglement-of-"
                    "formation lower bounds on C^N x C^N (even N >= 4).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="sweep the singlet/Werner family, write CSV")
    p.add_argument("--n", type=_even_n, default=4)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("bounds", help="JSON bound report for one state file")
    p.add_argument("state", help="path to a JSON state file")
    p.add_argument("--optimize", action="store_true",
                   help="sharpen the witness functional over product unitaries")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suite", choices=("witness", "appendixA", "appendixB",
                                     "figures", "all"))
    p.add_argument("--n", type=_even_n, default=4)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("survey", help="criteria verdicts over random states, write CSV")
    p.add_argument("--n", type=_even_n, default=4)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--rank", type=int, default=None, help="Ginibre factor width (default N^2)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--include-family", action="store_true",
                   help="inject family states at lambda = 0.05..0.09")

    p = sub.add_parser("witness", help="print the witness spectrum and matrix")
    p.add_argument("--n", type=_even_n, default=4)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to the input-error code
        return 0 if exc.code in (0, None) else 1
    try:
        # looked up at call time, so a replaced cmd_* is what runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=_sys.stderr)
        return 1
    except Exception as exc:  # a bug, not bad input: still one line, no traceback
        message = str(exc).replace("\n", " ")
        print(f"error: internal error: {type(exc).__name__}: {message}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
