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
import math
import sys as _sys
from dataclasses import asdict, fields
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from . import closedform
from .bounds import (FamilyCurvePoint, concurrence_from_functional,
                     eof_from_functional, report_from_verdict)
from .closedform import family_bounds_closed_form
from .criteria import (CriteriaVerdict, OptimizerBudget, _twisted_witness_terms, _verdict_columns,
                       _verdicts, build_witness, evaluate_criteria, minimize_witness)
from .spinspace import coupled_system
from .states import (_check_densities, _mixture_stacks, _sample_densities, haar_unitary,
                     load_state, random_pure, schmidt_decompose)

FAMILY_COLUMNS = ("lambda",) + tuple(f.name for f in fields(FamilyCurvePoint))[1:]

SURVEY_COLUMNS = ("state",) + tuple(f.name for f in fields(CriteriaVerdict))
# one survey row: the state name, then the CriteriaVerdict fields as _fmt prints them
SURVEY_ROW = "%s,%s,%s,%r,%s,%r,%r"

# survey evaluates random states SURVEY_ENTRIES // N^4 at a time (at least
# one), so the arrays of a chunk, about four state sizes a state, stay near
# 2 MB: 128 states at N = 4, 25 at N = 6, 8 at N = 8, 3 at N = 10, one from
# N = 12 up
SURVEY_ENTRIES = 2 ** 15
SURVEY_FAMILY_LAMBDAS = (0.05, 0.06, 0.07, 0.08, 0.09)

# --n is refused when N^2 exceeds this for the commands that build dense
# N^2 x N^2 matrices (268 MB each at N = 64): survey, one state a chunk from
# N = 24 up, witness and verify witness|appendixA.  A dense state is
# validated by a Cholesky factorization (about 6 s at N = 64, 2 vCPU) and
# trace-normed by eigensolves or SVDs, O(N^6).  The family states are built,
# validated and trace-normed as their J_z blocks, O(N^4) work and memory, so
# family and verify appendixB|figures accept N up to MAX_SECTOR_N instead: a
# family row takes about 0.1 s at N = 64, 0.5 s at N = 128 and 4 s at
# N = 256, where family --n 256 --steps 2 peaks at about 355 MB RSS (2 vCPU, OpenBLAS)
MAX_STATE_DIM = 4096
MAX_SECTOR_N = 256


def _fmt(x) -> str:
    """True/False for a bool, else the shortest decimal that round-trips to the double."""
    if isinstance(x, bool):
        return str(x)
    return repr(float(x))


def _local_dimension(value: str, limit: int, bound: str) -> int:
    """An even integer N with 4 <= N <= limit, else an argparse error that states ``bound``."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"local dimension must be an even integer >= 4, got {value!r}") from None
    if n < 4 or n % 2 != 0:
        raise argparse.ArgumentTypeError(f"local dimension must be even and >= 4, got {n}")
    if n > limit:
        raise argparse.ArgumentTypeError(f"local dimension must satisfy {bound}, got {n}")
    return n


def _even_n(value: str) -> int:
    """--n of the commands that build dense states: N^2 <= MAX_STATE_DIM."""
    return _local_dimension(value, math.isqrt(MAX_STATE_DIM), f"N^2 <= {MAX_STATE_DIM}")


def _sector_n(value: str) -> int:
    """--n of family and verify, which build the family states as J_z blocks."""
    return _local_dimension(value, MAX_SECTOR_N, f"N <= {MAX_SECTOR_N}")


def _seed(value: str) -> int:
    """--seed of every randomized command: an integer >= 0, as numpy's seeding requires."""
    try:
        if int(value) >= 0:
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value!r}")


def _family_rows(sys_, lams):
    """The numeric family rows at each lam: a verdict and its bound report per row.

    One :func:`criteria._verdicts` call per stack of :func:`states._mixture_stacks`;
    rows are yielded as their stack finishes.
    """
    n = sys_.n
    stacks = _mixture_stacks(sys_, lams)
    for lam, v in zip(lams, chain.from_iterable(_verdicts(s, sys_) for s in stacks)):
        report = report_from_verdict(v, n)
        yield FamilyCurvePoint(
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
    grid = np.linspace(args.lambda_min, args.lambda_max, args.steps) + 0.0  # no -0.0 endpoint
    rows = _family_rows(sys_, grid.tolist())
    _write_lines(args.out, chain(
        [",".join(FAMILY_COLUMNS)],
        (",".join(_fmt(getattr(row, f.name)) for f in fields(row)) for row in rows)))
    return 0


def cmd_bounds(args) -> int:
    budget = None  # the arguments are checked before the state file is read
    if args.optimize:
        if args.seed is None:
            raise ValueError("--optimize requires an explicit --seed")
        budget = OptimizerBudget(restarts=args.restarts, iterations=args.iterations,
                                 seed=args.seed)
    state = load_state(args.state)  # a PureState enters every criterion as its projector
    sys_ = coupled_system(state.n_local)
    verdict = evaluate_criteria(state, sys_)
    f_opt = None
    if budget is not None:
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
    chunk = max(1, SURVEY_ENTRIES // n2 ** 2)

    # a chunk of states and their lines at a time, so memory does not grow
    # with --samples; spawn(k) per chunk gives the same child streams as one
    # spawn(samples)
    def chunks():
        if args.include_family:
            names = (f"family({lam})" for lam in SURVEY_FAMILY_LAMBDAS)
            for states in _mixture_stacks(sys_, SURVEY_FAMILY_LAMBDAS):
                yield list(islice(names, len(states))), states
        for start in range(0, args.samples, chunk):
            size = min(chunk, args.samples - start)
            yield ([f"random{k}" for k in range(start, start + size)],
                   _check_densities(_sample_densities(sys_, rank, root.spawn(size)), args.n))

    def lines():
        yield ",".join(SURVEY_COLUMNS)
        n_states = n_ppt = n_re = n_wit = n_wit_only = 0
        for names, states in chunks():  # validated records: the ungated core
            columns = _verdict_columns(states, sys_)
            ppt, re, _, wit = columns[:4]
            n_states += len(names)
            n_ppt += int(ppt.sum())
            n_re += int(re.sum())
            n_wit += int(wit.sum())
            n_wit_only += int((wit & ~ppt & ~re).sum())
            # _fmt of each field: a bool prints as str, a float as repr
            yield "\n".join([SURVEY_ROW % row for row in zip(names, *(c.tolist() for c in columns))])
        yield (f"# summary states={n_states} ppt={n_ppt} realign={n_re} "
               f"witness={n_wit} witness_only={n_wit_only}")

    _write_lines(args.out, lines())
    return 0


def cmd_witness(args) -> int:
    sys_ = coupled_system(args.n)
    w = build_witness(sys_)
    evals = np.repeat(*zip(*closedform.witness_spectrum(args.n)))  # ``verify witness`` checks W
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
    A row's numbers are ``json.dumps`` of its flat number list, without
    ``indent``, so the C encoder writes them; the indented pairs are joined
    around them.
    """
    head = json.dumps({"n_local": n, "trace": float(np.trace(w).real),
                       "eigenvalues": evals.tolist(), "matrix": []}, indent=2)
    yield head[:-len("]\n}")]  # up to and with '"matrix": ['
    for k, row in enumerate(w):
        numbers = json.dumps(np.stack([row.real, row.imag], -1).ravel().tolist())[1:-1].split(", ")
        pairs = "\n      ],\n      [\n        ".join(
            map(",\n        ".join, zip(numbers[0::2], numbers[1::2])))
        yield f"    [\n      [\n        {pairs}\n      ]\n    ]" + ("," if k + 1 < len(w) else "")
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


def _verify_witness(n: int):
    sys_ = coupled_system(n)
    w = build_witness(sys_)
    err = max(float(np.abs(closedform.lifted_witness(sys_) - w).max()),
              float(np.abs(w - closedform.spectral_witness(sys_)).max()))
    yield f"witness-forms-agree n={n}", err, 1e-10
    evals = np.linalg.eigh(w)[0]  # W's spectrum, against the exact one that ``witness`` prints
    values, mults = map(np.array, zip(*closedform.witness_spectrum(n)))
    yield f"witness-eigenvalues n={n}", float(np.abs(evals - np.repeat(values, mults)).max()), 1e-9
    # the exact eigenvalues are >= 2 apart, so each computed one counts
    # towards the exact value nearest to it
    nearest = np.abs(evals[:, None] - values).argmin(axis=1)
    yield (f"witness-multiplicities n={n}",
           int(np.abs(np.bincount(nearest, minlength=len(values)) - mults).sum()), 0)
    psi = sys_.singlet
    yield (f"witness-singlet-expectation n={n}",
           abs(float((psi.conj() @ w @ psi).real) + (n - 2)), 1e-10)


def _verify_appendix_a(n: int, samples: int, seed: int):
    sys_ = coupled_system(n)
    rng = np.random.default_rng(seed)
    # the singlet's Schmidt frames attain |A| = 1; Haar-random ones stay far below
    eye = np.eye(n)
    worst = abs(closedform.overlap_kernel((eye[0], eye[1], eye[n - 1], -eye[n - 2]), sys_))
    for _ in range(samples):
        worst = max(worst, abs(closedform.overlap_kernel(closedform.sample_frames(sys_, rng), sys_)))
    yield f"overlap-kernel-bound n={n} samples={samples}", max(worst - 1.0, 0.0), 1e-12

    worst = 0.0
    for k in range(max(samples // 10, 100)):
        psi = random_pure(sys_, rng)
        alpha = schmidt_decompose(psi).coefficients
        cap = float(np.sum(alpha) ** 2 - np.sum(alpha ** 2))
        u1, u2 = haar_unitary(sys_.n, rng), haar_unitary(sys_.n, rng)
        # -tr(W rho), then -tr(U W U^dag rho) for U = U1 x U2, read as the state twist U^dag
        rho = psi.projector()
        for a1, a2 in ((eye, eye), (u1.conj().T, u2.conj().T)):
            worst = max(worst, -_twisted_witness_terms(rho, a1, a2, sys_)[0] - cap)
    yield f"pure-state-witness-cap n={n}", max(worst, 0.0), 1e-10


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
    lams = [k / 100 for k in range(101)]
    rows = _family_rows(coupled_system(n), lams)
    return [(row, family_bounds_closed_form(n, lam)) for row, lam in zip(rows, lams)]


def _verify_family(n: int, suite: str, pairs: list):
    """Yield (name, err, tol) of the rows that ``family`` prints against the closed-form rows."""
    for name, columns, tol in _FAMILY_CHECKS[suite]:
        yield f"{name} n={n}", max(abs(getattr(row, c) - getattr(point, c))
                                   for row, point in pairs for c in columns), tol
    if suite == "figures":
        cross = family_bounds_closed_form(n, 0.5)
        yield f"curve-crossing-at-half n={n}", abs(cross.bound_witness - cross.bound_ppt), 1e-9


def cmd_verify(args) -> int:
    suites = ("witness", "appendixA", "appendixB", "figures") if args.suite == "all" \
        else (args.suite,)
    if "appendixA" in suites:
        if args.seed is None:
            raise ValueError("this suite is randomized and requires an explicit --seed")
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
    if args.n * args.n > MAX_STATE_DIM and {"witness", "appendixA"} & set(suites):
        raise ValueError(f"local dimension must satisfy N^2 <= {MAX_STATE_DIM} "
                         f"for the witness and appendixA suites, got {args.n}")
    failed, pairs = False, None  # the family pairs are built once, for the first family suite
    for suite in suites:
        if suite == "witness":
            checks = _verify_witness(args.n)
        elif suite == "appendixA":
            checks = _verify_appendix_a(args.n, args.samples, args.seed)
        else:
            if pairs is None:
                pairs = _family_pairs(args.n)
            checks = _verify_family(args.n, suite, pairs)
        for name, err, tol in checks:  # a suite yields each check as it finishes; NaN fails
            ok = err <= tol
            failed |= not ok
            print(f"{'PASS' if ok else 'FAIL'} {name:40s} max_err={err:.3e} tol={tol:.1e}")
    return 2 if failed else 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each subcommand runs ``cmd_<name>``."""
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Entanglement detection and concurrence / entanglement-of-"
                    "formation lower bounds on C^N x C^N (even N >= 4).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="sweep the singlet/Werner family, write CSV")
    p.add_argument("--n", type=_sector_n, default=4)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("bounds", help="JSON bound report for one state file")
    p.add_argument("state", help="path to a JSON state file")
    p.add_argument("--optimize", action="store_true",
                   help="sharpen the witness functional over product unitaries")
    p.add_argument("--restarts", type=int, default=OptimizerBudget.restarts)
    p.add_argument("--iterations", type=int, default=OptimizerBudget.iterations)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suite", choices=("witness", "appendixA", "appendixB",
                                     "figures", "all"))
    p.add_argument("--n", type=_sector_n, default=4)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("survey", help="criteria verdicts over random states, write CSV")
    p.add_argument("--n", type=_even_n, default=4)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--rank", type=int, default=None, help="Ginibre factor width (default N^2)")
    p.add_argument("--seed", type=_seed, required=True)
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
