import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import entbound
from entbound import (PureState, closedform, cli, family_state, random_density,
                      save_state, werner_state)
from entbound.cli import FAMILY_COLUMNS, SURVEY_COLUMNS, main
from helpers import (count_calls, dense_witness_value, family_csv, family_row,
                     hermitian_part_path, noisy_product, survey_csv, twisted_witness)

BOUNDS_KEYS = {"n_local", "ppt_violated", "realignment_violated", "witness_value",
               "witness_detects", "trace_norm_T2", "trace_norm_R", "f_ppt",
               "f_realign", "f_witness", "concurrence_lower", "lambda0", "eof_lower"}


def survey_peak_bytes(tmp_path, samples, *options):
    """tracemalloc peak of one ``survey`` run writing to a file (``--n 8`` unless given)."""
    out = tmp_path / f"s{samples}.csv"
    tracemalloc.start()
    try:
        assert main(["survey", "--n", "8", "--samples", str(samples), "--seed", "5",
                     *options, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def shift_witness(monkeypatch):
    build = cli.build_witness
    monkeypatch.setattr(cli, "build_witness",
                        lambda sys_: build(sys_) + 1e-6 * np.eye(sys_.n ** 2))


def shift_trace_norms(monkeypatch):
    norms = closedform.family_trace_norms
    monkeypatch.setattr(closedform, "family_trace_norms",
                        lambda n, lam: tuple(x + 1e-6 for x in norms(n, lam)))


def shift_printed_norm(monkeypatch):
    family_rows = cli._family_rows

    def shifted(sys_, lams):
        return (dataclasses.replace(row, norm_T2=row.norm_T2 + 1e-6)
                for row in family_rows(sys_, lams))
    monkeypatch.setattr(cli, "_family_rows", shifted)


def shift_curves(monkeypatch):
    curves = cli.family_bounds_closed_form

    def shifted(n, lam):
        point = curves(n, lam)
        return dataclasses.replace(point, bound_witness=point.bound_witness + 1e-6)
    monkeypatch.setattr(cli, "family_bounds_closed_form", shifted)


def scale_kernel(monkeypatch):
    kernel = closedform.overlap_kernel
    monkeypatch.setattr(closedform, "overlap_kernel",
                        lambda cfg, sys_: kernel(cfg, sys_) * (1 + 1e-6))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return header, rows


class TestFamilyCommand:
    def test_sweep_values(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["family", "--n", "4", "--steps", "101", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert FAMILY_COLUMNS == ("lambda", "tr_W_rho", "bound_witness", "norm_T2",
                                  "bound_ppt", "norm_R", "bound_realign", "bound_upper",
                                  "eof_new", "eof_old", "eof_upper")
        assert header == list(FAMILY_COLUMNS)
        assert len(rows) == 101
        table = {float(r[0]): dict(zip(header, map(float, r))) for r in rows}
        mid = table[0.5]
        assert mid["bound_witness"] == pytest.approx(mid["bound_ppt"], abs=1e-9)
        assert mid["bound_witness"] == pytest.approx(0.4082482904638630, abs=1e-9)
        assert table[1.0]["eof_new"] == pytest.approx(2.0, abs=1e-9)
        start = table[0.0]
        for col in ("bound_witness", "bound_ppt", "bound_realign", "eof_new", "eof_old"):
            assert start[col] == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_floats(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["family", "--n", "4", "--steps", "11", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            for cell in row:
                assert repr(float(cell)) == cell

    def test_rejects_bad_usage(self, tmp_path):
        assert main(["family", "--steps", "1"]) == 1
        assert main(["family", "--n", "5"]) == 1
        assert main(["family", "--lambda-min", "0.9", "--lambda-max", "0.1"]) == 1

    def test_unwritable_path(self):
        assert main(["family", "--steps", "2", "--out", "/nonexistent/dir/x.csv"]) == 1

    @pytest.mark.parametrize("n, lam, eof_upper", [
        (10, 2.4e-16, "7.972627427729669e-16"), (40, 1e-15, "5.321928094887363e-15")])
    def test_functional_a_few_ulps_above_zero(self, capsys, n, lam, eof_upper):
        # the largest functional rounds to a few ulps above 0, where the extremal
        # Schmidt weight rounded above 1 and the entropy raised: each row is the
        # oracle's, with eof_new and eof_old 0
        argv = ["family", "--n", str(n), "--lambda-min", str(lam), "--lambda-max", str(lam)]
        assert main(argv + ["--steps", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == family_csv(entbound.coupled_system(n), [lam, lam])
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert row.endswith(f",0.0,0.0,{eof_upper}")

    def test_negative_zero_grid_prints_positive_zeros(self, capsys):
        # np.linspace keeps a -0.0 endpoint, and bound_upper and eof_upper scale with it
        argv = ["family", "--n", "4", "--lambda-min", "-0", "--lambda-max", "-0", "--steps", "2"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = out.splitlines()[1:]
        assert "-0.0" not in [cell for row in rows for cell in row.split(",")]
        assert rows[0] == rows[1]

    def test_two_trace_norms_per_sweep(self, monkeypatch, tmp_path):
        # the grid is one stack at N = 4: one stacked trace-norm call per functional
        calls = count_calls(monkeypatch, "trace_norms")
        assert main(["family", "--steps", "3", "--out", str(tmp_path / "f.csv")]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("n, steps, lo, hi", [
        (4, 101, 0.0, 1.0), (6, 101, 0.0, 1.0), (16, 101, 0.0, 1.0), (20, 101, 0.0, 1.0),
        (4, 2, 0.0, 1.0), (16, 2, 0.0, 1.0), (64, 2, 0.0, 1.0),
        (6, 11, 0.0, 1.0), (16, 11, 0.0, 1.0), (20, 11, 0.0, 1.0), (32, 11, 0.0, 1.0),
        (32, 13, 0.0, 1.0), (64, 3, 0.0, 1.0),
        (4, 11, 0.2, 0.35), (16, 7, 0.05, 0.3), (32, 12, 0.0, 0.125),
    ])
    def test_stdout_matches_the_row_oracle(self, capsys, n, steps, lo, hi):
        # 95 rows a stack at N = 16, 49 at N = 20, 11 at N = 32 and 1 at N = 64,
        # so some grids end with a short stack
        assert main(["family", "--n", str(n), "--steps", str(steps),
                     "--lambda-min", str(lo), "--lambda-max", str(hi)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == family_csv(entbound.coupled_system(n), np.linspace(lo, hi, steps))

    def test_lapack_calls_do_not_grow_with_the_grid(self, monkeypatch, tmp_path):
        # at N = 16 both grids are one stack, so each kernel makes the same calls
        calls = {name: count_calls(monkeypatch, name, np.linalg)
                 for name in ("eigvalsh", "svd", "cholesky")}
        counts = []
        for steps in (2, 11):
            for c in calls.values():
                c.clear()
            assert main(["family", "--n", "16", "--steps", str(steps),
                         "--out", str(tmp_path / "f.csv")]) == 0
            counts.append({name: len(c) for name, c in calls.items()})
        assert counts[0] == counts[1] and counts[0]["eigvalsh"] > 0

    def test_row_builds_no_dense_matrix(self, monkeypatch, tmp_path):
        # an 11-row N = 32 sweep reads neither W nor a dense rho: no witness is
        # built, no matrix is scanned for its sectors, and the traced peak
        # stays below one 1024 x 1024 complex array
        out = tmp_path / "f.csv"
        args = ["family", "--n", "32", "--steps", "11", "--out", str(out)]
        assert main(args) == 0  # warm the cached sector maps
        misses = entbound.build_witness.cache_info().misses
        scans = count_calls(monkeypatch, "_is_sector_stack", entbound.states)
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entbound.build_witness.cache_info().misses == misses and not scans
        assert peak < 1024 ** 2 * 16
        _, rows = read_csv(out)
        assert float(rows[4][1]) == pytest.approx(-0.4 * 30, abs=1e-12)

    def test_accepts_block_state_dimensions(self, monkeypatch, capsys):
        # family builds no dense state, so --n is bounded by MAX_SECTOR_N, not N^2 <= 4096
        assert main(["family", "--n", "66", "--steps", "2"]) == 0
        last = capsys.readouterr().out.splitlines()[2].split(",")
        assert float(last[1]) == pytest.approx(-64.0, abs=1e-12) and float(last[3]) == 66.0
        assert cli.build_parser().parse_args(["family", "--n", "256"]).n == 256
        monkeypatch.setattr(cli, "coupled_system", None)
        assert main(["family", "--n", "258"]) == 1
        assert "N <= 256, got 258" in capsys.readouterr().err


class TestBoundsCommand:
    def test_ppt_window_state(self, tmp_path, sys4, capsys):
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.1))
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["witness_detects"] is True
        assert report["ppt_violated"] is False
        assert report["f_witness"] == pytest.approx(0.2, abs=1e-10)

    def test_werner_state(self, tmp_path, sys4, capsys):
        path = tmp_path / "werner.json"
        save_state(path, werner_state(sys4))
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["concurrence_lower"] == pytest.approx(0.0, abs=1e-9)
        assert report["eof_lower"] == pytest.approx(0.0, abs=1e-9)

    def test_zero_witness_value_prints_positive_zero(self, tmp_path, sys4, capsys):
        # tr(W rho) = +0.0 on the Werner state: its negation is printed 0.0, never -0.0
        path = tmp_path / "werner.json"
        save_state(path, werner_state(sys4))
        for extra in ([], ["--optimize", "--seed", "1", "--restarts", "1", "--iterations", "0"]):
            assert main(["bounds", str(path), *extra]) == 0
            out = capsys.readouterr().out
            assert '"f_witness": 0.0' in out and "-0.0" not in out

    def test_pure_singlet_file(self, tmp_path, sys4, capsys):
        path = tmp_path / "singlet.json"
        save_state(path, PureState(4, sys4.singlet))
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["concurrence_lower"] == pytest.approx(1.224744871391589, abs=1e-9)

    def test_functional_a_few_ulps_above_zero(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        save_state(path, family_state(entbound.coupled_system(10), 2.4e-16))
        assert main(["bounds", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["eof_lower"] == 0.0

    def test_optimize_requires_seed(self, tmp_path, sys4):
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.3))
        assert main(["bounds", str(path), "--optimize"]) == 1

    def test_optimize_reports_field(self, tmp_path, sys4, capsys):
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.3))
        code = main(["bounds", str(path), "--optimize", "--seed", "5",
                     "--restarts", "1", "--iterations", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f_witness_optimized"] >= report["f_witness"] - 1e-12

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bounds", str(path)]) == 1

    def test_invalid_state_rejected(self, tmp_path):
        path = tmp_path / "invalid.json"
        entries = [[[0.5 if i == j and i < 4 else 0.0, 0.0] for j in range(16)]
                   for i in range(16)]
        path.write_text(json.dumps({"n_local": 4, "matrix": entries}))
        assert main(["bounds", str(path)]) == 1

    @pytest.mark.parametrize("exponent, message", [
        (1023, "matrix has a real or imaginary part of magnitude 2^990 or more"),
        (989, "density matrix has an eigenvalue below -1e-10")], ids=["2^1023", "2^989"])
    def test_huge_entry_gives_one_line(self, tmp_path, capsys, exponent, message):
        # (rho + rho^dag) / 2 overflows from 2^1023 up: the operand gate rejects
        # every part from 2^990 up, with no numpy warning and no LAPACK error;
        # below the gate, a 2^989 pair fails the density check
        entries = [[[1 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
        entries[0][1] = entries[1][0] = [2.0 ** exponent, 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n_local": 4, "matrix": entries}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_file(self):
        assert main(["bounds", "/no/such/file.json"]) == 1

    def test_every_json_layout_prints_the_same_bytes(self, tmp_path, capsys):
        # a rank-4 N = 16 file in save_state's layout is read a row at a time;
        # indented or with its keys reversed it is parsed whole
        path = tmp_path / "rank4.json"
        save_state(path, random_density(entbound.coupled_system(16), 4, 1))
        obj = json.loads(path.read_text())
        copies = {"indent.json": json.dumps(obj, indent=1),
                  "reversed.json": json.dumps(dict(reversed(list(obj.items()))))}
        for name, text in copies.items():
            (tmp_path / name).write_text(text)
        outs = []
        for p in [path] + [tmp_path / name for name in copies]:
            assert main(["bounds", str(p)]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].err == "" and outs[0] == outs[1] == outs[2]

    def test_pure_state_file_prints_the_bytes_of_its_projector(self, tmp_path, capsys):
        # load_state's vector branch gives the report of the density path
        psi = entbound.random_pure(entbound.coupled_system(8), 1)
        files = {"pure.json": psi, "projector.json": entbound.DensityMatrix(8, psi.projector())}
        outs = []
        for name, state in files.items():
            save_state(tmp_path / name, state)
            assert main(["bounds", str(tmp_path / name)]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].err == "" and outs[0] == outs[1]

    def test_deeply_nested_file_gives_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n_local": 4, "matrix": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("obj", [
        {"n_local": 4, "matrix": {"a": 1}},
        {"n_local": 4, "matrix": [[[1.0, 0.0], {"re": 1}]]},
        {"n_local": 4, "vector": [[1.0, 0.0], {"re": 1}]},
    ])
    def test_non_numeric_entries_give_one_line_error(self, tmp_path, capsys, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: '") and "[re, im] pairs" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("key, pair", [
        ("matrix", [int("1" + "0" * 400), 0]), ("matrix", ["0.0625", 0.0]),
        ("matrix", [True, 0.0]), ("matrix", [0.0625, False]), ("matrix", [None, 0.0]),
        ("vector", [int("1" + "0" * 400), 0]), ("vector", ["1", 0.0]), ("vector", [True, 0.0]),
    ])
    def test_entries_must_be_numbers(self, tmp_path, capsys, key, pair):
        # numpy would read strings and booleans as numbers, and raise OverflowError
        # for an integer beyond the double range
        n = 4
        if key == "matrix":
            entries = [[[1 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
            entries[0][0] = pair
        else:
            entries = [[1.0 if k == 0 else 0.0, 0.0] for k in range(16)]
            entries[0] = pair
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_local": n, key: entries}))
        assert main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "internal error" not in err
        expected = "NaN or Inf" if isinstance(pair[0], int) and pair[0] > 1 else "[re, im] pairs"
        assert expected in err

    @pytest.mark.parametrize("n_local", [None, 4.7, True, "4"])
    def test_rejects_non_integer_n_local(self, tmp_path, sys4, capsys, n_local):
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.3))
        obj = json.loads(path.read_text())
        obj["n_local"] = n_local
        path.write_text(json.dumps(obj))
        assert main(["bounds", str(path)]) == 1
        assert "n_local" in capsys.readouterr().err

    @pytest.mark.parametrize("n, lam, twist, seed, restarts, iterations", [
        (4, 0.1, False, 1, 2, 20), (4, 0.1, False, 3, 6, 20), (8, 0.2, True, 1, 2, 200),
        (16, 0.2, True, 1, 2, 100)])
    def test_optimize_bytes_of_up_front_streams(self, tmp_path, capsys, monkeypatch, n, lam,
                                                twist, seed, restarts, iterations):
        # the restarts spawn their streams one at a time and print the bytes of
        # streams spawned all at once; the search undoes a Haar product twist of a
        # family state, recovering f = lam (N - 2)
        sys_ = entbound.coupled_system(n)
        rho = family_state(sys_, lam)
        if twist:
            rng = np.random.default_rng(n)
            u = np.kron(entbound.haar_unitary(n, rng), entbound.haar_unitary(n, rng))
            rho = entbound.DensityMatrix(n, u @ rho.matrix @ u.conj().T)
        path = tmp_path / "state.json"
        save_state(path, rho)
        command = ["bounds", str(path), "--optimize", "--seed", str(seed),
                   "--restarts", str(restarts), "--iterations", str(iterations)]
        assert main(command) == 0
        got = capsys.readouterr()
        assert json.loads(got.out)["f_witness_optimized"] >= lam * (n - 2) - 1e-6
        real = np.random.SeedSequence

        class UpFront:
            def __init__(self, seed):
                self.children = iter(real(seed).spawn(restarts))

            def spawn(self, k):
                assert k == 1
                return [next(self.children)]
        monkeypatch.setattr(np.random, "SeedSequence", UpFront)
        assert main(command) == 0
        assert capsys.readouterr() == got
        assert got.err == ""

    @pytest.mark.parametrize("optimize", [False, True])
    def test_output_keys(self, tmp_path, sys4, capsys, optimize):
        path = tmp_path / "rho.json"
        save_state(path, random_density(sys4, 5, np.random.default_rng(2)))
        extra = ["--optimize", "--seed", "1", "--restarts", "1", "--iterations", "3"]
        assert main(["bounds", str(path)] + (extra if optimize else [])) == 0
        keys = set(json.loads(capsys.readouterr().out))
        assert keys == BOUNDS_KEYS | ({"f_witness_optimized"} if optimize else set())
        assert len(keys) == 13 + optimize

    @pytest.mark.parametrize("structured", [False, True])
    def test_one_sector_scan_per_report(self, tmp_path, sys4, monkeypatch, capsys, structured):
        # the state's record is decided when the file is validated, and the
        # criteria read it: the sector scan runs once, for a dense or a family file
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.3) if structured else random_density(sys4, 5, 2))
        scans = count_calls(monkeypatch, "_is_sector_stack", entbound.states)
        assert main(["bounds", str(path)]) == 0
        assert len(scans) == 1

    def test_two_trace_norms_per_report(self, tmp_path, sys4, monkeypatch, capsys):
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.3))
        calls = count_calls(monkeypatch, "trace_norms")
        assert main(["bounds", str(path)]) == 0
        assert len(calls) == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("n", [14, 16, 24, 32])
    def test_witness_suite_passes_at_large_n(self, capsys, n):
        # the reference projectors come from one eigensolve of J^2, so the
        # forms agree within the suite's fixed 1e-10 at large N as well
        assert main(["verify", "witness", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert f"witness-forms-agree n={n}" in out
        assert f"witness-singlet-expectation n={n}" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("n", [6, 8, 16])
    def test_appendix_b_suite(self, capsys, n):
        assert main(["verify", "appendixB", "--n", str(n)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_appendix_a_requires_seed(self):
        assert main(["verify", "appendixA", "--n", "4"]) == 1

    @pytest.mark.parametrize("n", [4, 8])
    def test_appendix_a_reads_the_twisted_witness_values(self, monkeypatch, capsys, n):
        # the cap check reads tr(W rho), then tr(U W U^dag rho) for the twist drawn after rho
        draws, terms = [], []

        def recorded(function, out):
            return lambda *args: out.append(function(*args)) or out[-1]
        for name, out in (("random_pure", draws), ("haar_unitary", draws),
                          ("_twisted_witness_terms", terms)):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name), out))
        assert main(["verify", "appendixA", "--n", str(n), "--samples", "10", "--seed", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        w = entbound.build_witness(entbound.coupled_system(n))
        ref = [dense_witness_value(w_u, psi.projector())
               for psi, u1, u2 in zip(draws[0::3], draws[1::3], draws[2::3], strict=True)
               for w_u in (w, twisted_witness(w, u1, u2))]
        assert len(ref) == len(terms) == 200
        assert np.abs(np.subtract([value for value, _ in terms], ref)).max() < 1e-12

    def test_appendix_a_builds_no_dense_witness(self, monkeypatch, capsys):
        calls = [count_calls(monkeypatch, "build_witness", entbound.criteria),
                 count_calls(monkeypatch, "kron", np)]
        assert main(["verify", "appendixA", "--n", "4", "--samples", "100", "--seed", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert not any(calls)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_rejects_fewer_than_one_sample(self, capsys, samples):
        assert main(["verify", "appendixA", "--samples", samples, "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", "error: --samples must be at least 1\n")

    def test_has_no_tolerance_option(self):
        assert main(["verify", "witness", "--tol", "1e-9"]) == 1

    @pytest.mark.parametrize("n", [4, 6, 32])
    def test_figures_suite(self, capsys, n):
        assert main(["verify", "figures", "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        assert "FAIL" not in out and err == ""

    @pytest.mark.parametrize("suite", ["appendixB", "figures"])
    def test_family_suites_print_the_oracle_rows(self, monkeypatch, capsys, suite):
        pairs = cli._family_pairs(8)
        assert main(["verify", suite, "--n", "8"]) == 0
        got = capsys.readouterr().out
        # the same suite on the rows of the oracle, one state at a time
        monkeypatch.setattr(cli, "_family_rows",
                            lambda sys_, lams: (family_row(sys_, lam) for lam in lams))
        for (row, _), (ref, _) in zip(pairs, cli._family_pairs(8), strict=True):
            assert list(map(cli._fmt, dataclasses.astuple(row))) == \
                list(map(cli._fmt, dataclasses.astuple(ref)))
        assert main(["verify", suite, "--n", "8"]) == 0
        assert capsys.readouterr().out == got

    @pytest.mark.parametrize("suite, perturb", [
        ("witness", shift_witness),
        ("appendixA", scale_kernel),
        ("appendixB", shift_trace_norms),
        ("appendixB", shift_printed_norm),
        ("figures", shift_curves),
    ])
    def test_suite_fails_on_perturbed_input(self, monkeypatch, capsys, suite, perturb):
        perturb(monkeypatch)
        assert main(["verify", suite, "--n", "4", "--samples", "100", "--seed", "1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("FAIL ") for line in lines)
        if suite == "appendixB":
            # both the closed form and the printed row feed this check
            assert any(line.startswith("FAIL trace-norms-vs-closed-form ") for line in lines)
        if suite == "witness":
            # a 1e-6 I shift moves every eigenvalue but no multiplicity
            checks = {w[1]: (w[0], float(w[3].removeprefix("max_err=")))
                      for w in map(str.split, lines)}
            assert checks["witness-eigenvalues"][0] == "FAIL"
            assert checks["witness-eigenvalues"][1] == pytest.approx(1e-6, rel=1e-6)
            assert checks["witness-multiplicities"] == ("PASS", 0.0)


class TestSurveyCommand:
    def test_header(self, capsys):
        assert main(["survey", "--samples", "1", "--seed", "1"]) == 0
        assert SURVEY_COLUMNS == ("state", "ppt_violated", "realignment_violated",
                                  "witness_value", "witness_detects", "trace_norm_T2",
                                  "trace_norm_R")
        assert capsys.readouterr().out.splitlines()[0] == ",".join(SURVEY_COLUMNS)

    @pytest.mark.parametrize("rank", ["0", "17"])
    def test_rejects_rank_out_of_range_before_the_header(self, capsys, rank):
        assert main(["survey", "--samples", "1", "--rank", rank, "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", "error: --rank must lie in [1, 16]\n")

    def test_rejects_zero_samples(self, tmp_path):
        assert main(["survey", "--samples", "0", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["survey", "--samples", "10", "--rank", "2",
                         "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_include_family_counts_witness_only(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["survey", "--samples", "3", "--seed", "4",
                     "--include-family", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        family_rows = [l.split(",") for l in lines if l.startswith("family")]
        assert len(family_rows) == 5
        for row in family_rows:
            assert row[1] == "False"      # ppt_violated
            assert row[2] == "False"      # realignment_violated
            assert row[4] == "True"       # witness_detects
        summary = lines[-1]
        assert summary.startswith("# summary")
        counts = dict(kv.split("=") for kv in summary.split()[2:])
        assert int(counts["witness_only"]) >= 5

    def test_one_operand_check_per_chunk(self, monkeypatch, tmp_path):
        # 257 samples are chunks of 128, 128 and 1; each chunk is scanned once,
        # when it is validated, and its functionals take two stacked trace norms
        scans = count_calls(monkeypatch, "as_complex")
        norms = count_calls(monkeypatch, "trace_norms")
        assert main(["survey", "--n", "4", "--samples", "257", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert (len(scans), len(norms)) == (3, 2 * 3)

    def test_one_sector_scan_per_dense_chunk(self, monkeypatch, tmp_path):
        # three dense chunks are scanned once each; the family chunk is built
        # from its entries and is never scanned
        scans = count_calls(monkeypatch, "_is_sector_stack", entbound.states)
        assert main(["survey", "--n", "4", "--samples", "257", "--seed", "1", "--include-family",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert len(scans) == 3

    def test_family_chunk_is_validated_as_one_stack(self, monkeypatch, tmp_path):
        # the five family states are one more chunk: one check, two trace-norm calls
        checks = count_calls(monkeypatch, "_validate", entbound.states)
        norms = count_calls(monkeypatch, "trace_norms")
        assert main(["survey", "--n", "4", "--samples", "257", "--seed", "1", "--include-family",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert (len(checks), len(norms)) == (4, 2 * 4)

    @pytest.mark.parametrize("samples", [1, 15, 16, 17, 33, 127, 128, 129, 257])
    @pytest.mark.parametrize("family", [False, True])
    def test_chunks_match_one_state_at_a_time(self, capsys, samples, family):
        # a chunk is 128 states at N = 4: 127 to 129 and 257 samples cross its boundaries
        n, rank, seed = 4, 5, 11
        assert main(["survey", "--n", str(n), "--samples", str(samples), "--rank", str(rank),
                     "--seed", str(seed)] + (["--include-family"] if family else [])) == 0
        got, err = capsys.readouterr()
        assert err == ""
        # the reference: each state built and evaluated on its own
        sys_ = entbound.coupled_system(n)
        states = [(f"family({lam})", family_state(sys_, lam))
                  for lam in (0.05, 0.06, 0.07, 0.08, 0.09) if family]
        states += [(f"random{k}", random_density(sys_, rank, child)) for k, child
                   in enumerate(np.random.SeedSequence(seed).spawn(samples))]
        lines = [",".join(SURVEY_COLUMNS)]
        counts = [0, 0, 0, 0]
        for name, rho in states:
            v = entbound.evaluate_criteria(rho, sys_)
            lines.append(",".join([name, *(str(x) if isinstance(x, bool) else repr(x)
                                           for x in dataclasses.astuple(v))]))
            counts = [c + x for c, x in zip(counts, (
                v.ppt_violated, v.realignment_violated, v.witness_detects,
                v.witness_detects and not v.ppt_violated and not v.realignment_violated))]
        lines.append("# summary states={} ppt={} realign={} witness={} witness_only={}".format(
            len(states), *counts))
        assert got == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("n, rank, samples, seed", [
        (6, 4, 26, 7), (6, 12, 26, 7), (6, 36, 26, 7), (16, 8, 9, 1)])
    @pytest.mark.parametrize("family", [False, True])
    def test_chunks_match_the_survey_oracle(self, capsys, n, rank, samples, seed, family):
        # 26 samples at N = 6 are a full chunk of 25 and a chunk of one, and 9 at
        # N = 16 are nine one-state chunks; the oracle builds each state with
        # random_density and a verdict with evaluate_criteria
        assert main(["survey", "--n", str(n), "--samples", str(samples), "--rank", str(rank),
                     "--seed", str(seed)] + (["--include-family"] if family else [])) == 0
        assert capsys.readouterr() == (survey_csv(entbound.coupled_system(n), rank, samples,
                                                  seed, family), "")

    @pytest.mark.parametrize("n", [4, 6])
    def test_entry_budget_changes_no_byte(self, monkeypatch, capsys, n):
        # one state a chunk, 16 states a chunk and the default budget print the same bytes
        argv = ["survey", "--n", str(n), "--samples", "40", "--seed", "3", "--include-family"]
        assert main(argv) == 0
        default = capsys.readouterr()
        for entries in (1, 16 * n ** 4):
            monkeypatch.setattr(cli, "SURVEY_ENTRIES", entries)
            assert main(argv) == 0
            assert capsys.readouterr() == default

    def test_memory_does_not_grow_with_samples(self, tmp_path):
        survey_peak_bytes(tmp_path, 1)  # warm caches and imports
        small = survey_peak_bytes(tmp_path, 20)
        large = survey_peak_bytes(tmp_path, 200)
        assert large - small <= 2 ** 20
        # small states, where per-sample seed streams and kept lines would show:
        # one full chunk of 128 states against ten
        survey_peak_bytes(tmp_path, 1, "--n", "4", "--rank", "1")
        small = survey_peak_bytes(tmp_path, 128, "--n", "4", "--rank", "1")
        large = survey_peak_bytes(tmp_path, 1280, "--n", "4", "--rank", "1")
        assert large - small <= 2 ** 18

    @pytest.mark.parametrize("n, samples, sizes", [
        (4, 257, [128, 128, 1]), (6, 51, [25, 25, 1]), (8, 17, [8, 8, 1]), (10, 7, [3, 3, 1]),
        (12, 3, [1, 1, 1]), (16, 3, [1, 1, 1])])
    def test_chunks_shrink_with_n(self, monkeypatch, tmp_path, n, samples, sizes):
        # SURVEY_ENTRIES // N^4 states a chunk, at least one
        seen = []
        check = cli._check_densities
        monkeypatch.setattr(cli, "_check_densities", lambda a, n_: seen.append(len(a)) or check(a, n_))
        assert main(["survey", "--n", str(n), "--samples", str(samples), "--rank", "4",
                     "--seed", "1", "--out", str(tmp_path / "s.csv")]) == 0
        assert seen == sizes

    def test_chunk_peak_stays_within_a_few_state_sizes(self, tmp_path):
        # a chunk holds about four state sizes a state, and a chunk at N = 16
        # is one state, so 16 samples stay below 8 state sizes
        survey_peak_bytes(tmp_path, 1, "--n", "16")  # warm caches and imports
        assert survey_peak_bytes(tmp_path, 16, "--n", "16") <= 8 * 16 * 16 ** 4


def eigvalsh_calls_from_states(monkeypatch):
    """Record each np.linalg.eigvalsh call made directly from entbound.states."""
    calls = []
    original = np.linalg.eigvalsh

    def spy(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "entbound.states":
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def not_positive_definite(*args, **kwargs):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


class TestDensityCertificate:
    """A valid state passes the density check on a Cholesky factorization alone."""

    @pytest.mark.parametrize("n, rank", [(4, 4), (4, 8), (4, 16), (6, 6), (6, 12), (6, 36)])
    def test_valid_survey_makes_no_eigensolve_in_states(self, monkeypatch, tmp_path, n, rank):
        argv = ["survey", "--n", str(n), "--rank", str(rank), "--samples", "16", "--seed", "2",
                "--include-family", "--out", str(tmp_path / "s.csv")]
        calls = eigvalsh_calls_from_states(monkeypatch)
        assert main(argv) == 0
        assert calls == []
        # the spy does see the eigensolve once the certificate fails
        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        assert main(argv) == 0
        assert calls

    @pytest.mark.parametrize("command", [
        "survey --n 4 --rank 4 --include-family --samples 40 --seed 3",
        "survey --n 6 --samples 40 --seed 3",
        "bounds STATE"])
    def test_eigensolve_fallback_prints_the_same_bytes(self, monkeypatch, capsys, tmp_path,
                                                      command):
        path = tmp_path / "rank4.json"
        save_state(path, random_density(entbound.coupled_system(8), 4, 1))
        argv = command.replace("STATE", str(path)).split()
        assert main(argv) == 0
        certified = capsys.readouterr()
        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        assert main(argv) == 0
        assert capsys.readouterr() == certified


class TestHermiticityCertificate:
    """The exact routes of ||rho - rho^dag||_max = 0 skip work and change no output byte."""

    @pytest.mark.parametrize("command", [
        "survey --n 4 --rank 4 --include-family --samples 40 --seed 3",
        "survey --n 6 --samples 40 --seed 3",
        "survey --n 6 --rank 12 --samples 20 --seed 5 --include-family",
        "bounds STATE"])
    def test_hermitian_part_path_prints_the_same_bytes(self, capsys, tmp_path, command):
        path = tmp_path / "rank4.json"
        save_state(path, random_density(entbound.coupled_system(8), 4, 1))
        argv = command.replace("STATE", str(path)).split()
        assert main(argv) == 0
        exact = capsys.readouterr()
        with hermitian_part_path():
            assert main(argv) == 0
        assert capsys.readouterr() == exact

    def test_valid_survey_has_error_zero_throughout(self, monkeypatch, tmp_path):
        # every sampled and family state has ||rho - rho^dag||_max exactly 0, and
        # so do the J_z blocks of R; only the real forms C of R, not symmetric, do not
        results = []
        test = entbound.linalg._hermitian_test

        def spy(blocks):
            err = test(blocks)
            results.append((np.iscomplexobj(blocks[0]), not err.any()))
            return err

        for module in (entbound.linalg, entbound.states):
            monkeypatch.setattr(module, "_hermitian_test", spy)
        assert main(["survey", "--n", "6", "--rank", "12", "--samples", "30", "--seed", "2",
                     "--include-family", "--out", str(tmp_path / "s.csv")]) == 0
        # the family chunk: rho's blocks and R's; two dense chunks of 25 and 5: rho and C.
        # T_2 rho takes the test of rho, and R's route reads it from the record
        assert len(results) == 2 + 2 * 2
        assert all(exact == is_complex for is_complex, exact in results)


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("eps", [4.9e-11, 4.9e-13])
def test_noise_within_the_tolerance_certifies_nothing(capsys, tmp_path, n, eps):
    # |00><00| + i eps B passes the density check and is read as |00><00|, from
    # a file in save_state's layout (read a row at a time), an indented one
    # (parsed whole), and the file save_state writes of its DensityMatrix
    m = noisy_product(n, eps)
    pairs = np.stack([m.real, m.imag], -1).tolist()
    paths = [tmp_path / name for name in ("rows.json", "indented.json", "saved.json")]
    paths[0].write_text(json.dumps({"n_local": n, "matrix": pairs}))
    paths[1].write_text(json.dumps({"n_local": n, "matrix": pairs}, indent=1))
    save_state(paths[2], entbound.DensityMatrix(n, m))
    outs = []
    for path in paths:
        assert main(["bounds", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outs.append(out)
        report = json.loads(out)
        assert report["ppt_violated"] is False and report["realignment_violated"] is False
        assert report["trace_norm_T2"] == 1.0 and report["trace_norm_R"] == 1.0
        assert report["concurrence_lower"] == 0.0 and report["eof_lower"] == 0.0
    assert outs[0] == outs[1] == outs[2]
    assert '"concurrence_lower": 0.0,' in outs[0]


def test_validated_state_is_not_rescanned(monkeypatch, sys4):
    # the trace norms of a validated stack scan nothing; a raw array is scanned once
    dm = random_density(sys4, 3, 2)
    calls = count_calls(monkeypatch, "as_complex")
    cli.evaluate_criteria(dm, sys4)
    assert len(calls) == 0
    cli.evaluate_criteria(dm.matrix, sys4)
    assert len(calls) == 1


def test_witness_search_scans_no_intermediate(monkeypatch, sys4):
    # the operand passes the state gate once (a raw array is scanned there, a
    # PureState builds its projector there, a DensityMatrix gives its record),
    # and nothing else is scanned, however long the search: W, the twists and
    # the result are never gated
    dm = random_density(sys4, 4, 3)
    pure = entbound.random_pure(sys4, np.random.default_rng(3))
    for rho in (dm, dm.matrix, pure):
        counts = []
        for iterations in (0, 20):
            calls = count_calls(monkeypatch, "as_complex")
            gates = count_calls(monkeypatch, "_as_states", entbound.states)
            projectors = count_calls(monkeypatch, "projector", PureState)
            entbound.minimize_witness(rho, sys4, entbound.OptimizerBudget(1, iterations, 1))
            counts.append((len(calls), len(gates), len(projectors)))
            monkeypatch.undo()
        raw = isinstance(rho, np.ndarray)
        assert counts[0] == counts[1] == (raw, 1, isinstance(rho, PureState))


class TestWitnessCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["witness", "--n", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eigenvalue"
        assert lines[1:17] == ["-2.0"] + ["0.0"] * 10 + ["2.0"] * 5
        assert lines[17].startswith("# matrix rows")

    @pytest.mark.parametrize("n", [4, 8, 24])
    def test_prints_the_exact_spectrum(self, tmp_path, n):
        # the closed-form spectrum, expanded by multiplicity, within rounding of eigh of W
        out = tmp_path / "w.csv"
        assert main(["witness", "--n", str(n), "--out", str(out)]) == 0
        evals = np.array([float(x) for x in out.read_text().splitlines()[1:n * n + 1]])
        values, mults = zip(*closedform.witness_spectrum(n))
        assert np.array_equal(evals, np.repeat(values, mults))
        w = entbound.build_witness(entbound.coupled_system(n))
        assert np.abs(evals - np.linalg.eigh(w)[0]).max() <= 1e-13

    def test_module_run_prints_the_bytes_of_main(self, capsys):
        # python -m entbound.cli runs main in a fresh interpreter
        src = str(Path(entbound.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-m", "entbound.cli", "witness", "--n", "4"],
                             capture_output=True, env=env, check=True)
        assert main(["witness", "--n", "4"]) == 0
        assert (run.stdout, run.stderr) == (capsys.readouterr().out.encode(), b"")

    def test_json_output(self, capsys):
        assert main(["witness", "--n", "6", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["trace"] == pytest.approx(24.0, abs=1e-9)
        assert min(obj["eigenvalues"]) == pytest.approx(-4.0, abs=1e-9)
        assert len(obj["matrix"]) == 36

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_streamed_json_equals_one_dump(self, capsys, n):
        # the record written row by row has the bytes of a single json.dumps
        w = entbound.build_witness(entbound.coupled_system(n))
        obj = {"n_local": n,
               "trace": float(np.trace(w).real),
               "eigenvalues": [float(x) for x in np.repeat(*zip(*closedform.witness_spectrum(n)))],
               "matrix": [[[z.real, z.imag] for z in row] for row in w]}
        assert main(["witness", "--n", str(n), "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_local_dimension_beyond_kron_limit(self, monkeypatch, capsys):
        # rejected while parsing, before any structure is built
        monkeypatch.setattr(cli, "coupled_system", None)
        assert main(["witness", "--n", "66"]) == 1
        err = capsys.readouterr().err
        assert "N^2 <= 4096, got 66" in err and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["witness", "appendixA", "all"])
    def test_dense_verify_suites_keep_the_dense_limit(self, monkeypatch, capsys, suite):
        monkeypatch.setattr(cli, "coupled_system", None)
        assert main(["verify", suite, "--n", "66", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "N^2 <= 4096 for the witness and appendixA suites, got 66" in err
        assert "Traceback" not in err
        assert main(["survey", "--n", "66", "--samples", "1", "--seed", "1"]) == 1
        assert "N^2 <= 4096, got 66" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["appendixB", "figures"])
    def test_family_verify_suites_accept_block_state_dimensions(self, suite):
        assert cli.build_parser().parse_args(["verify", suite, "--n", "256"]).n == 256
        assert main(["verify", suite, "--n", "258"]) == 1

    @pytest.mark.parametrize("command", ["family", "verify witness", "survey", "witness"])
    def test_non_integer_local_dimension(self, capsys, command):
        assert main(command.split() + ["--n", "x"]) == 1
        err = capsys.readouterr().err
        assert "local dimension must be an even integer >= 4, got 'x'" in err
        assert "_even_n" not in err

    @pytest.mark.parametrize("argv", [
        "survey --samples 1 --seed -1",
        "survey --samples 1 --seed=-1",
        "survey --samples 1 --seed 1.5",
        "verify appendixA --seed -1",
        "bounds state.json --optimize --seed -1",
        "bounds state.json --seed -3",
    ])
    def test_negative_seed_is_a_usage_error(self, monkeypatch, capsys, argv):
        # rejected while parsing: no state file is read, no generator is seeded
        monkeypatch.setattr(cli, "load_state", None)
        monkeypatch.setattr(cli, "coupled_system", None)
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be an integer >= 0, got" in err
        assert "expected non-negative integer" not in err and "Traceback" not in err

    @pytest.mark.parametrize("options, message", [
        ("--optimize", "--optimize requires an explicit --seed"),
        ("--optimize --seed 1 --restarts 0", "budget must have restarts >= 1 and iterations >= 0"),
        ("--optimize --seed 1 --iterations -1",
         "budget must have restarts >= 1 and iterations >= 0"),
    ])
    def test_bounds_checks_its_arguments_before_the_file(self, monkeypatch, capsys,
                                                        options, message):
        read = []
        monkeypatch.setattr(cli, "load_state", read.append)
        assert main(["bounds", "missing.json"] + options.split()) == 1
        assert read == []
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_memory_error_gives_one_line(self, monkeypatch, capsys):
        def exhausted(n):
            raise MemoryError
        monkeypatch.setattr(cli, "coupled_system", exhausted)
        assert main(["family", "--n", "4"]) == 1
        assert capsys.readouterr() == ("", "error: out of memory: allocation failed\n")

    def test_no_command(self):
        assert main([]) == 1

    def test_internal_error_gives_one_line(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_survey", broken)
        assert main(["survey", "--samples", "1", "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", "error: internal error: RuntimeError: boom\n")

    def test_replaced_command_runs_after_the_parser_is_built(self, monkeypatch, capsys):
        # the parser is built once per process; the command is looked up by name
        assert main(["survey", "--samples", "1", "--seed", "1"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_survey", lambda args: print(args.samples) or 7)
        assert main(["survey", "--samples", "3", "--seed", "1"]) == 7
        assert capsys.readouterr().out == "3\n"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "cmd_survey", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["survey", "--samples", "1", "--seed", "1"])
