import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

import entbound
from entbound import (PureState, closedform, cli, family_state, random_density,
                      save_state, werner_state)
from entbound.cli import FAMILY_COLUMNS, SURVEY_COLUMNS, main

BOUNDS_KEYS = {"n_local", "ppt_violated", "realignment_violated", "witness_value",
               "witness_detects", "trace_norm_T2", "trace_norm_R", "f_ppt",
               "f_realign", "f_witness", "concurrence_lower", "lambda0", "eof_lower"}


def count_calls(monkeypatch, function, owner=entbound.linalg):
    """Count calls of ``owner.function`` made through it or through any entbound module."""
    calls = []
    original = getattr(owner, function)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, function, counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("entbound") and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counting)
    return calls


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
    family_row = cli._family_row

    def shifted(sys_, lam):
        row = family_row(sys_, lam)
        return dataclasses.replace(row, norm_T2=row.norm_T2 + 1e-6)
    monkeypatch.setattr(cli, "_family_row", shifted)


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

    def test_two_trace_norms_per_row(self, monkeypatch, tmp_path):
        # each row is a stack of one: one stacked trace-norm call per functional
        calls = count_calls(monkeypatch, "trace_norms")
        assert main(["family", "--steps", "3", "--out", str(tmp_path / "f.csv")]) == 0
        assert len(calls) == 2 * 3


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

    def test_pure_singlet_file(self, tmp_path, sys4, capsys):
        path = tmp_path / "singlet.json"
        save_state(path, PureState(4, sys4.singlet))
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["concurrence_lower"] == pytest.approx(1.224744871391589, abs=1e-9)

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

    def test_missing_file(self):
        assert main(["bounds", "/no/such/file.json"]) == 1

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

    @pytest.mark.parametrize("n_local", [None, 4.7, True, "4"])
    def test_rejects_non_integer_n_local(self, tmp_path, sys4, capsys, n_local):
        path = tmp_path / "rho.json"
        save_state(path, family_state(sys4, 0.3))
        obj = json.loads(path.read_text())
        obj["n_local"] = n_local
        path.write_text(json.dumps(obj))
        assert main(["bounds", str(path)]) == 1
        assert "n_local" in capsys.readouterr().err

    @pytest.mark.parametrize("optimize", [False, True])
    def test_output_keys(self, tmp_path, sys4, capsys, optimize):
        path = tmp_path / "rho.json"
        save_state(path, random_density(sys4, 5, np.random.default_rng(2)))
        extra = ["--optimize", "--seed", "1", "--restarts", "1", "--iterations", "3"]
        assert main(["bounds", str(path)] + (extra if optimize else [])) == 0
        keys = set(json.loads(capsys.readouterr().out))
        assert keys == BOUNDS_KEYS | ({"f_witness_optimized"} if optimize else set())
        assert len(keys) == 13 + optimize

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

    @pytest.mark.parametrize("n", [6, 8])
    def test_appendix_b_suite(self, capsys, n):
        assert main(["verify", "appendixB", "--n", str(n)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_appendix_a_requires_seed(self):
        assert main(["verify", "appendixA", "--n", "4"]) == 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_rejects_fewer_than_one_sample(self, capsys, samples):
        assert main(["verify", "appendixA", "--samples", samples, "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", "error: --samples must be at least 1\n")

    def test_has_no_tolerance_option(self):
        assert main(["verify", "witness", "--tol", "1e-9"]) == 1

    @pytest.mark.parametrize("n", [4, 6])
    def test_figures_suite(self, capsys, n):
        assert main(["verify", "figures", "--n", str(n)]) == 0
        assert "FAIL" not in capsys.readouterr().out

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
        # 33 samples are chunks of 16, 16 and 1; each chunk is scanned once,
        # when it is validated, and its functionals take two stacked trace norms
        stack_scans = count_calls(monkeypatch, "as_complex_stack")
        matrix_scans = count_calls(monkeypatch, "as_complex_matrix")
        norms = count_calls(monkeypatch, "trace_norms")
        assert main(["survey", "--n", "4", "--samples", "33", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert (len(stack_scans), len(matrix_scans), len(norms)) == (3, 0, 2 * 3)

    @pytest.mark.parametrize("samples", [1, 15, 16, 17, 33])
    @pytest.mark.parametrize("family", [False, True])
    def test_chunks_match_one_state_at_a_time(self, capsys, samples, family):
        n, rank, seed = 4, 5, 11
        assert main(["survey", "--n", str(n), "--samples", str(samples), "--rank", str(rank),
                     "--seed", str(seed)] + (["--include-family"] if family else [])) == 0
        got = capsys.readouterr().out
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

    def test_memory_does_not_grow_with_samples(self, tmp_path):
        survey_peak_bytes(tmp_path, 1)  # warm caches and imports
        small = survey_peak_bytes(tmp_path, 20)
        large = survey_peak_bytes(tmp_path, 200)
        assert large - small <= 2 ** 20
        # small states, where per-sample seed streams and kept lines would show
        survey_peak_bytes(tmp_path, 1, "--n", "4", "--rank", "1")
        small = survey_peak_bytes(tmp_path, 30, "--n", "4", "--rank", "1")
        large = survey_peak_bytes(tmp_path, 1000, "--n", "4", "--rank", "1")
        assert large - small <= 2 ** 18


def test_validated_state_is_not_rescanned(monkeypatch, sys4):
    # the trace norms of a validated stack scan nothing; a raw array is scanned once
    dm = random_density(sys4, 3, 2)
    calls = count_calls(monkeypatch, "as_complex_matrix")
    stack_calls = count_calls(monkeypatch, "as_complex_stack")
    cli.evaluate_criteria(dm, sys4)
    assert (len(calls), len(stack_calls)) == (0, 0)
    cli.evaluate_criteria(dm.matrix, sys4)
    assert (len(calls), len(stack_calls)) == (1, 0)


def test_witness_search_scans_no_intermediate(monkeypatch, sys4):
    # the operand passes the state gate once (a raw array is scanned there, a
    # PureState builds its projector there); beyond that only W and the two
    # returned unitaries are scanned, once each, however long the search
    dm = random_density(sys4, 4, 3)
    pure = entbound.random_pure(sys4, np.random.default_rng(3))
    for rho in (dm, dm.matrix, pure):
        counts = []
        for iterations in (0, 20):
            calls = count_calls(monkeypatch, "as_complex_matrix")
            stack_calls = count_calls(monkeypatch, "as_complex_stack")
            gates = count_calls(monkeypatch, "as_matrix", entbound.states)
            projectors = count_calls(monkeypatch, "projector", PureState)
            entbound.minimize_witness(rho, sys4, entbound.OptimizerBudget(1, iterations, 1))
            counts.append((len(calls), len(stack_calls), len(gates), len(projectors)))
            monkeypatch.undo()
        raw = isinstance(rho, np.ndarray)
        assert counts[0] == counts[1] == (3 + raw, 0, 1, isinstance(rho, PureState))


class TestWitnessCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["witness", "--n", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eigenvalue"
        evals = [float(x) for x in lines[1:17]]
        assert evals[0] == pytest.approx(-2.0, abs=1e-9)
        assert evals[-1] == pytest.approx(2.0, abs=1e-9)

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
               "eigenvalues": [float(x) for x in np.linalg.eigh(w)[0]],
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
