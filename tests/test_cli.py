"""CLI surface: subcommands, formats, exit codes, determinism, round trips."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ibrownian
from ibrownian import cli, exact, verification
from ibrownian.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CORRELATE_N,
    MAX_MATRICES_N,
    MAX_SAMPLE_VALUES,
    MAX_VERIFY_GRID,
    MAX_VERIFY_PATH_STEPS,
    MAX_VERIFY_PATHS,
    main,
    read_sample_csv,
    write_sample_csv,
)
from ibrownian.sampling import PathSample, sample_w
from ibrownian.spectral import cross_correlation
from oracles import sample_csv_per_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m ibrownian ARGV` in a fresh interpreter, stdout and stderr as bytes.

    The child imports the package under test, also when pytest put src/ on
    sys.path itself and PYTHONPATH is unset.
    """
    src = os.path.dirname(os.path.dirname(ibrownian.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop(cli.OUT_DIR_ENV, None)
    return subprocess.run(
        [sys.executable, "-m", "ibrownian", *argv], capture_output=True, timeout=120, env=env
    )


class TestMatrices:
    def test_rho_n2(self, capsys):
        code, out, _ = run_cli(capsys, "matrices", "--n", "2", "--which", "rho")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["entries"] == [
            ["9", "-36", "30"],
            ["-36", "192", "-180"],
            ["30", "-180", "180"],
        ]

    def test_gamma_n1_fraction_strings(self, capsys):
        code, out, _ = run_cli(capsys, "matrices", "--n", "2", "--which", "gamma")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entries"][2] == ["1/2", "1", "1"]

    def test_bad_dimension_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "matrices", "--n", "-3", "--which", "a")
        assert code == EXIT_DOMAIN
        assert json.loads(err)["code"] == EXIT_DOMAIN

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "matrices", "--n", "2", "--which", "nope")
        assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "a.json"
        code, out, _ = run_cli(capsys, "matrices", "--n", "1", "--which", "a", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["entries"] == [["1", "0"], ["-1", "2"]]

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize("write_chars", [1, 700, cli._WRITE_CHARS])
    @pytest.mark.parametrize("which", sorted(cli._MATRIX_BUILDERS))
    def test_streamed_json_is_the_whole_matrix_dump(
        self, capsys, tmp_path, monkeypatch, which, write_chars, n
    ):
        # Rows are formatted and written in batches; the bytes are those of
        # one json.dumps of matrix_to_json, on stdout and in a file.
        monkeypatch.setattr(cli, "_WRITE_CHARS", write_chars)
        whole = json.dumps(exact.matrix_to_json(cli._MATRIX_BUILDERS[which](n)), indent=2) + "\n"
        argv = ("matrices", "--n", str(n), "--which", which)
        assert run_cli(capsys, *argv) == (EXIT_OK, whole, "")
        target = tmp_path / "m.json"
        assert run_cli(capsys, *argv, "--out", str(target)) == (EXIT_OK, "", "")
        assert target.read_bytes() == whole.encode("utf-8")

    def test_json_is_written_row_by_row(self, capsys, tmp_path, monkeypatch):
        # The matrix goes to _emit a row at a time: beyond the matrix itself,
        # built before the trace, the peak is a row and a write batch.
        matrix = exact.rho_matrix(100)
        monkeypatch.setitem(cli._MATRIX_BUILDERS, "rho", lambda n: matrix)
        target = tmp_path / "rho.json"
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "matrices", "--n", "100", "--which", "rho", "--out", str(target)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (EXIT_OK, "", "")
        size = target.stat().st_size
        assert exact.matrix_from_json(json.loads(target.read_text(encoding="utf-8"))) == matrix
        assert peak < size / 4, (peak, size)


def _must_not_be_called(*args):
    raise AssertionError("work started for a size over its cap")


class TestInputCaps:
    @pytest.mark.parametrize("which", ["rho", "a-inverse"])
    def test_matrices_over_cap_exits_before_building(self, capsys, monkeypatch, which):
        monkeypatch.setitem(cli._MATRIX_BUILDERS, which, _must_not_be_called)
        code, out, err = run_cli(
            capsys, "matrices", "--n", str(MAX_MATRICES_N + 1), "--which", which
        )
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN
        assert str(MAX_MATRICES_N) in json.loads(line)["error"]

    def test_matrices_at_cap_is_accepted(self, capsys, monkeypatch):
        built = []
        monkeypatch.setitem(cli._MATRIX_BUILDERS, "rho", lambda n: built.append(n) or [[1]])
        code, _, err = run_cli(capsys, "matrices", "--n", str(MAX_MATRICES_N), "--which", "rho")
        assert code == EXIT_OK and err == "" and built == [MAX_MATRICES_N]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_correlate_over_cap_exits_before_any_expansion(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "cross_correlation", _must_not_be_called)
        monkeypatch.setattr(cli, "_correlation_rows", _must_not_be_called)
        code, out, err = run_cli(
            capsys, "correlate", "--n", str(MAX_CORRELATE_N + 1), "--tau-max", "4",
            "--format", fmt,
        )
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN
        assert str(MAX_CORRELATE_N) in json.loads(line)["error"]

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "2", "--t", "1", "--grid", str(MAX_SAMPLE_VALUES // 4 + 1)),
        ("sample", "--n", "0", "--t", "1", "--grid", str(10**18)),
        ("sample", "--n", "58", "--times", ",".join(["1"] * (MAX_SAMPLE_VALUES // 60 + 1))),
    ])
    def test_sample_over_cap_exits_before_any_array(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "sample_w", _must_not_be_called)
        monkeypatch.setattr(cli.np, "arange", _must_not_be_called)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN
        assert str(MAX_SAMPLE_VALUES) in json.loads(line)["error"]

    def test_sample_at_cap_reaches_the_sampler(self, capsys, monkeypatch):
        # Two times at the order that makes exactly the cap of CSV values.
        class Reached(Exception):  # neither ValueError nor OSError: main lets it out
            pass

        reached = []

        def stop(n, times, seed):
            reached.append((n, len(times)))
            raise Reached

        monkeypatch.setattr(cli, "sample_w", stop)
        n = MAX_SAMPLE_VALUES // 2 - 2
        with pytest.raises(Reached):
            main(["sample", "--n", str(n), "--times", "1,2"])
        assert reached == [(n, 2)]

    @pytest.mark.parametrize("argv", [
        ("--paths", str(MAX_VERIFY_PATHS + 1)),
        ("--suite", "w-covariance", "--paths", str(MAX_VERIFY_PATHS + 1)),
        ("--paths", "2", "--grid", str(MAX_VERIFY_GRID + 1)),
        ("--suite", "laplace", "--paths", "2", "--grid", str(10**18)),
        ("--grid", str(MAX_VERIFY_PATH_STEPS // verification.DEFAULT_PATHS + 1)),
        ("--suite", "laplace", "--paths", str(MAX_VERIFY_PATH_STEPS // 1000 + 1),
         "--grid", "1000"),
    ])
    def test_verify_over_cap_exits_before_any_suite(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(verification, "run_suite", _must_not_be_called)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN

    @pytest.mark.parametrize("argv", [
        (),  # the defaults: 100 000 paths on grid 1024
        ("--paths", "10000", "--seed", "7"),  # the bench size
        ("--paths", str(MAX_VERIFY_PATHS), "--grid", str(MAX_VERIFY_PATH_STEPS // MAX_VERIFY_PATHS)),
        ("--paths", "2", "--grid", str(MAX_VERIFY_GRID)),
        ("--suite", "symmetry", "--paths", str(MAX_VERIFY_PATHS), "--grid", str(10**18)),
    ])
    def test_verify_within_caps_is_accepted(self, capsys, monkeypatch, argv):
        # The grid is capped only where the laplace suite runs.
        calls = []
        monkeypatch.setattr(verification, "run_suite", lambda *a, **kw: calls.append(kw) or [])
        code, _, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_OK and err == "" and len(calls) == 1

    @pytest.mark.parametrize("subcommand,cap", [
        ("matrices", MAX_MATRICES_N), ("correlate", MAX_CORRELATE_N),
        ("sample", MAX_SAMPLE_VALUES), ("verify", MAX_VERIFY_PATHS),
        ("verify", MAX_VERIFY_GRID), ("verify", MAX_VERIFY_PATH_STEPS),
    ])
    def test_cap_is_in_help(self, capsys, subcommand, cap):
        assert main([subcommand, "--help"]) == EXIT_OK
        assert f"at most {cap}" in " ".join(capsys.readouterr().out.split())


class TestDensity:
    def test_standard_normal(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--n", "0", "--t", "1", "--w", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["density"] == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-14)
        assert doc["log_density"] == pytest.approx(math.log(doc["density"]), rel=1e-12)

    def test_transition(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--t", "2", "--w", "0.5", "--a", "0.1"
        )
        assert code == EXIT_OK
        expected = math.exp(-(0.4**2) / 4.0) / math.sqrt(4 * math.pi)
        assert json.loads(out)["density"] == pytest.approx(expected, rel=1e-13)

    def test_request_file(self, capsys, tmp_path):
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"n": 1, "t": 1.0, "w": [0.0, 0.0]}))
        code, out, _ = run_cli(capsys, "density", "--request", str(req))
        assert code == EXIT_OK
        assert json.loads(out)["density"] == pytest.approx(
            math.sqrt(12) / (2 * math.pi), rel=1e-13
        )

    def test_missing_request_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "density", "--request", str(tmp_path / "none.json"))
        assert code == EXIT_IO
        assert json.loads(err)["code"] == EXIT_IO

    def test_bad_time_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "density", "--t", "-1", "--w", "0")
        assert code == EXIT_DOMAIN
        assert "time" in json.loads(err)["error"]

    def test_order_mismatch_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--n", "2", "--t", "1", "--w", "0,0")
        assert code == EXIT_DOMAIN

    def test_missing_state_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--t", "1")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "doc", [{"w": 5, "t": 1}, [1, 2], {"w": [1, 2], "t": [1]}],
        ids=["scalar-w", "top-level-list", "list-t"],
    )
    def test_malformed_request_is_domain_error(self, capsys, tmp_path, doc):
        req = tmp_path / "req.json"
        req.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "density", "--request", str(req))
        assert code == EXIT_DOMAIN
        assert out == ""
        assert json.loads(err)["code"] == EXIT_DOMAIN


    @pytest.mark.parametrize("key", ["t", "w", "a"])
    def test_request_number_beyond_float_range_is_domain_error(self, capsys, tmp_path, key):
        doc = {"t": 1, "w": [0, 0], "a": [0, 0]}
        doc[key] = 10**400 if key == "t" else [0, 10**400]
        req = tmp_path / "req.json"
        req.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "density", "--request", str(req))
        assert code == EXIT_DOMAIN
        assert out == ""
        assert json.loads(err) == {"error": f"{key} is beyond the float range", "code": EXIT_DOMAIN}

    @pytest.mark.parametrize(
        "argv",
        [("--n", "0", "--t", "1", "--w", "1e200"), ("--t", "1", "--w", "1e200,0", "--a", "0,0")],
        ids=["stationary-form", "transition-form"],
    )
    def test_overflowing_state_is_minus_inf_without_warning(self, capsys, argv):
        code, out, err = run_cli(capsys, "density", *argv)
        assert code == EXIT_OK
        assert err == ""
        assert json.loads(out) == {"log_density": -math.inf, "density": 0.0}


class TestCorrelate:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "correlate", "--n", "1", "--tau-max", "2")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "tau,c00,c01,c10,c11"
        assert len(lines) == 82
        mid = lines[41].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(1.0, rel=1e-14)  # unit variance
        assert float(mid[2]) == pytest.approx(0.5, rel=1e-14)

    def test_autocovariance_column_even(self, capsys):
        _, out, _ = run_cli(capsys, "correlate", "--n", "0", "--tau-max", "1.5")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        first, last = rows[0], rows[-1]
        assert float(first[0]) == -float(last[0])
        assert float(first[1]) == pytest.approx(float(last[1]), rel=1e-13)

    def test_json_expansions(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlate", "--n", "1", "--tau-max", "1", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["order"] == 1
        pair00 = doc["pairs"][0]
        assert pair00["j"] == 0 and pair00["k"] == 0
        assert pair00["terms"] == [{"coeff": 1.0, "rate": "1/2"}]

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("write_chars", [1, 700, cli._WRITE_CHARS])
    def test_json_is_the_whole_document_dump(self, capsys, tmp_path, monkeypatch, n, write_chars):
        # Pairs are encoded and written in batches; the bytes are those of
        # one json.dumps of the whole document, on stdout and in a file.
        monkeypatch.setattr(cli, "_WRITE_CHARS", write_chars)
        pairs = [{"j": j, "k": k, **cross_correlation(j, k).to_json_dict()}
                 for j in range(n + 1) for k in range(n + 1)]
        whole = json.dumps({"order": n, "pairs": pairs}, indent=2)
        argv = ("correlate", "--n", str(n), "--tau-max", "1", "--format", "json")
        assert run_cli(capsys, *argv) == (EXIT_OK, whole + "\n", "")
        assert run_cli(capsys, *argv, "--out", str(tmp_path / "c.json"))[0] == EXIT_OK
        assert (tmp_path / "c.json").read_text(encoding="utf-8") == whole + "\n"

    @pytest.mark.parametrize("tau_max", ["1e-300", "0.37", "4", "40", "700"])
    def test_csv_cells_are_expansion_values(self, capsys, tau_max):
        # Every cell of the table, for every pair j, k <= 24, is the repr of
        # cross_correlation(j, k).at(tau) on its row's tau, bit for bit.
        code, out, err = run_cli(capsys, "correlate", "--n", "24", "--tau-max", tau_max)
        assert code == EXIT_OK and err == ""
        header, *rows = out.splitlines()
        pairs = [(j, k) for j in range(25) for k in range(25)]
        assert header == "tau," + ",".join(f"c{j}{k}" for j, k in pairs)
        assert len(rows) == cli.CORRELATE_GRID_POINTS
        expansions = [cross_correlation(j, k) for j, k in pairs]
        for row in rows:
            tau, *cells = row.split(",")
            assert cells == [repr(e.at(float(tau))) for e in expansions], tau

    def test_csv_is_written_row_by_row(self, capsys, tmp_path, monkeypatch):
        # The table goes to _emit a line at a time: with small write batches
        # the peak is a row and the expansions, far below the whole table.
        monkeypatch.setattr(cli, "_WRITE_CHARS", 1 << 16)
        monkeypatch.setattr(cli, "CORRELATE_GRID_POINTS", 1001)
        target = tmp_path / "c.csv"
        argv = ("correlate", "--n", "8", "--tau-max", "4", "--out", str(target))
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (EXIT_OK, "", "")
        size = target.stat().st_size
        assert len(target.read_text(encoding="utf-8").splitlines()) == 1002
        assert peak < size / 4, (peak, size)

    def test_bad_tau_max(self, capsys):
        code, _, _ = run_cli(capsys, "correlate", "--n", "1", "--tau-max", "0")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("tau_max", ["inf", "1e308"])
    def test_tau_max_with_overflowing_span_is_domain_error(self, capsys, monkeypatch, tau_max):
        monkeypatch.setattr(cli, "cross_correlation", _must_not_be_called)
        monkeypatch.setattr(cli, "_correlation_rows", _must_not_be_called)
        code, out, err = run_cli(capsys, "correlate", "--n", "1", "--tau-max", tau_max)
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN

    def test_largest_tau_max_gives_a_finite_grid(self, capsys):
        code, out, err = run_cli(capsys, "correlate", "--n", "1", "--tau-max", "8e307")
        assert code == EXIT_OK and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        taus = [float(row[0]) for row in rows]
        assert len(taus) == cli.CORRELATE_GRID_POINTS
        assert all(math.isfinite(tau) for tau in taus)
        assert taus[0] == -8e307 and taus[-1] == 8e307
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])


class TestSample:
    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "2", "--times", "0.5,1.0,2.5", "--seed", "7"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "time,w0,w1,w2"
        assert len(lines) == 4
        assert [float(r.split(",")[0]) for r in lines[1:]] == [0.5, 1.0, 2.5]

    def test_uniform_grid_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "0", "--t", "2.0", "--grid", "4", "--seed", "1"
        )
        assert code == EXIT_OK
        times = [float(r.split(",")[0]) for r in out.strip().split("\n")[1:]]
        assert times == [0.5, 1.0, 1.5, 2.0]

    def test_round_trip_exact(self, capsys, tmp_path):
        target = tmp_path / "path.csv"
        code, _, _ = run_cli(
            capsys, "sample", "--n", "3", "--times", "0.1,0.7,3.0", "--seed", "21",
            "--out", str(target),
        )
        assert code == EXIT_OK
        recovered = read_sample_csv(str(target), seed=21)
        assert recovered == sample_w(3, (0.1, 0.7, 3.0), 21)

    def test_write_parse_inverse(self):
        path = sample_w(1, (0.25, 1.0), 5)
        text = write_sample_csv(path)
        assert text.startswith("time,w0,w1\n")

    def test_csv_matches_per_value_formatter(self):
        path = sample_w(2, tuple(10.0 * j / 2000 for j in range(1, 2001)), 1)
        assert write_sample_csv(path) == sample_csv_per_value(path)
        edge = [-0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 0.1, 2.0**53 + 2.0]
        times = np.arange(1.0, len(edge) + 1.0)
        states = np.array([edge, edge[::-1], [-v for v in edge]]).T.copy()
        special = PathSample(order=2, times=times, states=states, seed=0)
        text = write_sample_csv(special)
        assert text == sample_csv_per_value(special)
        assert text.split("\n")[1] == "1.0,-0.0,9007199254740994.0,0.0"
        assert "5e-324" in text and "1e-300" in text and "1e+308" in text

    def test_uniform_grid_is_the_per_point_formula(self, capsys, monkeypatch):
        # The grid is one float64 array, with the bits of (t * j) / grid.
        rng = np.random.default_rng(8)
        seen = []
        monkeypatch.setattr(
            cli, "sample_w", lambda n, times, seed: seen.append(times) or sample_w(n, (1.0,), seed)
        )
        for _ in range(300):
            t = float(rng.uniform(0.5, 10.0) * 10.0 ** rng.integers(-300, 300))
            grid = int(rng.integers(1, 3000))
            assert run_cli(capsys, "sample", "--n", "0", "--t", repr(t), "--grid", str(grid))[0] == 0
            expected = [t * j / grid for j in range(1, grid + 1)]
            assert seen.pop().tolist() == expected, (t, grid)

    def test_overflowing_grid_is_domain_error_without_warning(self, capsys):
        # t * grid overflows to inf, with numpy's overflow warning (an error
        # under this suite's filterwarnings) suppressed; the sampler rejects it.
        code, out, err = run_cli(capsys, "sample", "--n", "2", "--t", "1e308", "--grid", "10")
        assert (code, out) == (EXIT_DOMAIN, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "times must be finite", "code": EXIT_DOMAIN}

    @pytest.mark.parametrize("write_chars", [1, 700, cli._WRITE_CHARS])
    def test_streamed_csv_is_write_sample_csv(self, capsys, tmp_path, monkeypatch, write_chars):
        # Rows are formatted and written in batches, with the bytes of
        # write_sample_csv, on stdout and in a file; 2500 rows span blocks of
        # 1024 rows.
        monkeypatch.setattr(cli, "_WRITE_CHARS", write_chars)
        whole = write_sample_csv(sample_w(3, 10.0 * np.arange(1, 2501) / 2500, 5))
        argv = ("sample", "--n", "3", "--t", "10", "--grid", "2500", "--seed", "5")
        assert run_cli(capsys, *argv) == (EXIT_OK, whole, "")
        target = tmp_path / "s.csv"
        assert run_cli(capsys, *argv, "--out", str(target)) == (EXIT_OK, "", "")
        assert target.read_bytes() == whole.encode("utf-8")

    def test_csv_is_written_a_block_of_rows_at_a_time(self, tmp_path):
        # Formatting holds a block of rows and a write batch, never the text.
        path = sample_w(2, np.arange(1, 20_001) / 2000.0, 1)
        target = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            cli._emit(cli._sample_csv(path), str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert target.read_text(encoding="utf-8") == write_sample_csv(path)
        assert peak < size / 4, (peak, size)

    @pytest.mark.parametrize("write_chars", [1, 100])
    def test_batched_write_keeps_the_final_newline(self, capsys, monkeypatch, write_chars):
        args = ("sample", "--n", "1", "--times", "0.5,1.0", "--seed", "3")
        whole = run_cli(capsys, *args)
        monkeypatch.setattr(cli, "_WRITE_CHARS", write_chars)
        assert run_cli(capsys, *args) == whole

    def test_byte_determinism(self, capsys):
        args = ("sample", "--n", "1", "--times", "1.0,2.0", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("argv, message", [
        (("--n", "171", "--times", "1"), "order must be at most 170"),
        (("--n", "3", "--times", "1e300,1e301"), "beyond the float range"),
    ])
    def test_input_beyond_the_float_range_is_domain_error(self, capsys, argv, message):
        # A numpy warning would be an error here (filterwarnings in pyproject.toml).
        code, out, err = run_cli(capsys, "sample", *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN
        assert message in json.loads(line)["error"]

    def test_largest_order_prints_finite_values(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "170", "--times", "1,2")
        assert (code, err) == (EXIT_OK, "")
        values = [float(v) for line in out.splitlines()[1:] for v in line.split(",")]
        assert len(values) == 2 * (1 + 171) and all(map(math.isfinite, values))

    def test_missing_grid_spec_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--n", "1")
        assert code == EXIT_DOMAIN

    def test_negative_seed_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "1", "--times", "1", "--seed", "-1")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "non-negative" in json.loads(err)["error"]

    def test_bad_times_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--n", "1", "--times", "2.0,1.0")
        assert code == EXIT_DOMAIN

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,w0,w9\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError):
            read_sample_csv(str(bad), seed=0)


_SAMPLE_SPANS = st.floats(min_value=1e-300, max_value=1e300)
_SAMPLE_TIME_FLAGS = st.one_of(
    st.lists(_SAMPLE_SPANS, min_size=1, max_size=6, unique=True).map(
        lambda times: ("--times", ",".join(map(repr, sorted(times))))),
    st.tuples(_SAMPLE_SPANS, st.integers(min_value=1, max_value=40)).map(
        lambda spec: ("--t", repr(spec[0]), "--grid", str(spec[1]))),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(min_value=0, max_value=200), time_flags=_SAMPLE_TIME_FLAGS)
def test_sample_flags_give_finite_values_or_one_error_line(capsys, n, time_flags):
    # Orders past the float factorials and times whose states overflow are
    # both drawn: every run prints finite values, or exits 3 with one JSON
    # line, and never warns.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "sample", "--n", str(n), *time_flags)
    assert [str(w.message) for w in caught] == []
    if code == EXIT_OK:
        assert err == ""
        rows = out.splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    else:
        assert (code, out) == (EXIT_DOMAIN, "")
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN


# sha256 of stdout, pinned when the exact layer moved from Fraction sums to
# integer arithmetic; any byte that moves in these outputs is a regression.
GOLDEN_STDOUT_SHA256 = {
    ("matrices", "--n", "40", "--which", "rho"):
        "e4ea1e54257463dd9c8229032ed819f1e1e833542a7ff1f8fa22fe3630f1671a",
    ("correlate", "--n", "16", "--tau-max", "4"):
        "d1039c6af92fa81db49c501a403cdc15e6f41f6e5b9c4db8cf1c5ad81b909ba5",
    ("correlate", "--n", "16", "--tau-max", "4", "--format", "json"):
        "08b9ae01f078a852d88139c682d332f393dddf1e1826f1571c50353499ec52be",
    ("verify", "--suite", "all", "--paths", "2000", "--seed", "1"):
        "f2f04cf26c185c48556aa20b21c49c3fb9ba4f305866dc079bbbd66b2cb0d446",
    ("sample", "--n", "2", "--t", "10", "--grid", "2000", "--seed", "1"):
        "a6ab885a5bf5100e327bdffa81454d7fbe1d02cf6512b1545fb081a78e78eed6",
    # Every matrix family at one size, pinned before rho_matrix moved from
    # the binomial sum to the product form.
    ("matrices", "--n", "12", "--which", "gamma"):
        "bc9c69788c5d8b7de047025d1da355f43fc32f45fef281b0a6b8fbee94b86310",
    ("matrices", "--n", "12", "--which", "b"):
        "b6a8f5b0d074e1d765c54a823f3d745fcb7a926d55092b7d04648616eb35a880",
    ("matrices", "--n", "12", "--which", "a"):
        "e6942afd4a8626fa4190ecf30dea344f30ff4e41a3d347901be59ea29316d205",
    ("matrices", "--n", "12", "--which", "a-inverse"):
        "b65f8150bede9636d98f9f9bb66efd8b2391f92962af698a591fa06078cf7524",
    ("matrices", "--n", "12", "--which", "lambda"):
        "33a8f2822b21c321ac45e4a295183f9c77d9b17bdc0eb8e2bc32f8893aea49e1",
    ("matrices", "--n", "12", "--which", "rho"):
        "100a507ba1a7103206eb02ade9bdb2e4e53745c82f04698ed729a49493980df4",
    ("matrices", "--n", "12", "--which", "rho-inverse"):
        "979f1e9e540c1d9802eb14cdb527d52619513ca41455b1df8fc298bf3dfe9956",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout_digest(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


class TestVerify:
    def test_symmetry_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "symmetry", "--seed", "9")
        assert code == EXIT_OK
        results = json.loads(out)
        assert isinstance(results, list) and len(results) == 1
        assert set(results[0]) == {"test", "statistic", "bound", "pass"}
        assert results[0]["pass"] is True

    def test_small_laplace_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "laplace",
            "--paths", "4000", "--grid", "128", "--seed", "2",
        )
        assert code == EXIT_OK
        assert all(r["pass"] for r in json.loads(out))

    def test_single_theta_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "laplace", "--theta", "1.5",
            "--paths", "4000", "--grid", "128", "--seed", "2",
        )
        assert code == EXIT_OK
        assert all(r["pass"] for r in json.loads(out))

    def test_theta_where_cosh_squared_overflows(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "laplace", "--paths", "100", "--grid", "100",
            "--theta", "3e5",
        )
        assert code == EXIT_OK and err == ""
        assert json.loads(out)[0]["pass"] is True

    def test_infinite_theta_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "laplace", "--paths", "100", "--grid", "100",
            "--theta", "inf",
        )
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == EXIT_DOMAIN

    # The check comes before any suite runs, so no moment suite reaches its
    # standard error of one sample (NaN and two numpy warnings).
    @pytest.mark.parametrize("paths", ["1", "0"])
    @pytest.mark.parametrize("suite", ("all",) + verification.SUITE_ORDER)
    def test_fewer_than_two_paths_is_domain_error(self, capsys, recwarn, suite, paths):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--paths", paths)
        assert code == EXIT_DOMAIN and out == "" and not recwarn.list
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "n_paths must be at least 2", "code": EXIT_DOMAIN}

    # The suites offset the master seed by 0-5, so a check inside a suite
    # would see a non-negative seed.
    @pytest.mark.parametrize("suite", ("all",) + verification.SUITE_ORDER)
    def test_negative_seed_is_domain_error(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--paths", "10", "--seed", "-1"
        )
        assert code == EXIT_DOMAIN and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "seed: expected non-negative integer", "code": EXIT_DOMAIN
        }

    def test_byte_determinism(self, capsys):
        args = ("verify", "--suite", "symmetry", "--seed", "33")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()


class TestPlumbing:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IBROWNIAN_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "matrices", "--n", "0", "--which", "lambda", "--out", "m.json")
        assert code == EXIT_OK
        assert json.loads((tmp_path / "m.json").read_text())["entries"] == [["1"]]

    def test_explicit_dir_wins_over_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IBROWNIAN_OUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        code, _, _ = run_cli(capsys, "matrices", "--n", "0", "--which", "a", "--out", str(target))
        assert code == EXIT_OK and target.exists()

    def test_module_entry_point(self):
        proc = run_module("matrices", "--n", "1", "--which", "a")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["entries"] == [["1", "0"], ["-1", "2"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "2", "--t", "3", "--grid", "500", "--seed", "4"),
            ("verify", "--suite", "all", "--paths", "2000", "--seed", "6"),
            ("matrices", "--n", "3", "--which", "rho"),
            ("density", "--t", "1", "--w", "0.5,0.25", "--a", "0.1,0.2"),
            ("correlate", "--n", "2", "--tau-max", "3"),
            ("correlate", "--n", "2", "--tau-max", "3", "--format", "json"),
        ],
        ids=["sample", "verify", "matrices", "density", "correlate-csv", "correlate-json"],
    )
    def test_out_file_holds_what_stdout_prints(self, tmp_path, argv):
        # main() freezes the collector; the exit must still flush every byte,
        # to a pipe (block-buffered stdout) and to a file.
        printed = run_module(*argv)
        written = run_module(*argv, "--out", str(tmp_path / "out"))
        assert printed.returncode == written.returncode
        assert printed.stderr == written.stderr == b"" and written.stdout == b""
        assert printed.stdout == (tmp_path / "out").read_bytes()

    def test_domain_error_is_one_json_line_on_stderr(self):
        proc = run_module("density", "--t", "-1", "--w", "0")
        assert proc.returncode == EXIT_DOMAIN and proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == EXIT_DOMAIN

    def test_collector_is_frozen_once_per_process(self, capsys):
        # Objects made after the first main() stay collectable across later calls.
        run_cli(capsys, "matrices", "--n", "1", "--which", "a")
        frozen = gc.get_freeze_count()
        garbage = [[] for _ in range(1000)]
        assert run_cli(capsys, "matrices", "--n", "1", "--which", "a")[0] == EXIT_OK
        assert gc.get_freeze_count() == frozen
        del garbage

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
