"""CLI surface: subcommands, formats, exit codes, determinism, round trips."""

import json
import math
import os
import subprocess
import sys

import pytest

import ibrownian
from ibrownian.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_sample_csv,
    write_sample_csv,
)
from ibrownian.sampling import sample_w


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_tau_max(self, capsys):
        code, _, _ = run_cli(capsys, "correlate", "--n", "1", "--tau-max", "0")
        assert code == EXIT_DOMAIN


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

    def test_byte_determinism(self, capsys):
        args = ("sample", "--n", "1", "--times", "1.0,2.0", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()

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
        # The child must import the package under test, also when pytest
        # put src/ on sys.path itself and PYTHONPATH is unset.
        src = os.path.dirname(os.path.dirname(ibrownian.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ibrownian", "matrices", "--n", "1", "--which", "a"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["entries"] == [["1", "0"], ["-1", "2"]]

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
