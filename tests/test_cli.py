import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinaxes
from spinaxes import cli
from spinaxes.errors import DecompositionError, DomainError, StateFileError
from spinaxes.states import pure_two_spinor
from spinaxes.tensors import DensityMatrix, from_tensor, to_tensor


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestImport:
    def test_import_leaves_numpy_random_unloaded(self):
        # every CLI process pays for what `import spinaxes` loads; numpy.random is only needed by the
        # random-state helpers, which import nothing at definition time
        code = ("import sys, numpy; bare = 'numpy.random' in sys.modules; import spinaxes; "
                "print(bare, 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinaxes.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        bare, loaded = out.split()
        if bare == "True":
            pytest.skip("this numpy loads numpy.random on import")
        assert loaded == "False"


class TestSharedParser:
    """main parses every call with one parser per process; nothing may carry over from one call to the next."""

    def test_second_main_call_builds_no_parser(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argparse.ArgumentParser(prog="probe")
        assert built == ["probe"]
        argv = ["make-state", "pure", "--theta", "0.5"]
        first = run(capsys, argv)
        del built[:]
        assert run(capsys, argv) == first
        assert built == []

    def test_omitted_p2_falls_back_after_a_call_that_set_it(self, capsys):
        code, out, _ = run(capsys, ["make-state", "mixed", "--p", "0.6", "--p2", "0.3", "--theta", "40deg"])
        assert code == 0 and "p1 = 0.6, p2 = 0.3," in out
        code, out, _ = run(capsys, ["make-state", "mixed", "--p", "0.6", "--theta", "40deg"])
        assert code == 0 and "p1 = 0.6, p2 = 0.6," in out

    def test_plain_selfcheck_passes_after_an_injected_fault(self, capsys):
        code, out, _ = run(capsys, ["selfcheck", "--trials", "0", "--inject-fault", "tau-norm"])
        assert code == 1 and "selfcheck: FAIL" in out
        code, out, _ = run(capsys, ["selfcheck"])
        assert code == 0 and "rotation-invariance" in out and out.endswith("selfcheck: PASS\n")

    def test_sweep_after_usage_errors_and_help_matches_a_fresh_process(self, tmp_path, capsys):
        grid = ["--p", "0:1:3", "--theta", "0deg:180deg:4"]
        fresh = tmp_path / "fresh.csv"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinaxes.__file__)))
        subprocess.run([sys.executable, "-m", "spinaxes.cli", "sweep", *grid, "--out", str(fresh)],
                       env=env, capture_output=True, check=True)
        out = tmp_path / "grid.csv"
        for argv, status in ((["sweep", "--p", "0:1:3", "--out", str(out)], 2), (["sweep", *grid, "--bogus"], 2),
                             (["make-state", "neither", "--theta", "0"], 2), (["--help"], 0), (["sweep", "--help"], 0)):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == status
            capsys.readouterr()
            assert run(capsys, ["sweep", *grid, "--out", str(out)]) == (0, f"wrote 12 rows to {out}\n", "")
            assert out.read_bytes() == fresh.read_bytes()
            out.unlink()


class TestParsing:
    def test_parse_angle(self):
        assert cli.parse_angle("1.5") == 1.5
        assert cli.parse_angle("90deg") == pytest.approx(math.pi / 2)
        assert cli.parse_angle(" 45DEG ") == pytest.approx(math.pi / 4)

    def test_parse_range(self):
        values = cli.parse_range("0:1:5")
        assert np.allclose(values, [0, 0.25, 0.5, 0.75, 1.0])
        assert cli.parse_range("0deg:180deg:3")[-1] == pytest.approx(math.pi)
        assert list(cli.parse_range("2:9:1")) == [2.0]
        with pytest.raises(DomainError):
            cli.parse_range("0:1")
        with pytest.raises(DomainError):
            cli.parse_range("0:1:0")


class TestStateFiles:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "state.txt"
        rho = pure_two_spinor(1.0)
        with open(path, "w") as handle:
            cli.write_state_file(handle, rho, {"label": "demo"})
        back, metadata = cli.read_state_file(str(path))
        assert metadata["label"] == "demo"
        assert back.j == rho.j
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_json_state_file(self, tmp_path):
        path = tmp_path / "state.json"
        rho = pure_two_spinor(2.0)
        payload = {
            "twice_j": 2,
            "label": "json demo",
            "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix],
        }
        path.write_text(json.dumps(payload))
        back, metadata = cli.read_state_file(str(path))
        assert metadata["label"] == "json demo"
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("j 2\n1 0 0 0 0 0\n0 0 0 0\n0 0 0 0 0 0\n")
        with pytest.raises(StateFileError) as err:
            cli.read_state_file(str(path))
        assert err.value.line == 3
        assert "expected 6 values" in str(err.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 0 0\n")
        with pytest.raises(StateFileError):
            cli.read_state_file(str(path))

    def test_invalid_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("j 2\n" + "\n".join("1 0 0 0 0 0" for _ in range(3)) + "\n")
        with pytest.raises(StateFileError):  # trace is 3, not 1
            cli.read_state_file(str(path))

    def test_invalid_json_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"twice_j": 2, "matrix": [[[float(r == c), 0.0] for c in range(3)] for r in range(3)]}))
        with pytest.raises(StateFileError, match="trace must be 1"):  # trace is 3, not 1
            cli.read_state_file(str(path))


class TestAnalyze:
    def test_pure_state_report(self, tmp_path, capsys):
        path = tmp_path / "pure.state"
        code, out, err = run(capsys, ["make-state", "pure", "--theta", "60deg", "--out", str(path)])
        assert code == 0
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert "0.979795897113" in out  # I1 = 2 sqrt(6)/5
        assert "1.38564064606" in out   # I2 = 4 sqrt(3)/5
        assert "count 5" in out

    def test_maximally_mixed_reports_empty(self, tmp_path, capsys):
        path = tmp_path / "mixed.state"
        with open(path, "w") as handle:
            cli.write_state_file(handle, DensityMatrix.maximally_mixed(1))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert "no axes; invariant set empty" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "pure.state"
        run(capsys, ["make-state", "pure", "--theta", "0.5", "--out", str(path)])
        code, out, err = run(capsys, ["analyze", str(path), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["twice_j"] == 2
        assert payload["invariants"]["count"] == 5
        assert "1" in payload["ranks"] and "2" in payload["ranks"]

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.state"
        path.write_text("j 2\n1 0 0 0 0 0\n0 0 0 0\n0 0 0 0 0 0\n")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("text, message", [
        ("3", "top level must be a JSON object"),
        ('{"twice_j": "abc", "matrix": []}', "twice_j must be an integer"),
        ('{"twice_j": -3, "matrix": []}', "twice_j must be non-negative"),
        ('{"j": "abc", "matrix": []}', "cannot parse 'abc' as a half-integer"),
        ('{"j": "x/2", "matrix": []}', "cannot parse 'x/2' as a half-integer"),
        ('{"j": NaN, "matrix": []}', "nan is not an integer or half-integer"),
        ('{"j": 1e400, "matrix": []}', "inf is not an integer or half-integer"),
    ])
    def test_malformed_json_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert message in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_finite_entry_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.state"
        path.write_text("j 2\n1 0 0 0 0 0\n0 0 nan 0 0 0\n0 0 0 0 0 0\n")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert err == f"error: {path}: matrix has non-finite entries\n"

    def test_missing_file_exit_code(self, capsys):
        code, out, err = run(capsys, ["analyze", "/no/such/file.state"])
        assert code == 2

    def test_report_unchanged_by_tensor_round_trip(self, tmp_path, capsys):
        rho = pure_two_spinor(1.3)
        rebuilt = from_tensor(to_tensor(rho))
        path_a, path_b = tmp_path / "a.state", tmp_path / "b.state"
        with open(path_a, "w") as handle:
            cli.write_state_file(handle, rho)
        with open(path_b, "w") as handle:
            cli.write_state_file(handle, rebuilt)
        _, out_a, _ = run(capsys, ["analyze", str(path_a)])
        _, out_b, _ = run(capsys, ["analyze", str(path_b)])
        # identical up to fp noise in printed values (e.g. a 1e-17 eigenvalue)
        lines_a, lines_b = out_a.splitlines(), out_b.splitlines()
        assert len(lines_a) == len(lines_b)
        for la, lb in zip(lines_a, lines_b):
            if la == lb:
                continue
            words_a, words_b = la.split(), lb.split()
            assert len(words_a) == len(words_b)
            for wa, wb in zip(words_a, words_b):
                if wa != wb:
                    assert float(wa.rstrip(",)")) == pytest.approx(float(wb.rstrip(",)")), abs=1e-12)

    def test_numeric_inconsistency_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "pure.state"
        run(capsys, ["make-state", "pure", "--theta", "0.4", "--out", str(path)])

        def boom(*args, **kwargs):
            raise DecompositionError("synthetic failure")

        monkeypatch.setattr(cli, "decompose", boom)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 3
        assert "synthetic failure" in err


class TestMakeState:
    def test_stdout_output(self, capsys):
        code, out, err = run(capsys, ["make-state", "mixed", "--p", "0.5", "--theta", "0"])
        assert code == 0
        assert out.startswith("#")
        assert "j 2" in out

    def test_unparseable_angle_exit_code(self, capsys):
        code, out, err = run(capsys, ["make-state", "pure", "--theta", "abc"])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_mixed_equals_closed_form(self, tmp_path, capsys):
        path = tmp_path / "m.state"
        run(capsys, ["make-state", "mixed", "--p", "0.5", "--theta", "0", "--out", str(path)])
        rho, _ = cli.read_state_file(str(path))
        assert np.max(np.abs(rho.matrix - np.diag([2.25, 0.75, 0.25]) / 3.25)) < 1e-14


class TestSweep:
    def test_small_sweep_content_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["sweep", "--p", "0:1:3", "--theta", f"0:{math.pi}:5", "--out"]
        assert run(capsys, argv + [str(out_a)])[0] == 0
        assert run(capsys, argv + [str(out_b)])[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_COLUMNS
        assert len(lines) == 1 + 3 * 5
        rows = [line.split(",") for line in lines[1:]]
        header = cli.CSV_COLUMNS.split(",")
        first = dict(zip(header, rows[0]))
        assert float(first["I1"]) == 0.0 and first["separable"] == "true"  # p = 0
        by_key = {(row[0], row[1]): dict(zip(header, row)) for row in rows}
        aligned = by_key[("1", "0")]
        assert float(aligned["I1"]) == pytest.approx(math.sqrt(1.5), abs=1e-10)
        assert aligned["separable"] == "true"
        bell = by_key[("1", cli._fmt(math.pi / 2))]
        assert bell["separable"] == "false"
        assert float(bell["ppt_min_eig"]) == pytest.approx(-0.5, abs=1e-10)

    def test_rows_are_p_major(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        run(capsys, ["sweep", "--p", "0:1:2", "--theta", "0:1:2", "--out", str(out)])
        rows = [line.split(",")[:2] for line in out.read_text().strip().split("\n")[1:]]
        assert rows == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.csv"
        code, out, err = run(capsys, ["sweep", "--p", "0:1:2", "--theta", "0:1:2", "--out", str(target)])
        assert code == 4
        assert "cannot write" in err

    def test_bad_range_exit_code(self, capsys):
        code, out, err = run(capsys, ["sweep", "--p", "zero:1:2", "--theta", "0:1:2", "--out", "x.csv"])
        assert code == 2
        for steps in ("1.5", "abc"):
            code, out, err = run(capsys, ["sweep", "--p", f"0:1:{steps}", "--theta", "0:1:2", "--out", "x.csv"])
            assert (code, err) == (2, f"error: range '0:1:{steps}' needs an integer step count\n")

    def test_first_out_of_range_cell_is_named(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        for p_range, theta_range, message in (
            ("0:2:3", "0:1:2", "p1=2.0 outside [0, 1]"),
            ("0:1:2", "0:4:2", "two_theta=8.0 outside [0, 2 pi]"),  # cell (0, 4) comes before cell (1, 0)
            ("0:2:3", "0:4:2", "two_theta=8.0 outside [0, 2 pi]"),
            ("2:0:3", "0:4:2", "p1=2.0 outside [0, 1]"),
            ("0:nan:2", "0:1:2", "p1=nan outside [0, 1]"),
            ("0:1:2", "nan:1:2", "two_theta=nan outside [0, 2 pi]"),
            ("-1e-300:0:2", "0:1:2", "p1=-1e-300 outside [0, 1]"),
        ):
            code, _, err = run(capsys, ["sweep", f"--p={p_range}", f"--theta={theta_range}", "--out", str(out)])
            assert (code, err) == (2, f"error: {message}\n")
            assert not out.exists()

    def test_rows_are_rendered_as_fmt_renders_each_value(self):
        rng = np.random.default_rng(47)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1e-300, -1e-300,
                    1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1 / 3, 123456789012.5, 1e16]
        values = specials + (rng.normal(size=2000) * 10.0 ** rng.integers(-20, 20, size=2000)).tolist()
        rows = [values[i:i + 11] for i in range(0, len(values) - 10)]
        for row, flag in zip(rows, ["true", "false"] * len(rows)):
            assert cli._CSV_ROW % (*row, flag) == ",".join([cli._fmt(v) for v in row] + [flag])

    def test_failing_cell_is_named(self, tmp_path, capsys, monkeypatch):
        real = cli._decompose_stack

        def fail_third_cell(stack, tj):
            real(stack, tj)
            exc = DecompositionError("synthetic failure")
            exc.index = 2
            raise exc

        monkeypatch.setattr(cli, "_decompose_stack", fail_third_cell)
        out = tmp_path / "grid.csv"
        code, _, err = run(capsys, ["sweep", "--p", "0:1:2", "--theta", "0:0.5:2", "--out", str(out)])
        assert code == 3
        assert err == "error: decomposition failed during sweep at p=1, theta=0: synthetic failure\n"
        assert not out.exists()

    def test_invalid_cell_matrix_is_named(self, tmp_path, capsys, monkeypatch):
        real = cli._channel_stack

        def skew_second_cell(p1, p2, two_theta):
            mats = real(p1, p2, two_theta).copy()
            mats[1, 0, 1] += 1e-3
            return mats

        monkeypatch.setattr(cli, "_channel_stack", skew_second_cell)
        out = tmp_path / "grid.csv"
        code, _, err = run(capsys, ["sweep", "--p", "0:1:2", "--theta", "0:0.5:2", "--out", str(out)])
        assert code == 3
        assert err == ("error: decomposition failed during sweep at p=0, theta=0.5: "
                       "matrix is not Hermitian (max deviation 1.000e-03)\n")
        assert not out.exists()


class TestSelfcheck:
    def test_passes_with_seed(self, capsys):
        code, out, err = run(capsys, ["selfcheck", "--seed", "42", "--trials", "50"])
        assert code == 0
        assert "selfcheck: PASS" in out
        assert "rotation-invariance" in out

    def test_zero_trials_warns(self, capsys):
        code, out, err = run(capsys, ["selfcheck", "--trials", "0"])
        assert code == 0
        assert "vacuous" in out
        assert "rotation-invariance" not in out

    def test_negative_trials_exit_2_with_one_error_line(self, capsys):
        code, out, err = run(capsys, ["selfcheck", "--trials", "-3"])
        assert (code, out, err) == (2, "", "error: trials=-3 must be non-negative\n")

    def test_injected_fault_fails_named_suite(self, capsys):
        code, out, err = run(capsys, ["selfcheck", "--trials", "0", "--inject-fault", "tau-norm"])
        assert code == 1
        assert "tau-orthogonality" in out
        assert "FAIL" in out
