"""Tests for the command-line interface and spec-file round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbc
from qbc.cli import main
from qbc.errors import NotOrthogonal
from qbc.specfile import (
    SpecFileError,
    dumps_deterministic,
    format_float,
    parse_protocol_spec,
    protocol_to_spec,
    write_protocol_spec,
)


def run_cli(args):
    return main(list(args))


def make_spec_file(tmp_path, family, param, name="protocol.json"):
    path = tmp_path / name
    assert run_cli(["make-spec", "--family", family, "--param", str(param), "--out", str(path)]) == 0
    return path


class TestSpecFile:
    def test_round_trip_bit_exact(self, tmp_path):
        for p in [
            qbc.family_protocol(qbc.Commuting3D(0.3)),
            qbc.family_protocol(qbc.PurePair(np.pi / 5)),
            qbc.random_protocol(3, 4, 5),
        ]:
            path = tmp_path / "spec.json"
            write_protocol_spec(p, path)
            reparsed = parse_protocol_spec(path)
            assert np.array_equal(reparsed.chi0.amplitudes, p.chi0.amplitudes)
            assert np.array_equal(reparsed.chi1.amplitudes, p.chi1.amplitudes)
            original = qbc.security_report(p)
            again = qbc.security_report(reparsed)
            assert original == again  # bit-exact, not approx

    def test_write_is_deterministic(self, tmp_path):
        p = qbc.random_protocol(2, 3, 8)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_protocol_spec(p, first)
        write_protocol_spec(p, second)
        assert first.read_bytes() == second.read_bytes()

    def test_format_float_round_trips(self):
        rng = np.random.default_rng(0)
        for value in rng.standard_normal(200):
            assert float(format_float(value)) == value

    def test_dumps_deterministic_shapes(self):
        text = dumps_deterministic({"a": 1, "b": [0.5, -1.0], "c": "x", "d": None, "e": True})
        assert json.loads(text) == {"a": 1, "b": [0.5, -1.0], "c": "x", "d": None, "e": True}

    def test_parse_rejects_bad_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(SpecFileError):
            parse_protocol_spec(path)
        with pytest.raises(SpecFileError):
            parse_protocol_spec({"schemaVersion": 2})
        with pytest.raises(SpecFileError):
            parse_protocol_spec({"schemaVersion": 1, "dimProof": 2, "dimToken": 2, "chi0": [], "chi1": []})

    def test_parse_names_violated_invariant(self):
        doc = protocol_to_spec(qbc.family_protocol(qbc.Commuting3D(0.3)))
        doc["chi1"] = doc["chi0"]
        with pytest.raises(NotOrthogonal):
            parse_protocol_spec(doc)


class TestAnalyze:
    def test_commuting_family_report(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        assert run_cli(["analyze", str(spec)]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["gMax"]) == pytest.approx(0.15, abs=1e-9)
        assert float(values["cMax"]) == pytest.approx(0.35, abs=1e-9)
        assert float(values["perBitSuccess"]) == pytest.approx(0.85, abs=1e-9)

    def test_pure_pair_report(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "pure-pair", np.pi / 3)
        assert run_cli(["analyze", str(spec), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cMax"] == pytest.approx(np.cos(np.pi / 3) / 2, abs=1e-12)  # 0.25
        assert doc["gMax"] == pytest.approx(np.sin(np.pi / 3) / 2, abs=1e-12)  # sqrt(3)/4

    def test_non_orthogonal_spec_exits_2(self, tmp_path, capsys):
        doc = protocol_to_spec(qbc.family_protocol(qbc.Commuting3D(0.3)))
        doc["chi1"] = doc["chi0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["analyze", str(path)]) == 2
        assert "NotOrthogonal" in capsys.readouterr().err

    def test_unreadable_spec_exits_2(self, tmp_path, capsys):
        assert run_cli(["analyze", str(tmp_path / "missing.json")]) == 2
        assert "SpecFileError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mistype",
        [
            "dim_bool",
            "amplitude_bools",
            "amplitude_strings",
            "amplitude_huge_int",
            "version_bool",
            "version_float",
        ],
    )
    def test_mistyped_spec_exits_2(self, tmp_path, capsys, mistype):
        doc = protocol_to_spec(qbc.family_protocol(qbc.Commuting3D(0.3)))
        if mistype == "dim_bool":
            doc["dimProof"], doc["dimToken"] = True, doc["dimProof"] * doc["dimToken"]
        elif mistype == "amplitude_bools":  # every imaginary part is 0, so False keeps the value
            doc["chi0"] = [[re, False] for re, _ in doc["chi0"]]
        elif mistype == "amplitude_strings":
            doc["chi0"] = [[format_float(re), im] for re, im in doc["chi0"]]
        elif mistype == "amplitude_huge_int":  # an integer literal no float can hold
            doc["chi0"][0] = [10**400, 0]
        else:
            doc["schemaVersion"] = True if mistype == "version_bool" else 1.0
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["analyze", str(path)]) == 2
        assert "SpecFileError" in capsys.readouterr().err

    def test_non_utf8_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schemaVersion": 1, "note": "\xe9"}')
        assert run_cli(["analyze", str(path)]) == 2
        assert "SpecFileError" in capsys.readouterr().err

    def test_nan_amplitude_exits_2(self, tmp_path, capsys):
        doc = protocol_to_spec(qbc.family_protocol(qbc.Commuting3D(0.3)))
        doc["chi0"][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes the literal NaN
        assert run_cli(["analyze", str(path)]) == 2
        assert "NotNormalized" in capsys.readouterr().err

    def test_overflowing_amplitude_prints_one_error_line(self, tmp_path):
        """An amplitude whose square overflows is refused by the norm rule
        alone: stderr carries the NotNormalized line and no warning."""
        doc = protocol_to_spec(qbc.family_protocol(qbc.Commuting3D(0.3)))
        doc["chi0"][0] = [1e200, 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(Path(qbc.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "qbc.cli", "analyze", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NotNormalized: ")


class TestSweep:
    def test_csv_points_on_line(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--family", "commuting3d", "--points", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,gMax,cMax,curveI,curveII,curveIII,curveIV"
        assert len(lines) == 102
        for line in lines[1:]:
            param, g, c, c1, c2, c3, c4 = map(float, line.split(","))
            assert g + c == pytest.approx(0.5, abs=1e-9)
            assert c2 == pytest.approx(qbc.curve_value(qbc.Curve.II, g), abs=1e-15)
            assert c4 == pytest.approx(qbc.curve_value(qbc.Curve.IV, g), abs=1e-15)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli(["sweep", "--family", "pure-pair", "--points", "5", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schemaVersion"] == 1 and len(doc["points"]) == 5

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli(["sweep", "--family", "qubit-pure-mixed", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_cheating_alice_on_fair_protocol(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.5)
        assert run_cli([
            "simulate", str(spec), "--alice", "cheat", "--bob", "honest",
            "--runs", "100000", "--seed", "11", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        sigma = np.sqrt(0.75 * 0.25 / doc["runs"])
        assert abs(doc["pUnveil"] - 0.75) <= 3 * sigma
        assert doc["pUnveilPredicted"] == pytest.approx(0.75, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli([
                "simulate", str(spec), "--alice", "honest0", "--bob", "helstrom",
                "--runs", "20000", "--seed", "5", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("runs", ["0", "-5"])
    def test_non_positive_runs_is_usage_error(self, tmp_path, capsys, runs):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        assert run_cli(["simulate", str(spec), "--runs", runs]) == 2
        assert f"--runs: must be >= 1, got {int(runs)}" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        assert run_cli(["simulate", str(spec), "--seed", "-1"]) == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_csv_shape(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "pure-pair", 1.0)
        assert run_cli(["simulate", str(spec), "--runs", "100", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("alice,bob,runs,seed,pEstimate")
        assert len(lines) == 2


class TestCointoss:
    def test_default_fair_protocol(self, capsys):
        assert run_cli(["cointoss", "--cheater", "alice", "--runs", "50000", "--seed", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == pytest.approx(0.25, abs=1e-9)
        assert doc["beta"] == pytest.approx(0.25, abs=1e-9)
        sigma = np.sqrt(0.75 * 0.25 / doc["runs"])
        assert abs(doc["aliceWinRate"] - 0.75) <= 3 * sigma
        assert doc["aliceCaughtRate"] > 0.0

    def test_family_flag(self, capsys):
        assert run_cli(["cointoss", "--family", "pure-pair", "--param", "1.5707963267948966",
                        "--cheater", "bob", "--runs", "1000", "--seed", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta"] == pytest.approx(0.5, abs=1e-9)
        assert doc["aliceWinRate"] == pytest.approx(0.0, abs=1e-12)

    def test_spec_file_base(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.5)
        assert run_cli(["cointoss", str(spec), "--cheater", "none", "--runs", "1000", "--seed", "4",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aliceCaughtRate"] == 0.0

    def test_family_requires_param(self, capsys):
        assert run_cli(["cointoss", "--family", "pure-pair"]) == 2

    @pytest.mark.parametrize("runs", ["0", "-5"])
    def test_non_positive_runs_is_usage_error(self, capsys, runs):
        assert run_cli(["cointoss", "--runs", runs]) == 2
        assert f"--runs: must be >= 1, got {int(runs)}" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli(["cointoss", "--seed", "-1"]) == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_param_requires_family(self, capsys):
        assert run_cli(["cointoss", "--param", "0.3"]) == 2
        assert "ParamOutOfRange: --param requires --family" in capsys.readouterr().err

    def test_spec_and_family_conflict(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.5)
        assert run_cli(["cointoss", str(spec), "--family", "pure-pair", "--param", "0.4"]) == 2
        assert "ParamOutOfRange" in capsys.readouterr().err


class TestCheck:
    def test_valid_spec_passes(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        assert run_cli(["check", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out and "OK" in out

    def test_inequalities_use_the_reported_fidelity(self, tmp_path, capsys):
        # F = 1e-7 here, which the square-root route floors to 0.
        spec = make_spec_file(tmp_path, "qubit-pure-mixed", 1e-14)
        report = qbc.security_report(parse_protocol_spec(spec))
        assert run_cli(["check", str(spec)]) == 0
        lines = capsys.readouterr().out.splitlines()
        slack = report.trace_distance - (1.0 - report.fidelity)
        assert f"OK fidelity_lower_bound slack={format_float(slack)}" in lines
        assert f"OK point gMax={format_float(report.g_max)} cMax={format_float(report.c_max)} above_curve_I" in lines
        assert report.fidelity == pytest.approx(1e-7, rel=1e-9)

    def test_impossible_point_fails(self, capsys):
        assert run_cli(["check", "--point", "0.1", "0.1"]) == 1
        assert "below_curve_I" in capsys.readouterr().out

    def test_valid_point_passes(self, capsys):
        assert run_cli(["check", "--point", "0.25", "0.25"]) == 0

    def test_out_of_range_point_is_usage_error(self, capsys):
        assert run_cli(["check", "--point", "0.7", "0.1"]) == 2

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(["check"]) == 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(["sweep", "--family", "commuting3d", "--bogus"]) == 2

    def test_numeric_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        import qbc.cli as cli_module

        def boom(_):
            raise np.linalg.LinAlgError("eigensolver failed to converge")

        monkeypatch.setattr(cli_module, "security_report", boom)
        assert run_cli(["analyze", str(spec)]) == 3
        assert "LinAlgError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, command):
        out = str(tmp_path / "missing-dir" / "out.txt")
        if command == "analyze":
            args = ["analyze", str(make_spec_file(tmp_path, "commuting3d", 0.3)), "--out", out]
        else:
            args = ["sweep", "--family", "pure-pair", "--points", "3", "--out", out]
        assert run_cli(args) == 2
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_oversized_spec_rejected(self, tmp_path, capsys):
        doc = {
            "schemaVersion": 1,
            "dimProof": 16,
            "dimToken": 16,
            "chi0": [[0.0, 0.0]] * 256,
            "chi1": [[0.0, 0.0]] * 256,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["analyze", str(path)]) == 2

    def test_make_spec_stdout(self, capsys):
        assert run_cli(["make-spec", "--family", "qubit-pure-mixed", "--param", "0.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimProof"] == 3 and doc["dimToken"] == 2
