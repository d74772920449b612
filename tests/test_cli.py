"""Tests for the command-line interface and spec-file round trips."""

from __future__ import annotations

import hashlib
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


def _qbc_error_classes(cls=qbc.errors.QbcError):
    """QbcError and every subclass of it, found recursively."""
    return [cls] + [sub for child in cls.__subclasses__() for sub in _qbc_error_classes(child)]


def run_cli(args):
    return main(list(args))


def assert_refused(capsys, message):
    """The library refused an input: one ``ParamOutOfRange`` line, nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ParamOutOfRange: {message}\n"


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
        path.write_text("[1]")
        with pytest.raises(SpecFileError, match="top level must be a JSON object"):
            parse_protocol_spec(path)
        with pytest.raises(SpecFileError, match="missing key 'chi1'"):
            parse_protocol_spec({"schemaVersion": 1, "dimProof": 1, "dimToken": 2, "chi0": []})
        pairs = {"schemaVersion": 1, "dimProof": 1, "dimToken": 2, "chi1": [[0, 0], [1, 0]]}
        with pytest.raises(SpecFileError, match=r"chi0\[1\] must be a \[re, im\] pair"):
            parse_protocol_spec({**pairs, "chi0": [[1, 0], [0, 0, 0]]})

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
        assert_refused(capsys, f"the run count must be an integer >= 1, got {runs}")

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        assert run_cli(["simulate", str(spec), "--seed", "-1"]) == 2
        assert_refused(capsys, "the seed must be an integer >= 0, got -1")

    def test_non_integer_runs_is_an_argparse_error(self, tmp_path, capsys):
        spec = make_spec_file(tmp_path, "commuting3d", 0.3)
        assert run_cli(["simulate", str(spec), "--runs", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --runs: invalid int value: '1.5'" in captured.err

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
        assert_refused(capsys, f"the run count must be an integer >= 1, got {runs}")

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli(["cointoss", "--seed", "-1"]) == 2
        assert_refused(capsys, "the seed must be an integer >= 0, got -1")

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

    @pytest.mark.parametrize("spec", ["pure-pair-2e-9", "pure-pair-1e-8", "random-3x1"])
    def test_fidelity_rounding_to_one_is_no_violation(self, tmp_path, capsys, spec):
        """F rounds to 1 (cos(1e-8) == 1.0; at token dim 1, F = 1 - 1 ulp) while
        D is of order 1e-8: the squared upper bound 1 - F^2 - D^2 reads
        rounding noise, where the square-root form sqrt(1 - F^2) - D would read -D."""
        if spec == "random-3x1":
            path = tmp_path / "protocol.json"
            write_protocol_spec(qbc.random_protocol(3, 1, 0), path)
        else:
            path = make_spec_file(tmp_path, "pure-pair", spec.removeprefix("pure-pair-"))
        assert run_cli(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out and "OK pure_pair_equality" in out

    def test_impossible_point_fails(self, capsys):
        assert run_cli(["check", "--point", "0.1", "0.1"]) == 1
        assert "below_curve_I" in capsys.readouterr().out

    def test_valid_point_passes(self, capsys):
        assert run_cli(["check", "--point", "0.25", "0.25"]) == 0

    def test_out_of_range_point_is_usage_error(self, capsys):
        assert run_cli(["check", "--point", "0.25", "0.25", "--point", "0.7", "0.1"]) == 2
        assert_refused(capsys, "g_max = 0.7 outside [0, 1/2]")

    def test_point_box_allows_the_bound_tolerance(self, capsys):
        assert run_cli(["check", "--point", "0.5000000001", "0.2"]) == 0
        line = f"OK point gMax={format_float(0.5000000001)} cMax={format_float(0.2)} above_curve_I\n"
        assert capsys.readouterr().out == line

    @pytest.mark.parametrize("g", ["-1e-10", "-1E-10", "-.1e-9"])
    def test_negative_exponent_coordinate_is_a_number(self, g, capsys):
        assert run_cli(["check", "--point", "-0.0000000001", "0.5"]) == 0
        decimal = capsys.readouterr()
        assert run_cli(["check", "--point", g, "0.5", "--point", "0.5", "-1e-10"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == decimal.out + (
            f"OK point gMax={format_float(0.5)} cMax={format_float(-1e-10)} above_curve_I\n"
        )
        assert decimal.out == "OK point gMax=-1e-10 cMax=0.5 above_curve_I\n"

    @pytest.mark.parametrize("g", ["-inf", "-Infinity", "-nan"])
    def test_negative_non_finite_coordinate_is_refused_by_name(self, g, capsys):
        assert run_cli(["check", "--point", g, "0.5"]) == 2
        assert_refused(capsys, f"g_max = {float(g)} outside [0, 1/2]")

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(["check"]) == 2


# One run of each command, with the exit code it gives; SPEC stands for a spec file.
OUT_COMMANDS = {
    "analyze": (["analyze", "SPEC", "--format", "json"], 0),
    "sweep": (["sweep", "--family", "pure-pair", "--points", "5", "--format", "json"], 0),
    "simulate": (["simulate", "SPEC", "--alice", "cheat", "--runs", "2000", "--seed", "1"], 0),
    "cointoss": (["cointoss", "SPEC", "--cheater", "bob", "--runs", "2000", "--seed", "1"], 0),
    "check": (["check", "SPEC", "--point", "0", "0"], 1),
    "make-spec": (["make-spec", "--family", "qubit-pure-mixed", "--param", "0.4"], 0),
}


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

    @pytest.mark.parametrize(
        "error, code",
        [(cls, 2) for cls in _qbc_error_classes()]
        + [(OSError, 2), (ValueError, 3), (FloatingPointError, 3), (np.linalg.LinAlgError, 3)],
        ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
    )
    def test_failure_contract(self, capsys, monkeypatch, error, code):
        """Any QbcError or OSError a handler raises exits 2, a numeric failure 3;
        both print one ``Name: message`` line on stderr."""
        import qbc.cli as cli_module

        def boom(_):
            raise error("raised by the handler")

        monkeypatch.setattr(cli_module, "_cmd_make_spec", boom)
        assert run_cli(["make-spec", "--family", "commuting3d", "--param", "0.3"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{error.__name__}: raised by the handler\n"

    def test_failure_contract_covers_every_error_class(self):
        defined = {name for name, obj in vars(qbc.errors).items() if isinstance(obj, type)}
        assert {cls.__name__ for cls in _qbc_error_classes()} == defined | {"SpecFileError"}

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, command):
        out = str(tmp_path / "missing-dir" / "out.txt")
        if command == "analyze":
            args = ["analyze", str(make_spec_file(tmp_path, "commuting3d", 0.3)), "--out", out]
        else:
            args = ["sweep", "--family", "pure-pair", "--points", "3", "--out", out]
        assert run_cli(args) == 2
        assert "FileNotFoundError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_out_writes_what_stdout_shows(self, tmp_path, capsys, command):
        """Every command takes ``--out`` and writes there the bytes it prints
        without it, with the same exit code."""
        spec = str(make_spec_file(tmp_path, "commuting3d", 0.3))
        args, code = OUT_COMMANDS[command]
        args = [spec if arg == "SPEC" else arg for arg in args]
        assert run_cli(args) == code
        shown = capsys.readouterr().out
        assert shown
        out = tmp_path / "out.txt"
        assert run_cli([*args, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == shown.encode("utf-8")

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


def test_light_commands_do_not_import_the_sampling_pool(tmp_path):
    """``make-spec``, ``analyze`` and ``check`` never sample, so they leave
    ``concurrent.futures`` (the bulk sampler's thread pool) unimported."""
    spec = tmp_path / "p.json"
    script = (
        "import sys\n"
        "from qbc.cli import main\n"
        f"spec = {str(spec)!r}\n"
        "make_spec = ['make-spec', '--family', 'commuting3d', '--param', '0.3', '--out', spec]\n"
        "codes = [main(make_spec), main(['analyze', spec]), main(['check', spec])]\n"
        "print(codes, 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qbc.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] False"


@pytest.mark.parametrize("command, most_lapack", [("analyze", 3), ("check", 5)])
def test_light_commands_build_only_what_they_print(tmp_path, monkeypatch, capsys, command, most_lapack):
    """``analyze`` reads the report and the cheat kit, ``check`` the report and
    the reductions; neither builds a Helstrom measurement or strategy tables.

    On a fresh 8x8 spec the report makes two LAPACK calls, the kit one and the
    reductions two, and ``check``'s inequalities one more (the support rank).
    """
    spec = tmp_path / "random8x8.json"
    write_protocol_spec(qbc.random_protocol(8, 8, 1), spec)
    calls = {"lapack": 0, "helstrom": 0, "tables": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("eigh", "eigvalsh", "svd", "qr"):
        counting(np.linalg, name, "lapack")
    counting(qbc.protocol, "helstrom", "helstrom")
    counting(qbc.protocol, "StrategyTables", "tables")
    assert run_cli([command, str(spec)]) == 0
    assert capsys.readouterr().out
    assert calls["helstrom"] == calls["tables"] == 0
    assert calls["lapack"] <= most_lapack


def cli_stdout(*args) -> str:
    """stdout of a ``python -m qbc.cli`` child that must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(qbc.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "qbc.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestPinnedBulkStdout:
    """Bulk Monte Carlo stdout of ``python -m qbc.cli``, byte for byte.

    Recorded from the sampler that compared ``Generator.random`` doubles;
    the integer rule on raw words gives the same bytes.  On several CPUs
    the runs are counted by the caller's thread and a thread pool, and under
    a one-CPU affinity set (``taskset -c 0``) by the caller alone, so running
    this class both ways shows both give these bytes.
    """

    SIMULATE = (
        "alice,bob,runs,seed,pEstimate,pEstimateStderr,pEstimatePredicted,"
        "pUnveil,pUnveilStderr,pUnveilPredicted\n"
        "cheat,helstrom,1000000,3,0.50017299999999998,0.00049999997007099911,0.5,"
        "0.47995399999999999,0.0004995979962770067,0.47883467557241444\n"
    )
    COINTOSS = (
        "cheater,runs,seed,alpha,beta,aliceWinRate,bobWinRate,aliceWinStderr,"
        "aliceWinPredicted,aliceCaughtRate\n"
        "alice,1000000,4,0.25000000000000006,0.25000000000000006,0.74937900000000002,"
        "0.25062099999999998,0.00043337064316702396,0.75,0.20894099999999999\n"
    )

    def test_simulate(self, tmp_path):
        spec = tmp_path / "random8x8.json"
        write_protocol_spec(qbc.random_protocol(8, 8, 88), spec)
        args = ("--alice", "cheat", "--bob", "helstrom", "--runs", "1000000", "--seed", "3")
        assert cli_stdout("simulate", str(spec), *args) == self.SIMULATE

    def test_cointoss(self):
        args = ("--cheater", "alice", "--runs", "1000000", "--seed", "4")
        assert cli_stdout("cointoss", *args) == self.COINTOSS


class TestPinnedSweepStdout:
    """sha256 of ``python -m qbc.cli sweep --points 1001`` stdout, per family and format.

    Recorded when ``TradeoffPoint`` was a frozen dataclass built once per
    point; the NamedTuple points built in bulk give the same bytes.  The
    pure-pair digests were re-recorded when qubit tokens moved to the
    closed-form core: its D = max(|m|, r) moves 289 of the 1001 points by
    at most 2.2e-16, and brings the largest error against sin(phi) from
    2.2e-16 down to 1.1e-16.
    """

    DIGESTS = {
        ("commuting3d", "csv"): "4ae41b448e19c8ee87640b53ac17c8490899512464ea3b045b2fc309a6821278",
        ("commuting3d", "json"): "fee47ca707fede22bcc892c0fcd1ca5b0dce0b31d8d3748338919dc9b2036cba",
        ("qubit-pure-mixed", "csv"): "17094c38198b048d2e6799b32f006a63255bdea3c0f936b1bc2303e681840d12",
        ("qubit-pure-mixed", "json"): "ea28e30b553986454e336eaf8c1cd98e3709a9fbb96aca26bd332de3cbd46b44",
        ("pure-pair", "csv"): "ca87949f4cb258ae5e3eff9812229e42fa6af268be28b790e0d7a7db8243e587",
        ("pure-pair", "json"): "8622b4f1437b81da4a32b56f21d9b81016c7c0c7ba8bf591db28af3ea7412609",
    }

    @pytest.mark.parametrize("family, fmt", sorted(DIGESTS))
    def test_sweep(self, family, fmt):
        out = cli_stdout("sweep", "--family", family, "--points", "1001", "--format", fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[family, fmt]


class TestPinnedAnalyzeCheckStdout:
    """sha256 of ``analyze`` (text and JSON) and ``check`` stdout and exit codes, per spec.

    Each family is pinned at parameter 0, an interior value and its
    endpoint, beside a random 4x3 protocol; the last case checks a point
    below curve I beside one above it.  Recorded while ``SecurityReport``
    stored ``g_max`` and ``c_max`` and each ``InequalityCheck`` its verdict;
    deriving them gives the same bytes.
    """

    SPECS = {
        "commuting3d-0": ("commuting3d", 0.0),
        "commuting3d-0.3": ("commuting3d", 0.3),
        "commuting3d-1": ("commuting3d", 1.0),
        "qubit-pure-mixed-0": ("qubit-pure-mixed", 0.0),
        "qubit-pure-mixed-0.3": ("qubit-pure-mixed", 0.3),
        "qubit-pure-mixed-1": ("qubit-pure-mixed", 1.0),
        "pure-pair-0": ("pure-pair", 0.0),
        "pure-pair-0.7": ("pure-pair", 0.7),
        "pure-pair-pi/2": ("pure-pair", np.pi / 2.0),
        "random-4x3": None,
    }
    DIGESTS = {
        "commuting3d-0": "b5102c57bc96fbd4fecd0bd8b7b2de3c4931afbb3ba07ef4e8136f165f4d7dec",
        "commuting3d-0.3": "6a6a4fec358161408b0cf8110bc287c62de30dc35f09583fa414dd086f29c238",
        "commuting3d-1": "793e501c347c79b5d8a0ec0ed2d6559832ed9ec9b2c693b228c8947ddaaace36",
        "pure-pair-0": "928f66fcac6d701d49018268a6b687657e4706a85c20d50cd3cd86015e4d3e6f",
        "pure-pair-0.7": "1cc297ae116d1fc84202e391c21ca81b1452732c0d7eab115530a365f4f77d91",
        "pure-pair-pi/2": "d2ab9b7c257426d92ea76dac61c75cd594c41de9f2421bbdbdb05b48ecce48b5",
        "qubit-pure-mixed-0": "4db65b5187a78c5b592cc0582e89caeeb2a9952b4341bb7ecdecf16b72d9af6f",
        "qubit-pure-mixed-0.3": "3f10b3c5800708bc904003bec110f3bc4a5840e7efa2e8d61a62de7f45893cc8",
        "qubit-pure-mixed-1": "439e9eaf6a485d62b6c13c676b17824a7242ba929819ad1bd35882da9366f596",
        "random-4x3": "a95a407a6a5c511b9198801c506f5aca8eb6709ff32692294e935344fddd7857",
        "violating-point": "53936a6ad18204aeab646ce3522ece3462794b81effc68ea9ab567d16a6c74c9",
    }

    @staticmethod
    def _transcript(capsys, *commands) -> str:
        """Each command's exit code and stdout, in order, as one string."""
        capsys.readouterr()
        parts = []
        for command in commands:
            code = run_cli(command)
            parts.append(f"{code}\n{capsys.readouterr().out}")
        return "".join(parts)

    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_spec(self, case, tmp_path, capsys):
        if self.SPECS[case] is None:
            spec = tmp_path / "random4x3.json"
            write_protocol_spec(qbc.random_protocol(4, 3, 43), spec)
        else:
            spec = make_spec_file(tmp_path, *self.SPECS[case])
        out = self._transcript(
            capsys,
            ["analyze", str(spec)],
            ["analyze", str(spec), "--format", "json"],
            ["check", str(spec)],
        )
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[case]

    def test_violating_point(self, capsys):
        out = self._transcript(capsys, ["check", "--point", "0.1", "0.1", "--point", "0.25", "0.25"])
        assert out.startswith("1\nVIOLATION point gMax=0.10000000000000001")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS["violating-point"]
