import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmr.cli import format_complex, main, parse_complex
from ddmr.signals import load_csv

from support import RL_REFERENCE_MODEL, reference_parse_complex

RL_SIGMA_ARGS = [
    "--sigma", "0",
    "--sigma", "0.5",
    "--sigma", "0.7071067811865476+0.7071067811865476i",
    "--sigma", "0.7071067811865476-0.7071067811865476i",
    "--sigma", "1",
]
INFORMATIVE_SIGMA_ARGS = [
    "--sigma", "0.5",
    "--sigma", "0.7071067811865476+0.7071067811865476i",
    "--sigma", "0.7071067811865476-0.7071067811865476i",
]


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0j),
            ("1", 1 + 0j),
            ("0.5", 0.5 + 0j),
            ("-2.25", -2.25 + 0j),
            ("0.7071+0.7071i", 0.7071 + 0.7071j),
            ("0.7071-0.7071i", 0.7071 - 0.7071j),
            ("-1.5-2i", -1.5 - 2j),
            ("i", 1j),
            ("-i", -1j),
            ("2i", 2j),
            ("1e-3", 1e-3 + 0j),
            ("1e-3+2e-4i", 1e-3 + 2e-4j),
            ("1+i", 1 + 1j),
            ("+i", 1j),
            ("1_0i", 10j),
            ("infi", complex(0.0, float("inf"))),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "bogus", "1+2", "1 + 2i", "2i+1", "i2", "1..2", "1+2j", "(1+2i)"])
    def test_rejects(self, text):
        with pytest.raises(ValueError, match="invalid complex literal"):
            parse_complex(text)

    @settings(max_examples=1000)
    @given(st.one_of(
        st.lists(st.sampled_from([*"0123456789+-.eEijJ()_ ", "inf", "nan"]), max_size=10).map("".join),
        st.tuples(st.floats(), st.floats()).map(lambda z: f"{z[0]!r}{z[1]:+}i"),
    ))
    @example("1+2j")
    @example("(1+2i)")
    @example("1_0i")
    @example("infi")
    @example("+i")
    def test_same_literals_and_values_as_scanner(self, text):
        # The scanner the parser replaced is the oracle: the same literals
        # are refused, and accepted ones give the same bits, signed zeros
        # and NaNs included.
        def outcome(parse):
            try:
                z = parse(text)
            except ValueError as exc:
                return str(exc)
            return struct.pack("<dd", z.real, z.imag)

        assert outcome(parse_complex) == outcome(reference_parse_complex)

    def test_format_roundtrip_style(self):
        assert format_complex(0.5 + 0j) == "0.5"
        assert format_complex(-0.0101 - 0.2792j) == "-0.0101-0.2792i"


class TestCheck:
    def test_rl_verdicts_and_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["check", "--data", "@paper-rl", "--order", "4", *RL_SIGMA_ARGS, "--json"], capsys)
        assert code == 2
        verdicts = json.loads(out)
        assert [v["informative"] for v in verdicts] == [False, True, True, True, False]
        assert all(v["tolerance"] > 0 for v in verdicts)

    def test_all_informative_exits_zero(self, capsys):
        code, _, _ = run_cli(
            ["check", "--data", "@paper-rl", "--order", "4", *INFORMATIVE_SIGMA_ARGS], capsys)
        assert code == 0

    def test_human_table(self, capsys):
        code, out, _ = run_cli(
            ["check", "--data", "@paper-rl", "--order", "4", "--sigma", "0.5"], capsys)
        assert code == 0
        assert "informative" in out
        assert "yes" in out

    def test_report_written_to_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["check", "--data", "@paper-rl", "--order", "4", "--sigma", "0.5",
             "--out", str(report)], capsys)
        assert code == 0
        verdicts = json.loads(report.read_text())
        assert verdicts[0]["informative"] is True

    def test_byte_identical_reports(self, capsys):
        args = ["check", "--data", "@paper-rl", "--order", "4", *RL_SIGMA_ARGS, "--json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_csv_data_matches_builtin(self, tmp_path, capsys):
        import ddmr

        csv_path = tmp_path / "rl.csv"
        ddmr.save_csv(ddmr.rl_circuit(), csv_path)
        args = lambda spec: ["check", "--data", spec, "--order", "4", *RL_SIGMA_ARGS, "--json"]
        _, out_file, _ = run_cli(args(str(csv_path)), capsys)
        _, out_builtin, _ = run_cli(args("@paper-rl"), capsys)
        assert json.loads(out_file) == json.loads(out_builtin)

    def test_persistently_excited_record_all_informative(self, tmp_path, capsys):
        import ddmr
        from support import input_signal, persistently_exciting, random_params

        rng = np.random.default_rng(99)
        order = 2
        params = random_params(rng, order)
        u = input_signal(rng, 4 * order + 6, "white")
        assert persistently_exciting(u, 2 * order + 1)
        record = ddmr.DataSet(u, ddmr.simulate(params, u, rng.standard_normal(order)))
        csv_path = tmp_path / "pe.csv"
        ddmr.save_csv(record, csv_path)
        code, _, _ = run_cli(
            ["check", "--data", str(csv_path), "--order", str(order),
             "--sigma", "0.3", "--sigma", "-0.8", "--sigma", "0.2+1.1i",
             "--rank-rel-tol", "1e-10"], capsys)
        assert code == 0


class TestCheckErrors:
    def test_order_zero_usage_error(self, capsys):
        code, _, err = run_cli(
            ["check", "--data", "@paper-rl", "--order", "0", "--sigma", "0.5"], capsys)
        assert code == 1
        assert "--order must be at least 1" in err

    def test_no_sigma_usage_error(self, capsys):
        code, _, err = run_cli(["check", "--data", "@paper-rl", "--order", "4"], capsys)
        assert code == 1
        assert "at least one --sigma" in err

    def test_bad_sigma_literal(self, capsys):
        code, _, err = run_cli(
            ["check", "--data", "@paper-rl", "--order", "4", "--sigma", "nope"], capsys)
        assert code == 1
        assert "invalid complex literal" in err

    def test_missing_data_file(self, capsys):
        code, _, err = run_cli(
            ["check", "--data", "no-such.csv", "--order", "4", "--sigma", "0.5"], capsys)
        assert code == 1

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(
            ["check", "--data", "@nope", "--order", "4", "--sigma", "0.5"], capsys)
        assert code == 1
        assert "unknown built-in dataset" in err

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,u,y\n0,1,0\n2,2,1\n")
        code, _, err = run_cli(
            ["check", "--data", str(bad), "--order", "1", "--sigma", "0.5"], capsys)
        assert code == 1
        assert "non-contiguous time index at row 3" in err


class TestValue:
    def test_values_and_nulls(self, capsys):
        code, out, _ = run_cli(
            ["value", "--data", "@paper-rl", "--order", "4",
             "--sigma", "0.5", "--sigma", "1", "--json"], capsys)
        assert code == 2
        verdicts = json.loads(out)
        m = complex(*verdicts[0]["m"])
        assert abs(m - (-0.2985)) <= 5e-4
        assert verdicts[1]["m"] is None

    def test_conjugate_point_gives_conjugate_value(self, capsys):
        _, out, _ = run_cli(
            ["value", "--data", "@paper-rl", "--order", "4",
             "--sigma", "0.7071067811865476+0.7071067811865476i",
             "--sigma", "0.7071067811865476-0.7071067811865476i", "--json"], capsys)
        verdicts = json.loads(out)
        m_plus = complex(*verdicts[0]["m"])
        m_minus = complex(*verdicts[1]["m"])
        assert abs(m_minus - m_plus.conjugate()) <= 1e-9


class TestReduce:
    def test_reference_model_written(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(
            ["reduce", "--data", "@paper-rl", "--order", "4", *INFORMATIVE_SIGMA_ARGS,
             "--r-max", "4", "--out", str(model_path)], capsys)
        assert code == 0
        assert "order r = 1" in out
        obj = json.loads(model_path.read_text())
        assert obj["r"] == 1
        assert abs(obj["p"][0] - RL_REFERENCE_MODEL["p0"]) <= 1e-3
        assert abs(obj["q"][0] - RL_REFERENCE_MODEL["q0"]) <= 1e-3
        assert abs(obj["q"][1] - RL_REFERENCE_MODEL["q1"]) <= 1e-3

    def test_auto_conjugate_closure(self, capsys):
        # Passing only the upper-half-plane point still yields a real model.
        code, out, _ = run_cli(
            ["reduce", "--data", "@paper-rl", "--order", "4",
             "--sigma", "0.5", "--sigma", "0.7071067811865476+0.7071067811865476i",
             "--json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["r"] == 1
        assert len(obj["pairs"]) == 3

    def test_non_informative_point_aborts(self, capsys):
        code, _, err = run_cli(
            ["reduce", "--data", "@paper-rl", "--order", "4",
             "--sigma", "0", "--sigma", "0.5"], capsys)
        assert code == 2
        assert "not informative at sigma=0" in err

    def test_single_point_constant_model(self, capsys):
        code, out, _ = run_cli(
            ["reduce", "--data", "@paper-rl", "--order", "4", "--sigma", "0.5", "--json"],
            capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["r"] == 0
        assert abs(obj["q"][0] - (-0.2985)) <= 5e-4

    def test_negative_r_max(self, capsys):
        code, _, err = run_cli(
            ["reduce", "--data", "@paper-rl", "--order", "4", "--sigma", "0.5",
             "--r-max", "-1"], capsys)
        assert code == 1
        assert "r_max must be nonnegative" in err


class TestSimulate:
    def test_csv_to_stdout(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": 1, "p": [0.0], "q": [0.0, 1.0]}))
        data = tmp_path / "d.csv"
        data.write_text("t,u,y\n0,1,0\n1,2,0\n2,3,0\n")
        code, out, _ = run_cli(
            ["simulate", "--model", str(model), "--data", str(data), "--init", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,u,y"
        ys = [float(line.split(",")[2]) for line in lines[1:]]
        assert ys == [5.0, 2.0, 3.0]

    def test_csv_to_file_roundtrips(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": 1, "p": [-1.0790], "q": [0.1045, 0.1367]}))
        out_path = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            ["simulate", "--model", str(model), "--data", "@paper-rl",
             "--init", "0", "--out", str(out_path)], capsys)
        assert code == 0
        sim = load_csv(out_path)
        assert sim.horizon == 19
        assert np.all(np.isfinite(sim.output.samples))

    def test_zero_input_zero_trace(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": 1, "p": [0.5], "q": [1.0, 0.5]}))
        data = tmp_path / "d.csv"
        data.write_text("t,u,y\n0,0,0\n1,0,0\n2,0,0\n")
        code, out, _ = run_cli(["simulate", "--model", str(model), "--data", str(data)], capsys)
        assert code == 0
        ys = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert ys == [0.0, 0.0, 0.0]

    def test_wrong_init_count(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": 2, "p": [0.0, 0.0], "q": [1.0, 0.0, 0.0]}))
        code, _, err = run_cli(
            ["simulate", "--model", str(model), "--data", "@paper-rl", "--init", "1"], capsys)
        assert code == 1
        assert "expected 2 initial output values" in err


class TestVerify:
    def _write_reference_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 1, "p": [RL_REFERENCE_MODEL["p0"]],
                                    "q": [RL_REFERENCE_MODEL["q0"], RL_REFERENCE_MODEL["q1"]]}))
        return path

    def test_reference_pairs_pass(self, tmp_path, capsys):
        model = self._write_reference_model(tmp_path)
        code, out, _ = run_cli(
            ["verify", "--model", str(model),
             "--pair", "0.5=-0.2985",
             "--pair", "0.7071067811865476+0.7071067811865476i=-0.0101-0.2792i",
             "--pair", "0.7071067811865476-0.7071067811865476i=-0.0101+0.2792i",
             "--tol", "1e-3"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_perturbed_model_fails(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 1, "p": [RL_REFERENCE_MODEL["p0"] + 0.1],
                                    "q": [RL_REFERENCE_MODEL["q0"], RL_REFERENCE_MODEL["q1"]]}))
        code, out, _ = run_cli(
            ["verify", "--model", str(path), "--pair", "0.5=-0.2985", "--tol", "1e-3"], capsys)
        assert code == 2
        assert "FAIL" in out

    def test_empty_pairs_vacuous(self, tmp_path, capsys):
        model = self._write_reference_model(tmp_path)
        code, out, err = run_cli(["verify", "--model", str(model)], capsys)
        assert code == 0
        assert "vacuous" in err or "vacuous" in out

    def test_pairs_from_reduce_report(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli(["reduce", "--data", "@paper-rl", "--order", "4", *INFORMATIVE_SIGMA_ARGS,
                 "--out", str(model_path)], capsys)
        code, out, _ = run_cli(
            ["verify", "--model", str(model_path), "--pairs-from", str(model_path),
             "--tol", "1e-6", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["errors"]) == 3

    def test_pole_at_pair_point(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 1, "p": [-1.0], "q": [1.0, 0.0]}))
        code, out, _ = run_cli(
            ["verify", "--model", str(path), "--pair", "1=0", "--json"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["kinds"] == ["pole"]
        assert payload["errors"] == [None]

    def test_malformed_pair_spec(self, tmp_path, capsys):
        model = self._write_reference_model(tmp_path)
        code, _, err = run_cli(
            ["verify", "--model", str(model), "--pair", "0.5:-0.3"], capsys)
        assert code == 1
        assert "sigma=m" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "check" in out and "reduce" in out


class TestRegistration:
    def test_check_and_value_json_identical(self, capsys):
        reports = [run_cli([name, "--data", "@paper-rl", "--order", "4", *RL_SIGMA_ARGS, "--json"], capsys)
                   for name in ("check", "value")]
        assert reports[0] == reports[1]
        assert reports[0][0] == 2

    def test_value_table_adds_the_m_column(self, capsys):
        args = ["--data", "@paper-rl", "--order", "4", "--sigma", "0.5", "--sigma", "1"]
        _, check_out, _ = run_cli(["check", *args], capsys)
        _, value_out, _ = run_cli(["value", *args], capsys)
        assert [line.split() for line in value_out.splitlines()] == [
            line.split() + [m] for line, m in zip(check_out.splitlines(), ["m", "-0.298168", "null"])]

    def test_help_lists_every_command(self, capsys):
        _, out, _ = run_cli(["--help"], capsys)
        assert out.split("Commands:\n", 1)[1] == (
            "  check     Decide informativity for interpolation at each requested point.\n"
            "  reduce    Fit a minimal rational interpolant through the recovered values.\n"
            "  simulate  Simulate a model over the input column of a record; emits...\n"
            "  value     Recover transfer-function values at each informative point.\n"
            "  verify    Check a model's transfer values against point/value pairs.\n"
        )
