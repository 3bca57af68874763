"""CLI contract: outputs, wire format, exit codes, JSON records."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernint import cli, oracle_integral

F = Fraction


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bernint.cli", *args],
        capture_output=True,
        text=True,
    )


class TestWireFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/80", F(1, 80)),
            ("-1/2", F(-1, 2)),
            ("0", F(0)),
            ("17", F(17)),
            ("-3", F(-3)),
            ("5/7", F(5, 7)),
        ],
    )
    def test_roundtrip(self, text, value):
        assert cli.parse_rational(text) == value
        assert cli.format_rational(value) == text
        assert cli.parse_rational(cli.format_rational(value)) == value

    @pytest.mark.parametrize(
        "bad", ["", "1/0", "1/-2", "1.5", "a/b", "1/2/3", "--1", "٢", "١/٢", "1/٢"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            cli.parse_rational(bad)

    def test_index_list(self):
        assert cli.parse_index_list("1,1,2") == (1, 1, 2)
        assert cli.parse_index_list("0") == (0,)
        for bad in ["", "1,,2", "1,-2", "a", "1 2", "١,١", "1,٢"]:
            with pytest.raises(ValueError):
                cli.parse_index_list(bad)


class TestIntegralCommand:
    def test_prints_value(self):
        proc = run_cli("integral", "--ks", "1,1,1,1")
        assert proc.returncode == 0
        assert proc.stdout == "1/80\n"

    def test_oracle_method_with_upper(self):
        proc = run_cli("integral", "--ks", "0", "--upper", "5/7", "--method", "oracle")
        assert proc.returncode == 0
        assert proc.stdout == "5/7\n"

    def test_auto_method_parity_zero(self):
        proc = run_cli("integral", "--ks", "1,1,1", "--method", "auto")
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_methods_agree(self):
        outputs = set()
        for method in ("closed", "oracle", "auto", "recurrence:1", "recurrence:3"):
            proc = run_cli("integral", "--ks", "2,3,1", "--method", method)
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_deterministic_output(self):
        # negative uppers need the --upper=-1/3 form (argparse convention)
        first = run_cli("integral", "--ks", "2,2,2,2", "--upper=-1/3")
        second = run_cli("integral", "--ks", "2,2,2,2", "--upper=-1/3")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0
        assert first.stdout == f"{oracle_integral((2, 2, 2, 2), F(-1, 3))}\n"

    def test_json_record_roundtrips(self):
        proc = run_cli("integral", "--ks", "1,1,1,1", "--format", "json")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["command"] == "integral"
        assert record["ks"] == [1, 1, 1, 1]
        assert cli.parse_rational(record["value"]) == F(1, 80)
        assert cli.parse_rational(record["upper"]) == 1
        assert record["time_us"] >= 0

    def test_malformed_ks_usage_error(self):
        proc = run_cli("integral", "--ks", "1,,2")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_negative_index_usage_error(self):
        assert run_cli("integral", "--ks", "1,-2").returncode == 2

    def test_bad_upper_usage_error(self):
        assert run_cli("integral", "--ks", "1", "--upper", "1.5").returncode == 2

    def test_bad_recurrence_depth_usage_error(self):
        assert run_cli("integral", "--ks", "1,1", "--method", "recurrence:0").returncode == 2

    def test_unknown_method_usage_error(self, capsys):
        for command in ("integral", "bench"):
            for method in ("magic", "recurrencefoo", "recurrence-7", "recurrences",
                           "recurrence:", "recurrence: 2", "recurrence:3_0"):
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, "--ks", "1,1", "--method", method])
                assert exc.value.code == 2
                assert method in capsys.readouterr().err


# the bounded settings of tests/test_integrals.py
bounded = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def integral_requests(draw):
    ks = tuple(draw(st.lists(st.integers(0, 8), min_size=1, max_size=5)))
    upper = F(draw(st.integers(-80, 80)), draw(st.integers(1, 40)))
    mu = draw(st.integers(1, sum(ks[:-1]) + 1))
    return ks, upper, mu


class TestMethodDispatch:
    @bounded
    @given(integral_requests())
    def test_methods_print_the_same_value(self, request):
        ks, upper, mu = request
        printed = set()
        for method in ("closed", "oracle", "auto", f"recurrence:{mu}"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["integral", "--ks", ",".join(map(str, ks)),
                                 f"--upper={upper}", "--method", method])
            assert code == 0
            printed.add(out.getvalue())
        assert printed == {f"{oracle_integral(ks, upper)}\n"}


class TestAutoMethod:
    def test_every_branch_matches_the_oracle(self):
        from bernint.integrals import IntegralSpec

        cases = [
            ((2, 3), F(1)),       # two-factor shape
            ((1, 1, 2), F(1)),    # three-factor at 1, all indices >= 1
            ((0, 2, 2), F(1)),    # three-factor with a zero index
            ((1, 1, 2, 2), F(1)), # four-factor at 1
            ((1, 1, 2, 2), F(2)), # off [0, 1]: generic closed form
            ((1, 1, 1, 1, 2), F(1)),  # r = 5: generic closed form
        ]
        for ks, upper in cases:
            got = cli._auto_value(IntegralSpec(ks, upper))
            assert got == oracle_integral(ks, upper), (ks, upper)


class TestPolyCommand:
    def test_closed_coefficients(self):
        proc = run_cli("poly", "--ks", "1,1")
        assert proc.returncode == 0
        assert proc.stdout == "0, 1/4, -1/2, 1/3\n"

    def test_single_constant(self):
        assert run_cli("poly", "--ks", "0").stdout == "0, 1\n"

    def test_single_quadratic(self):
        assert run_cli("poly", "--ks", "2").stdout == "0, 1/6, -1/2, 1/3\n"

    def test_methods_agree(self):
        closed = run_cli("poly", "--ks", "1,2,3").stdout
        oracle = run_cli("poly", "--ks", "1,2,3", "--method", "oracle").stdout
        assert closed == oracle

    def test_json_coefficients_roundtrip(self):
        proc = run_cli("poly", "--ks", "1,1", "--format", "json")
        record = json.loads(proc.stdout)
        assert [str(cli.parse_rational(c)) for c in record["coefficients"]] == record[
            "coefficients"
        ]
        assert record["coefficients"] == ["0", "1/4", "-1/2", "1/3"]


class TestBernoulliCommand:
    def test_number(self):
        assert run_cli("bernoulli", "number", "1").stdout == "-1/2\n"
        assert run_cli("bernoulli", "number", "3").stdout == "0\n"

    def test_poly(self):
        assert run_cli("bernoulli", "poly", "2").stdout == "1/6, -1, 1\n"

    def test_negative_index_usage_error(self):
        assert run_cli("bernoulli", "number", "--", "-1").returncode == 2


class TestVerifyCommand:
    def test_table_suite_passes(self):
        proc = run_cli("verify", "--suite", "table")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_json_report(self):
        proc = run_cli("verify", "--suite", "identities", "--max-sum", "8", "--format", "json")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["suite"] == "identities"
        assert record["ok"] is True
        assert record["passed"] == record["attempted"] > 0
        assert record["first_failure"] is None

    def test_unknown_suite_usage_error(self):
        assert run_cli("verify", "--suite", "everything").returncode == 2

    @pytest.mark.parametrize(
        "argv,want",
        [
            (
                ["--suite", "carlitz4", "--max-sum", "16"],
                {
                    "suite": "carlitz4", "attempted": 2685, "passed": 2685,
                    "notes": [
                        "printed variant disagrees with the oracle on 189 of 2685 even-sum "
                        "tuples, all with k4 = 0 (the dropped a = 0 boundary cell); the "
                        "corrected variant matches everywhere",
                        "case terms A-D match their parity classes on every tuple with k4 >= 1",
                    ],
                },
            ),
            (
                ["--suite", "oracle"],
                {
                    "suite": "oracle", "attempted": 6636, "passed": 6636,
                    "notes": [
                        "r in (1, 2, 3, 4), entries <= 6, index sum <= 12, "
                        "uppers ['1', '1/2', '2', '-1/3']"
                    ],
                },
            ),
        ],
    )
    def test_formula_suite_records_are_pinned(self, argv, want, capsys):
        # the full JSON record of the suites that check the specialized
        # formulas, all but its timing
        assert cli.main(["verify", *argv, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        del record["time_us"]
        assert record == {"command": "verify", **want, "ok": True, "first_failure": None}

    def test_negative_bounds_usage_error(self, capsys):
        # a negative bound used to run zero instances and report PASS
        for flag in ("--max-sum", "--max-r"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--suite", "oracle", f"{flag}=-3"])
            assert exc.value.code == 2
            assert f"{flag} must be >= 0" in capsys.readouterr().err

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        from bernint.verify import VerificationReport

        rep = VerificationReport("table", attempted=2, passed=1,
                                 first_failure={"ks": [9, 9, 9, 9]})
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: rep)
        assert cli.main(["verify", "--suite", "table"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "first failure" in out


class TestBenchCommand:
    def test_methods_must_agree(self):
        proc = run_cli(
            "bench", "--ks", "2,2,2", "--method", "closed,oracle,recurrence:2",
            "--reps", "2", "--format", "json",
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["agreed"] is True
        assert len(record["timings"]) == 3
        assert len({t["value"] for t in record["timings"]}) == 1

    def test_degenerate_single_index(self):
        proc = run_cli("bench", "--ks", "0", "--reps", "1", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "1"

    def test_bad_reps_usage_error(self):
        assert run_cli("bench", "--ks", "1,1", "--reps", "0").returncode == 2

    def test_disagreement_exits_one(self, monkeypatch, capsys):
        values = {"closed": F(1, 2), "oracle": F(1, 3)}
        monkeypatch.setattr(
            cli, "_integral_value", lambda spec, method: values[method]
        )
        code = cli.main(["bench", "--ks", "1,1", "--reps", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DISAGREEMENT" in captured.out
        assert "different values" in captured.err


class TestTopLevel:
    def test_no_command_usage_error(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["integral", "--ks", "١,١", "--upper", "٢"],
            ["integral", "--ks", "1,1", "--upper", "٢"],
            ["bench", "--ks", "١,١"],
            ["bench", "--ks", "1,1", "--reps", "٣"],
            ["bernoulli", "number", "١٢"],
            ["bernoulli", "number", "1_2"],
            ["bernoulli", "poly", "+2"],
            ["verify", "--suite", "table", "--max-sum", "٣"],
            ["verify", "--suite", "table", "--max-r", "٣"],
        ],
    )
    def test_numbers_outside_ascii_digits_usage_error(self, argv, capsys):
        # int() takes any Unicode decimal digit, underscores and a plus sign,
        # and the regex \d any Unicode decimal digit
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "bernint" in proc.stdout
