"""CLI contract: outputs, wire format, exit codes, JSON records."""

import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernint import bernoulli_number, cli, oracle_integral

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
        "bad",
        ["", "1/0", "1/-2", "1.5", "a/b", "1/2/3", "--1", "٢", "١/٢", "1/٢",
         " 2/3", "2/3 ", "\u20032/3", "\t1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            cli.parse_rational(bad)

    def test_index_list(self):
        assert cli.parse_index_list("1,1,2") == (1, 1, 2)
        assert cli.parse_index_list("0") == (0,)
        assert cli.parse_index_list("0007,01") == (7, 1)
        assert cli.parse_index_list("0" * 5000 + ",1") == (0, 1)
        bad_lists = ["", "1,,2", "1,-2", "a", "1 2", "١,١", "1,٢"]
        for bad in bad_lists + [" 1 , 2", "1,\t2", "1,2 ", "\u20031"]:
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
        cases = [
            ((2, 3), F(1)),       # r = 2 at 1: the closed form
            ((1, 1, 2), F(1)),    # three_factor_at_one, all indices >= 1
            ((0, 2, 2), F(1)),    # r = 3 with a zero index: the closed form
            ((1, 1, 2, 2), F(1)), # four_factor_at_one
            ((1, 1, 2, 2), F(2)), # off [0, 1]: the closed form
            ((1, 1, 1, 1, 2), F(1)),  # r = 5: the closed form
        ]
        for ks, upper in cases:
            got = cli._auto_value(ks, upper)
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
        from bernint import verify

        rep = verify.VerificationReport("table", attempted=2, passed=1,
                                        first_failure={"ks": [9, 9, 9, 9]})
        monkeypatch.setattr(verify, "run_suite", lambda *a, **k: rep)
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
            cli, "_integral_value", lambda ks, upper, method: values[method]
        )
        code = cli.main(["bench", "--ks", "1,1", "--reps", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DISAGREEMENT" in captured.out
        assert "different values" in captured.err


class TestWorkLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["integral", "--ks", "1000,1", "--method", "oracle"],
            ["poly", "--ks", "1001", "--method", "oracle"],
            ["bench", "--ks", "1,1000", "--method", "oracle", "--reps", "1"],
            ["bernoulli", "number", "1001"],
            ["bernoulli", "poly", "1001"],
        ],
    )
    def test_index_sum_limit(self, argv, capsys):
        assert cli.MAX_INDEX_SUM == 1000
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "index sum 1001 is above the limit MAX_INDEX_SUM = 1000" in capsys.readouterr().err

    def test_index_sum_at_the_limit_runs(self, capsys):
        assert cli.main(["integral", "--ks", "999,1", "--method", "oracle"]) == 0
        assert cli.main(["bernoulli", "number", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == str(bernoulli_number(1000))

    def test_poly_closed_limit(self, monkeypatch, capsys):
        # (2, 3, 4): d = 5 and k_r = 4 cost 5*5*4//2 + 5**3//6 = 70 products
        monkeypatch.setattr(cli, "MAX_POLY_PRODUCTS", 70)
        assert cli.main(["poly", "--ks", "2,3,4"]) == 0
        monkeypatch.setattr(cli, "MAX_POLY_PRODUCTS", 69)
        with pytest.raises(SystemExit) as exc:
            cli.main(["poly", "--ks", "2,3,4"])
        assert exc.value.code == 2
        assert "MAX_POLY_PRODUCTS = 69" in capsys.readouterr().err
        assert cli.main(["poly", "--ks", "2,3,4", "--method", "oracle"]) == 0

    @pytest.mark.parametrize("command", ["integral", "bench"])
    def test_recurrence_limit(self, monkeypatch, capsys, command):
        # (2, 1, 1) at mu = 2 visits the cells i <= (2, 1) with i_1 + i_2 <= 2:
        # five of them, each weighed (index sum + 1)^2 = 25
        argv = [command, "--ks", "2,1,1", "--method", "recurrence:2"]
        monkeypatch.setattr(cli, "MAX_RECURRENCE_WORK", 125)
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "MAX_RECURRENCE_WORK", 124)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "more than 4 box cells" in capsys.readouterr().err
        assert cli.main([command, "--ks", "2,1,1", "--method", "recurrence:1"]) == 0

    def test_recurrence_over_a_thousand_factors(self, capsys):
        # the box walk is a loop, so the number of parts is not bounded by
        # Python's recursion limit
        argv = ["integral", "--ks", ",".join(["0"] * 1000), "--method", "recurrence:1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "1\n"

    def test_the_limits_stop_a_hostile_recurrence_at_once(self, capsys):
        # 2^29 box cells at mu = 30; the check stops counting past its cap
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["integral", "--ks", ",".join(["1"] * 30), "--method", "recurrence:30"])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 5
        assert "MAX_RECURRENCE_WORK" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integral", "bench"])
    def test_upper_size_limit(self, monkeypatch, capsys, command):
        # (2, 1) at 1/3 sizes (3 + 1) x (1 + 2 bits) = 12
        argv = [command, "--ks", "2,1", "--upper", "1/3"]
        argv += ["--reps", "1"] if command == "bench" else []
        monkeypatch.setattr(cli, "MAX_UPPER_SIZE", 12)
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "MAX_UPPER_SIZE", 11)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "= 4 x 3 = 12 is above the limit MAX_UPPER_SIZE = 11" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integral", "bench"])
    def test_the_limits_stop_a_huge_upper_at_once(self, capsys, command):
        # (1000,) at 1/10^1000 was still running after 90 s
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--ks", "1000", "--upper", f"1/{10**1000}"])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1
        assert "MAX_UPPER_SIZE" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integral", "bench"])
    def test_the_limits_refuse_a_long_upper_before_parsing(self, capsys, command):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--ks", "0", "--upper", "1/" + "1" * 100_000])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1
        assert "MAX_UPPER_SIZE" in capsys.readouterr().err

    def test_values_print_in_full(self, capsys):
        # this value has more than the 4,300 digits Python's int-to-str
        # allows by default; the CLI lifts that limit around printing only
        before = sys.get_int_max_str_digits()
        assert cli.main(["integral", "--ks", "100", "--upper", f"1/{10**45}"]) == 0
        assert sys.get_int_max_str_digits() == before
        printed = capsys.readouterr().out.strip()
        value = oracle_integral((100,), F(1, 10**45))
        sys.set_int_max_str_digits(0)
        try:
            want = str(value)
        finally:
            sys.set_int_max_str_digits(before)
        assert len(want) > 4300
        assert printed == want
        # and what the CLI prints parses back, with the limit restored after
        assert cli.parse_rational(printed) == value
        assert sys.get_int_max_str_digits() == before

    def test_upper_digits_at_the_limit(self, capsys):
        # an upper within MAX_UPPER_SIZE = 16,000 has at most 4,818 digits:
        # 0/10^4816, with 15,999 bits, has that many and runs
        upper = "1/1" + "0" * 4300
        assert cli.main(["integral", "--ks", "0", "--upper", upper]) == 0
        assert capsys.readouterr().out == upper + "\n"
        upper = "0/1" + "0" * 4816
        assert cli.main(["integral", "--ks", "0", "--upper", upper]) == 0
        assert capsys.readouterr().out == "0\n"
        with pytest.raises(SystemExit) as exc:
            cli.main(["integral", "--ks", "0", "--upper", upper + "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--upper has 4,819 digits" in err and "MAX_UPPER_SIZE = 16,000" in err

    def test_sweep_limit(self, monkeypatch, capsys):
        # the default bounds, --max-sum 12 and --max-r 4, admit the tuples of
        # at most 4 parts with sum at most 16: C(16 + 4 + 1, 4) - 1 = 5,984
        monkeypatch.setattr(cli, "MAX_SWEEP_TUPLES", 5984)
        assert cli.main(["verify", "--suite", "table"]) == 0
        monkeypatch.setattr(cli, "MAX_SWEEP_TUPLES", 5983)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "table"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "5,984 tuples" in err and "MAX_SWEEP_TUPLES = 5,983" in err

    def test_the_limits_stop_a_wide_sweep_at_once(self, capsys):
        # the oracle suite at --max-r 12 would walk about 7^12 tuples
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "oracle", "--max-r", "12"])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1
        assert "MAX_SWEEP_TUPLES" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--max-r", "1000000"], ["--max-r", "100000"], ["--max-sum", "1" + "0" * 1500]],
        ids=["max-r-1e6", "max-r-1e5", "max-sum-1501-digits"],
    )
    def test_the_sweep_limit_stops_at_its_own_estimate(self, flags, capsys):
        # the count of admitted tuples is built one factor at a time and
        # stops once it passes the limit, so it is never a huge number
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "table", *flags])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "more than 70,000 tuples" in err and "MAX_SWEEP_TUPLES = 70,000" in err
        assert len(err) < 300

    @pytest.mark.parametrize(
        "argv",
        [
            ["integral", "--ks", "1" + "0" * 5000],
            ["integral", "--ks", "1,1" + "0" * 5000, "--method", "oracle"],
            ["bench", "--ks", "1" + "0" * 5000],
            ["poly", "--ks", "2,1" + "0" * 5000],
            ["bernoulli", "number", "1" + "0" * 5000],
            ["bernoulli", "poly", "1" + "0" * 5000],
        ],
        ids=["integral", "integral-last", "bench", "poly", "bernoulli-number",
             "bernoulli-poly"],
    )
    def test_a_long_index_is_refused_before_conversion(self, argv, capsys):
        # an index of five or more significant digits is above MAX_INDEX_SUM
        # on its own; Python would refuse to convert its 5,001 digits anyway
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "an index of 5,001 digits is above the limit MAX_INDEX_SUM = 1,000" in err
        assert len(err) < 300

    def test_padded_indices_run(self, capsys):
        assert cli.main(["integral", "--ks", "0" * 5000 + "2,1", "--upper", "2"]) == 0
        assert cli.main(["bernoulli", "number", "0" * 5000 + "1"]) == 0
        assert capsys.readouterr().out == f"{oracle_integral((2, 1), 2)}\n-1/2\n"

    def test_a_deep_recurrence_is_read_past_the_heads(self, capsys):
        # every depth above k_1 + ... + k_(r-1) gives the same value and work,
        # so a depth of thousands of digits runs as MAX_INDEX_SUM + 1
        start = time.perf_counter()
        for depth in ("9" * 5000, "0" * 5000 + "1001", "3"):
            argv = ["integral", "--ks", "1,2", "--upper", "1/2", "--method", f"recurrence:{depth}"]
            assert cli.main(argv) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == f"{oracle_integral((1, 2), F(1, 2))}\n" * 3

    @pytest.mark.parametrize("flag", ["--max-sum", "--max-r", "--reps"])
    def test_integer_flag_errors_give_a_digit_count(self, flag, capsys):
        command = ["bench", "--ks", "1,1"] if flag == "--reps" else ["verify", "--suite", "table"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, flag, "1" * 5000])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "5,000 digits are more than the 4,300" in err and len(err) < 300
        # leading zeros are not digits of the value
        args = cli.build_parser().parse_args([*command, flag, "0" * 5000 + "3"])
        assert vars(args)[flag[2:].replace("-", "_")] == 3


# what a cold `bernint integral` and `import bernint` must not import
LAZY_MODULES = ("bernint.verify", "dataclasses", "inspect", "statistics")


class TestColdStart:
    def test_integral_imports_only_what_it_runs(self, capsys):
        report = f"import sys; print(sorted(set(sys.modules) & {set(LAZY_MODULES)!r}))"
        integral = "\n".join([
            "from bernint import cli",
            "for method in ('closed', 'oracle', 'auto', 'recurrence:2'):",
            "    assert cli.main(['integral', '--ks', '2,3,1', '--method', method]) == 0",
            report,
        ])
        for program in (integral, "import bernint\n" + report):
            # -S: what a site-packages .pth file imports is not bernint's doing
            proc = subprocess.run([sys.executable, "-S", "-c", program],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]"

        # the suites still load, and name themselves, when `verify` needs them
        from bernint.verify import SUITES

        assert cli.main(["verify", "--suite", "oracle", "--max-sum", "3"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert all(name in help_text for name in SUITES)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "everything"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'everything'" in err
        assert all(repr(name) in err for name in SUITES)


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
            ["integral", "--ks", " 1 , 2"],
            ["integral", "--ks", "1,\t2"],
            ["integral", "--ks", "1,1", "--upper", " 2/3"],
            ["integral", "--ks", "1,1", "--upper", "2/3\u2003"],
        ],
    )
    def test_numbers_outside_ascii_digits_usage_error(self, argv, capsys):
        # int() takes any Unicode decimal digit, underscores, a plus sign and
        # surrounding whitespace, and the regex \d any Unicode decimal digit
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "bernint" in proc.stdout
