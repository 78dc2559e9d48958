import json
import os
import re
import subprocess
import sys
from pathlib import Path

import blochtower
from blochtower import cli
from blochtower.cli import MAX_LEVELS, main
from blochtower.finite_field import SYMBOLIC_BASES
from blochtower.laurent import MAX_PRECISION, MAX_SAMPLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestPrebloch:
    def test_q5(self, capsys):
        code, report = run_json(capsys, "prebloch", "--q", "5")
        assert code == 0
        assert report["schema"] == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["bloch_invariants"]["integral"] == {"factors": [3], "free_rank": 0}
        assert by_name["prebloch_invariants"]["odd"] == {"factors": [3], "free_rank": 0}

    def test_q4_even(self, capsys):
        code, report = run_json(capsys, "prebloch", "--q", "4")
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["bloch_invariants"]["integral"] == {"factors": [5], "free_rank": 0}

    def test_extension_field_spelling(self, capsys):
        code, report = run_json(capsys, "prebloch", "--q", "3^2")
        assert code == 0
        assert report["config"]["q"] == "3^2"

    def test_invalid_q_exits_2(self, capsys):
        assert main(["prebloch", "--q", "1"]) == 2
        assert main(["prebloch", "--q", "6"]) == 2
        capsys.readouterr()

    def test_missing_argument_exits_2(self):
        assert main(["prebloch"]) == 2

    def test_oversize_prime_refused_before_trial_division(self, capsys, monkeypatch):
        def no_trial_division(n):
            raise AssertionError("trial division started")

        monkeypatch.setattr("blochtower.finite_field.factorize", no_trial_division)
        assert main(["prebloch", "--q", "2305843009213693951"]) == 2
        assert "q = 2305843009213693951 exceeds the bound" in capsys.readouterr().err

    def test_oversize_power_refused_before_it_is_computed(self, capsys):
        # 3^20000000 has about 9.5 million digits: computing it, let alone
        # printing it, takes seconds
        assert main(["prebloch", "--q", "3^20000000"]) == 2
        assert "q = 3^20000000 exceeds the bound" in capsys.readouterr().err


class TestVerify:
    def test_all_pass_q7(self, capsys):
        code, report = run_json(capsys, "verify", "--q", "7", "--suite", "all")
        assert code == 0
        assert report["status"] == "ok"
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_char3_constants(self, capsys):
        code, report = run_json(capsys, "verify", "--q", "9", "--suite", "constants")
        assert code == 0

    def test_lambda_sweep_q31(self, capsys):
        code, report = run_json(capsys, "verify", "--q", "31", "--suite", "lambda")
        assert code == 0
        assert report["checks"][0]["checked"] == 29 * 28

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--q", "5", "--suite", "bogus"]) == 2

    def test_help_lists_every_sweep(self, capsys, monkeypatch):
        # an added sweep shows up in the help without a second edit
        monkeypatch.setattr(cli, "SWEEPS", {**cli.SWEEPS, "extra": ()})
        code, out = run(capsys, "verify", "--help")
        assert code == 0
        choices = re.search(r"--suite \{([^}]*)\}", out).group(1).split(",")
        assert choices == ["all", *cli.SWEEPS]


class TestLaurentFuzz:
    def test_small_run(self, capsys):
        code, report = run_json(
            capsys, "laurent-fuzz", "--q", "5", "--precision", "24", "--samples", "40", "--seed", "0"
        )
        assert code == 0
        fuzz = next(c for c in report["checks"] if c["name"] == "specialization_fuzz")
        assert fuzz["failures"] == []
        assert fuzz["seed"] == 0

    def test_zero_samples_vacuous(self, capsys):
        code, report = run_json(capsys, "laurent-fuzz", "--q", "5", "--samples", "0")
        assert code == 0

    def test_even_q_rejected(self, capsys):
        assert main(["laurent-fuzz", "--q", "4"]) == 2
        capsys.readouterr()

    def test_precision_bound(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli, "fuzz_specialization", no_sampling)
        assert main(["laurent-fuzz", "--q", "5", "--precision", str(MAX_PRECISION + 1), "--samples", "1"]) == 2
        assert f"exceeds the bound {MAX_PRECISION}" in capsys.readouterr().err

    def test_samples_bound(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli, "fuzz_specialization", no_sampling)
        assert main(["laurent-fuzz", "--q", "5", "--samples", str(MAX_SAMPLES + 1)]) == 2
        assert f"samples {MAX_SAMPLES + 1} exceeds the bound {MAX_SAMPLES}" in capsys.readouterr().err


class TestTower:
    def test_f5_two_levels(self, capsys):
        code, report = run_json(capsys, "tower", "--base", "5", "--levels", "2")
        assert code == 0
        deco = next(c for c in report["checks"] if c["name"] == "decomposition")
        assert deco["exponents"] == [2, 1]
        hypo = [c for c in report["checks"] if c["name"].startswith("hypothesis_")]
        assert len(hypo) == 6 and all(h["status"] == "verified" for h in hypo)
        census = next(c for c in report["checks"] if c["name"] == "eigenspace_census")
        assert census["status"] == "pass"

    def test_real_closed(self, capsys):
        code, report = run_json(capsys, "tower", "--base", "real-closed", "--levels", "2")
        assert code == 0
        deco = next(c for c in report["checks"] if c["name"] == "decomposition")
        assert all("invariants" not in s for s in deco["summands"])

    def test_zero_levels(self, capsys):
        code, report = run_json(capsys, "tower", "--base", "5", "--levels", "0")
        assert code == 0
        deco = next(c for c in report["checks"] if c["name"] == "decomposition")
        assert [s["kind"] for s in deco["summands"]] == ["K3ind-symbolic"]

    def test_levels_bound(self, capsys, monkeypatch):
        def no_ledger(*args, **kwargs):
            raise AssertionError("ledger started")

        monkeypatch.setattr("blochtower.tower.eigenspace_ledger", no_ledger)
        assert main(["tower", "--base", "5", "--levels", str(MAX_LEVELS + 1)]) == 2
        assert f"exceeds the bound {MAX_LEVELS}" in capsys.readouterr().err

    def test_help_lists_every_symbolic_base(self, capsys, monkeypatch):
        # an added base shows up in the help without a second edit
        monkeypatch.setattr(cli, "SYMBOLIC_BASES", {**SYMBOLIC_BASES, "henselian": 1})
        monkeypatch.setenv("COLUMNS", "400")  # keep argparse from wrapping at a hyphen
        code, out = run(capsys, "tower", "--help")
        assert code == 0
        for base in cli.SYMBOLIC_BASES:
            assert f'"{base}"' in out

    def test_even_base_flags_surjection(self, capsys):
        code, report = run_json(capsys, "tower", "--base", "2", "--levels", "1")
        assert code == 0  # reported, not an error
        deco = next(c for c in report["checks"] if c["name"] == "decomposition")
        assert deco["surjection_only"] is True


class TestReportContract:
    def strip_timing(self, report):
        return {k: v for k, v in report.items() if k != "timing"}

    def test_byte_determinism_modulo_timing(self, capsys):
        _, a = run_json(capsys, "laurent-fuzz", "--q", "5", "--samples", "20", "--seed", "42")
        _, b = run_json(capsys, "laurent-fuzz", "--q", "5", "--samples", "20", "--seed", "42")
        assert json.dumps(self.strip_timing(a)) == json.dumps(self.strip_timing(b))

    def test_tower_determinism(self, capsys):
        _, a = run_json(capsys, "tower", "--base", "5", "--levels", "2")
        _, b = run_json(capsys, "tower", "--base", "5", "--levels", "2")
        assert json.dumps(self.strip_timing(a)) == json.dumps(self.strip_timing(b))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(capsys, "prebloch", "--q", "5", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["command"] == "prebloch"

    def test_unwritable_out_exits_2(self, tmp_path):
        # a missing directory and a directory are refused like bad usage,
        # without a traceback: exit 1 means a failed check
        src = str(Path(blochtower.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for path in (tmp_path / "missing" / "report.json", tmp_path):
            proc = subprocess.run(
                [sys.executable, "-m", "blochtower.cli", "prebloch", "--q", "5", "--out", str(path)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith(f"error: cannot write report to {path}: "), proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    def test_text_format(self, capsys):
        code, out = run(capsys, "verify", "--q", "5", "--suite", "lambda", "--format", "text")
        assert code == 0
        assert "lambda_well_defined" in out

    def test_max_q_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCH_MAX_Q", "16")
        assert main(["prebloch", "--q", "17"]) == 2
        capsys.readouterr()

    def test_commands_stay_within_the_bound_of_their_field(self, tmp_path):
        # F_32 is inside a bound of 64 and F_1024 is not, so no command on F_32
        # may build its quadratic extension; a fresh process, since an earlier
        # test may already hold F_1024 in the field cache
        src = str(Path(blochtower.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, BLOCH_MAX_Q="64")
        for argv in (["verify", "--q", "32", "--suite", "df"], ["tower", "--base", "32", "--levels", "1"]):
            out = tmp_path / f"{argv[0]}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "blochtower.cli", *argv, "--out", str(out)], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(out.read_text())["status"] == "ok"

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "blochtower" in capsys.readouterr().out


class TestImports:
    def test_cli_start_up_skips_heavy_stdlib_modules(self):
        # each of these costs milliseconds per CLI process: dataclasses pulls
        # in inspect, and fractions pulls in decimal
        heavy = ("dataclasses", "inspect", "fractions", "decimal")
        script = (
            "import sys, blochtower.cli, blochtower.tower\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
        )
        src = str(Path(blochtower.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [], f"imported at start-up: {proc.stdout.strip()}"

    def test_tower_module_loaded_only_by_its_command(self, tmp_path):
        # laurent stays a module-level import: the traced benchmark reads it
        # from sys.modules right after importing the CLI
        script = (
            "import sys\n"
            "import blochtower.cli as cli\n"
            "assert 'blochtower.tower' not in sys.modules, 'tower imported with the CLI'\n"
            "assert 'blochtower.laurent' in sys.modules, 'laurent not imported with the CLI'\n"
            "code = cli.main(['tower', '--base', '5', '--levels', '2', '--out', sys.argv[1]])\n"
            "assert 'blochtower.tower' in sys.modules\n"
            "sys.exit(code)\n"
        )
        src = str(Path(blochtower.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "report.json"
        proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert {c["name"]: c["status"] for c in report["checks"]}["eigenspace_census"] == "pass"
