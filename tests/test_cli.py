"""Command-line contract: output formats, exit codes, config validation."""

import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from adaptlab import cli
from adaptlab.cli import load_experiment_config, main, section_defaults
from adaptlab.bounds import DecisionErrorBound
from adaptlab.engine import AdaptationEngine, CycleRecord, EngineConfig, run_experiment
from adaptlab.netsim import TOPOLOGY_PRESETS, EnvironmentWalk
from adaptlab.smc import SmcConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_run_config() -> dict:
    """The JSON config shown under the README's ``adaptlab run`` heading."""
    text = README.read_text(encoding="utf-8")
    return json.loads(text.split("### `adaptlab run")[1].split("```json\n")[1].split("```")[0])


def readme_bounds_args() -> list[str]:
    """The arguments of the command shown under the README's ``adaptlab bounds`` heading."""
    text = README.read_text(encoding="utf-8")
    command = text.split("### `adaptlab bounds")[1].split("```sh\n")[1].split("```")[0]
    return shlex.split(command.replace("\\\n", " "))[1:]


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "topology": "desk",
        "seed": 7,
        "output_csv": str(tmp_path / "out.csv"),
        "engine": {"warmup_cycles": 2, "total_cycles": 4},
        "smc": {"epsilon": 0.1, "alpha": 0.1},
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


class TestBoundsCommand:
    FLAGS = [
        "bounds",
        "--m", "2560", "--d", "23",
        "--empirical-risk", "6.0", "--cutoff", "9.4", "--b-hat-w", "8.9", "--n", "256",
    ]

    def test_emits_every_field(self, capsys):
        assert main(self.FLAGS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "confidence_term", "risk_margin", "adjusted_risk_margin",
            "expected_risk_upper", "survival_prob", "n_feasible",
            "best_prediction", "cutoff", "error_bound", "min_probability",
        }
        assert payload["n_feasible"] == 256
        assert payload["error_bound"] == pytest.approx(
            math.sqrt(payload["expected_risk_upper"]) + 1.0, rel=1e-11
        )
        assert 0.0 <= payload["min_probability"] <= 1.0

    def test_values_are_12_significant_digits(self, capsys):
        main(self.FLAGS)
        payload = json.loads(capsys.readouterr().out)
        for key, value in payload.items():
            if isinstance(value, float):
                assert value == float(format(value, ".12g"))

    def test_module_entry_point_prints_what_main_prints(self, capsys):
        args = readme_bounds_args()
        assert args[0] == "bounds"
        assert main(args) == 0
        in_process = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "adaptlab.cli"]
        done = subprocess.run(command + args, capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, in_process, "")
        done = subprocess.run(command + args + ["--bogus", "1"], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert "unrecognized arguments: --bogus 1" in done.stderr

    def test_capacity_above_samples_is_usage_error(self, capsys):
        rc = main(["bounds", "--m", "50", "--d", "86",
                   "--empirical-risk", "6.0", "--cutoff", "9.4", "--b-hat-w", "8.9", "--n", "25"])
        assert rc == 2
        assert "d >= m" in capsys.readouterr().err

    def test_non_finite_and_out_of_range_flags_are_usage_errors(self, capsys):
        for flag, value in (
            ("--empirical-risk", "nan"),
            ("--empirical-risk", "inf"),
            ("--cutoff", "nan"),
            ("--cutoff", "inf"),
            ("--cutoff", "5"),  # below --b-hat-w 8.9
            ("--b-hat-w", "nan"),
            ("--u-q", "nan"),
            ("--epsilon", "1.5"),
            ("--epsilon", "nan"),
            ("--n", "0"),
            ("--n", "-3"),
        ):
            assert main(self.FLAGS + [flag, value]) == 2, (flag, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
        # finite bounds whose width, and so kappa, overflows
        assert main(self.FLAGS + ["--l-q=-1e308", "--u-q", "1e308"]) == 2
        assert "finite width" in capsys.readouterr().err

    def test_overflowing_counts_are_usage_errors(self, capsys):
        for flag in ("--m", "--n"):
            args = list(self.FLAGS)
            args[args.index(flag) + 1] = str(10**400)
            assert main(args) == 2, flag
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_count_too_large_for_a_float_names_its_flag(self, capsys):
        for flag in ("--m", "--n"):
            args = list(self.FLAGS)
            args[args.index(flag) + 1] = str(10**400)
            assert main(args) == 2, flag
            assert f"error: {flag} is too large" in capsys.readouterr().err

    def test_eta_whose_quarter_underflows_is_named(self, capsys):
        # eta / 4 rounds to 0, so ln(eta / 4) has no value
        assert main(self.FLAGS + ["--eta", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eta 5e-324 is too small")

    def test_non_finite_bound_is_usage_error(self, capsys):
        assert main(self.FLAGS + ["--u-q", "1e200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the bound is not finite")

    def test_every_flag_is_honoured(self, capsys):
        rc = main([
            "bounds", "--m", "5000", "--d", "10", "--eta", "0.02",
            "--epsilon", "0.05", "--alpha", "0.2",
            "--l-q", "0", "--u-q", "1",
            "--empirical-risk", "0.25", "--cutoff", "0.9", "--b-hat-w", "0.4",
            "--n", "12",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cutoff"] == 0.9
        assert payload["best_prediction"] == 0.4
        # kappa = epsilon * (u_q - l_q) = 0.05 * 1 shifts the error bound additively
        assert payload["error_bound"] == pytest.approx(
            math.sqrt(payload["expected_risk_upper"]) + 0.05, rel=1e-11
        )

    def test_kappa_is_epsilon_times_the_domain_width(self, capsys):
        for u_q, kappa in (("100", 1.0), ("50", 0.5)):
            assert main(self.FLAGS + ["--epsilon", "0.01", "--u-q", u_q]) == 0, u_q
            payload = json.loads(capsys.readouterr().out)
            assert payload["error_bound"] - math.sqrt(payload["expected_risk_upper"]) == pytest.approx(kappa, rel=1e-9)

    def test_kappa_scale_flag_is_gone(self, capsys):
        for args in (self.FLAGS, ["smc-selftest", "--repetitions", "1"]):
            with pytest.raises(SystemExit) as exit_info:
                main(args + ["--kappa-scale", "10"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --kappa-scale" in captured.err


class TestRunCommand:
    def test_csv_contract(self, tmp_path, capsys):
        config_path, config = write_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == (
            "cycle,reduced_size,cutoff,b_hat_w,selected_id,B_r,B_w,measured_error,"
            "error_bound,min_probability,empirical_risk,bound_holds"
        )
        assert len(lines) == 1 + 4
        warm = lines[1].split(",")
        post = lines[3].split(",")
        # warm-up rows leave reduction/bound cells empty but keep the risk
        assert warm[2] == "" and warm[3] == "" and warm[8] == "" and warm[9] == "" and warm[11] == ""
        assert warm[10] != ""
        assert post[2] != "" and post[8] != "" and post[11] in ("true", "false")
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == [
            "cycles", "warmup_cycles", "post_warmup_cycles", "bound_applicable_cycles",
            "min_measured_error", "max_measured_error", "mean_measured_error", "std_measured_error",
            "bound_holds_fraction", "vacuous_bound_cycles", "mean_min_probability",
        ]
        assert summary["cycles"] == 4
        assert summary["post_warmup_cycles"] == 2
        assert summary["bound_holds_fraction"] is not None
        bounded = [cells for cells in (line.split(",") for line in lines[3:]) if cells[8] != ""]
        assert summary["bound_applicable_cycles"] == len(bounded) > 0
        assert summary["mean_min_probability"] == cli._sig(math.fsum(float(c[9]) for c in bounded) / len(bounded))

    @pytest.mark.parametrize("topology", ["desk", "full"])
    def test_cutoff_and_b_hat_w_cells_come_from_the_bound_after_warmup(self, tmp_path, topology):
        config = EngineConfig(warmup_cycles=2, total_cycles=4, smc=SmcConfig(epsilon=0.1, alpha=0.1))
        records = run_experiment(TOPOLOGY_PRESETS[topology](), config, base_seed=7)
        cli.write_records_csv(records, str(tmp_path / "out.csv"))
        rows = list(csv.DictReader((tmp_path / "out.csv").read_text().splitlines()))
        for record, row in zip(records, rows, strict=True):
            if record.cycle <= config.warmup_cycles:
                assert record.bound is None
                assert row["cutoff"] == row["b_hat_w"] == ""
            else:
                assert record.bound is not None
                assert row["cutoff"] == format(record.bound.cutoff, ".12g")
                assert row["b_hat_w"] == format(record.bound.best_prediction, ".12g")

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        first, _ = write_config(tmp_path, name="a.json", output_csv=str(tmp_path / "a.csv"))
        second, _ = write_config(tmp_path, name="b.json", output_csv=str(tmp_path / "b.csv"))
        assert main(["run", str(first)]) == 0
        out_a = capsys.readouterr().out
        assert main(["run", str(second)]) == 0
        out_b = capsys.readouterr().out
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert out_a == out_b

    def test_warmup_only_run_has_empty_bound_columns(self, tmp_path, capsys):
        config_path, _ = write_config(
            tmp_path, engine={"warmup_cycles": 2, "total_cycles": 2}
        )
        assert main(["run", str(config_path)]) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[2] == "" and cells[3] == ""
            assert cells[8] == "" and cells[9] == "" and cells[11] == ""

    def test_summary_file_is_written_when_asked(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, output_summary=str(tmp_path / "summary.json"))
        assert main(["run", str(config_path)]) == 0
        stdout_summary = json.loads(capsys.readouterr().out)
        file_summary = json.loads((tmp_path / "summary.json").read_text())
        assert file_summary == stdout_summary

    def test_rejects_unknown_keys(self, tmp_path, capsys):
        for overrides in (
            dict(bogus=1),
            dict(engine={"warmup_cycles": 2, "total_cycles": 4, "bogus": 1}),
            dict(smc={"epsilon": 0.1, "bogus": 1}),
            dict(walk={"bogus": 1}),
        ):
            config_path, _ = write_config(tmp_path, **overrides)
            assert main(["run", str(config_path)]) == 2
            assert "bogus" in capsys.readouterr().err
        for section in ("engine", "smc", "walk"):
            config_path, _ = write_config(tmp_path, **{section: [1]})
            assert main(["run", str(config_path)]) == 2
            assert f"{section} section must be an object" in capsys.readouterr().err

    def test_rejects_missing_seed(self, tmp_path, capsys):
        config = {"topology": "desk", "output_csv": str(tmp_path / "x.csv")}
        path = tmp_path / "no-seed.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_rejects_bad_seed_types(self, tmp_path, capsys):
        for bad in (True, -1, 2**64, "42"):
            config_path, _ = write_config(tmp_path, seed=bad)
            assert main(["run", str(config_path)]) == 2
            capsys.readouterr()
        # section fields follow the same rule: the type of the field's default
        # decides, and nothing is coerced
        for section, key, bad in (
            ("smc", "epsilon", "0.2"),
            ("smc", "kappa_scale", True),
            ("smc", "kappa_scale", 1.0),  # run reports loss in percent: only 100 fits
            ("smc", "kappa_scale", 99.0),
            ("smc", "kappa_scale", "100"),
            ("engine", "workers", 1.0),
            ("engine", "workers", 2),
            ("engine", "eta", math.nan),
            ("engine", "eta", 10**400),
            ("engine", "warmup_cycles", 2.0),
            ("engine", "evaluation_mode", 1),
            ("engine", "evaluation_mode", False),
            ("engine", "evaluation_mode", "true"),
            ("walk", "interference_step", "0.5"),
            ("walk", "load_step", math.inf),
        ):
            config_path, _ = write_config(tmp_path, **{section: {key: bad}})
            assert main(["run", str(config_path)]) == 2
            assert f"{section}.{key} must be" in capsys.readouterr().err
        # a pinned key's message spells its one value as JSON
        for section, key, bad, value in (
            ("engine", "workers", 2, "1"),
            ("engine", "evaluation_mode", False, "true"),
            ("smc", "kappa_scale", 99.0, "100.0"),
        ):
            config_path, _ = write_config(tmp_path, **{section: {key: bad}})
            assert main(["run", str(config_path)]) == 2
            assert capsys.readouterr().err == (
                f"error: {section}.{key} must be {value}, the one value of a deleted setting\n"
            )

    def test_rejects_unknown_topology(self, tmp_path, capsys):
        for bad in ("mesh", ["desk"]):
            config_path, _ = write_config(tmp_path, topology=bad)
            assert main(["run", str(config_path)]) == 2
            assert "topology" in capsys.readouterr().err

    def test_rejects_unreadable_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        (tmp_path / "broken.json").write_text("{not json")
        assert main(["run", str(tmp_path / "broken.json")]) == 2
        capsys.readouterr()
        (tmp_path / "list.json").write_text(json.dumps([{"topology": "desk", "seed": 7, "output_csv": "out.csv"}]))
        assert main(["run", str(tmp_path / "list.json")]) == 2
        assert capsys.readouterr() == ("", "error: config root must be a JSON object\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.json", "list.json"]

    def test_rejects_one_path_for_both_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        previous = b"cycle\n1\n"
        (tmp_path / "out.csv").write_bytes(previous)
        for csv_path, summary_path in (
            ("out.csv", "out.csv"),
            ("out.csv", "./out.csv"),
            (str(tmp_path / "out.csv"), "out.csv"),
        ):
            config_path, _ = write_config(tmp_path, output_csv=csv_path, output_summary=summary_path)
            assert main(["run", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "different files" in captured.err
        for key, bad, message in (
            ("output_csv", "", "output_csv must be a nonempty path string"),
            ("output_csv", 7, "output_csv must be a nonempty path string"),
            ("output_summary", "", "output_summary must be a nonempty path string when given"),
            ("output_summary", ["summary.json"], "output_summary must be a nonempty path string when given"),
        ):
            config_path, _ = write_config(tmp_path, **{key: bad})
            assert main(["run", str(config_path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert (tmp_path / "out.csv").read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out.csv"]

    def test_rejects_invalid_walk(self, tmp_path, capsys):
        for walk, message in (
            ({"load_step": -0.1}, "walk load_step must be finite and nonnegative"),
            ({"load_min": 0.5}, "unknown walk keys: load_min"),  # the ranges are fixed
        ):
            config_path, _ = write_config(tmp_path, walk=walk)
            assert main(["run", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_alpha_whose_run_count_overflows_is_named(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, smc={"epsilon": 0.1, "alpha": 1e-320})
        assert main(["run", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha 1e-320 is too small")
        assert not (tmp_path / "out.csv").exists()

    def test_eta_whose_quarter_underflows_fails_at_load(self, tmp_path, capsys, monkeypatch):
        def never(self):
            raise AssertionError("no cycle may run")

        monkeypatch.setattr(AdaptationEngine, "run_cycle", never)
        config_path, _ = write_config(tmp_path, engine={"warmup_cycles": 2, "total_cycles": 4, "eta": 5e-324})
        assert main(["run", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: eta 5e-324 is too small: eta / 4 underflows to 0, and ln(eta / 4) is not finite\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_failed_write_leaves_no_partial_output(self, tmp_path, capsys):
        config_path, _ = write_config(
            tmp_path,
            output_summary=str(tmp_path / "no-such-dir" / "summary.json"),
        )
        assert main(["run", str(config_path)]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_missing_output_directory_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_experiment must not start")

        monkeypatch.setattr(cli, "run_experiment", never)
        for key, target in (
            ("output_csv", tmp_path / "no-such-dir" / "out.csv"),
            ("output_summary", tmp_path / "no-such-dir" / "summary.json"),
        ):
            config_path, _ = write_config(tmp_path, **{key: str(target)})
            assert main(["run", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{key} directory does not exist: {target.parent}" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failed_publish_removes_its_temporaries(self, tmp_path, capsys, monkeypatch):
        # The CSV's temporary is complete when the summary's write fails half way.
        def broken_summary(summary, path):
            Path(path).write_text("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_summary", broken_summary)
        previous = b"cycle\n1\n"
        (tmp_path / "out.csv").write_bytes(previous)
        config_path, _ = write_config(tmp_path, output_summary=str(tmp_path / "summary.json"))
        assert main(["run", str(config_path)]) == 2
        assert capsys.readouterr().out == ""
        assert (tmp_path / "out.csv").read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out.csv"]

    def test_output_naming_a_directory_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_experiment must not start")

        monkeypatch.setattr(cli, "run_experiment", never)
        previous = b"cycle\n1\n"
        (tmp_path / "out.csv").write_bytes(previous)
        (tmp_path / "sumdir").mkdir()
        for key, target in (("output_summary", tmp_path / "sumdir"), ("output_csv", tmp_path / "sumdir")):
            config_path, _ = write_config(tmp_path, **{key: str(target)})
            assert main(["run", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{key} names a directory, not a file: {target}" in captured.err
        assert (tmp_path / "out.csv").read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out.csv", "sumdir"]
        assert not list((tmp_path / "sumdir").iterdir())

    def test_workers_other_than_one_is_usage_error(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, engine={"warmup_cycles": 2, "total_cycles": 4, "workers": 2})
        assert main(["run", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be 1" in captured.err
        assert not (tmp_path / "out.csv").exists()

    def test_pinned_keys_load_at_their_one_value(self, tmp_path):
        """engine.workers, engine.evaluation_mode and smc.kappa_scale name
        deleted settings; older configs may still set each to the one value
        it allowed, which changes nothing. An integer 100 is that number too."""
        engine = {"warmup_cycles": 2, "total_cycles": 4}
        config_path, _ = write_config(
            tmp_path, engine={**engine, "workers": 1, "evaluation_mode": True}, smc={"epsilon": 0.1, "kappa_scale": 100}
        )
        pinned = load_experiment_config(str(config_path))
        config_path, _ = write_config(tmp_path, engine=engine, smc={"epsilon": 0.1})
        assert pinned == load_experiment_config(str(config_path))

    def test_failed_run_keeps_existing_output(self, tmp_path, capsys):
        previous = b"cycle\n1\n"
        (tmp_path / "out.csv").write_bytes(previous)
        config_path, _ = write_config(
            tmp_path,
            output_summary=str(tmp_path / "no-such-dir" / "summary.json"),
        )
        assert main(["run", str(config_path)]) == 2
        assert (tmp_path / "out.csv").read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out.csv"]

    def test_readme_example_matches_the_loader(self):
        """The README's run config lists every accepted key at its default."""
        config = readme_run_config()
        sections = {"engine": EngineConfig, "smc": SmcConfig, "walk": EnvironmentWalk}
        for name, cls in sections.items():
            assert config[name] == section_defaults(cls), name
        assert set(config) == {"topology", "seed", "output_csv", "output_summary", *sections}

    def test_readme_example_loads_to_the_defaults(self, tmp_path):
        """The README says the sections default to the values it shows."""
        config = readme_run_config()
        config.update(output_csv=str(tmp_path / "cycles.csv"), output_summary=str(tmp_path / "summary.json"))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(config))
        spec = load_experiment_config(str(path))
        assert spec.engine == EngineConfig()
        assert spec.engine.smc == SmcConfig()
        assert spec.walk == EnvironmentWalk()


def hand_record(cycle, error_bound=None, *, b_w, b_worst):
    """A cycle record with the given bound (none, as in warm-up, by default) and oracle spread;
    the other cells are placeholders."""
    bound = None
    if error_bound is not None:
        bound = DecisionErrorBound(
            confidence_term=0.1, risk_margin=1.0, adjusted_risk_margin=1.0, expected_risk_upper=1.0,
            survival_prob=0.5, n_feasible=1, best_prediction=0.0, cutoff=1.0,
            error_bound=error_bound, min_probability=0.5,
        )
    return CycleRecord(
        cycle=cycle, reduced_size=1, selected_id=0, b_r=b_w, b_w=b_w, b_worst=b_worst, measured_error=0.0,
        bound=bound, empirical_risk=1.0, bound_holds=None if bound is None else 0.0 <= error_bound,
    )


class TestSummary:
    def test_counts_the_post_warmup_cycles_whose_bound_spans_best_to_worst(self):
        records = [
            hand_record(1, b_w=1.0, b_worst=2.0),          # warm-up: no bound, not counted
            hand_record(2, 10.0, b_w=5.0, b_worst=14.99),  # vacuous
            hand_record(3, 10.0, b_w=5.0, b_worst=15.0),   # vacuous: the bound equals the spread
            hand_record(4, 10.0, b_w=5.0, b_worst=15.01),  # informative
        ]
        assert cli.summarize_records(records, warmup_cycles=1)["vacuous_bound_cycles"] == 2
        assert cli.summarize_records(records[:1] + records[3:], warmup_cycles=1)["vacuous_bound_cycles"] == 0


class TestSelftestCommand:
    def test_passes_and_reports(self, capsys):
        rc = main(["smc-selftest", "--epsilon", "0.06", "--alpha", "0.1",
                   "--repetitions", "40", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["repetitions"] == 40

    def test_reports_are_byte_identical(self, capsys):
        args = ["smc-selftest", "--epsilon", "0.06", "--repetitions", "30", "--seed", "12"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_zero_repetitions_is_usage_error(self, capsys):
        assert main(["smc-selftest", "--repetitions", "0"]) == 2
        assert "repetitions" in capsys.readouterr().err

    def test_seed_outside_64_bits_is_usage_error(self, capsys):
        for seed in ("-1", str(2**64)):
            assert main(["smc-selftest", "--repetitions", "10", "--seed", seed]) == 2, seed
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--seed" in captured.err
        assert main(["smc-selftest", "--epsilon", "0.06", "--repetitions", "10", "--seed", str(2**64 - 1)]) == 0

    def test_underflowing_epsilon_is_usage_error(self, capsys):
        assert main(["smc-selftest", "--epsilon", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_epsilon_whose_run_count_overflows_is_named(self, capsys):
        # 1e-300 squared underflows to 0; 1e-160 squared does not, but the
        # Hoeffding count it gives is infinite
        for epsilon in ("1e-300", "1e-160"):
            assert main(["smc-selftest", "--epsilon", epsilon, "--repetitions", "1"]) == 2, epsilon
            assert f"error: epsilon {float(epsilon)!r} is too small" in capsys.readouterr().err

    def test_alpha_whose_run_count_overflows_is_named(self, capsys):
        # 2 / (alpha / 2) overflows at 1e-320, and alpha / 2 underflows to 0 at 5e-324
        for alpha in ("1e-320", "5e-324"):
            assert main(["smc-selftest", "--alpha", alpha, "--repetitions", "3"]) == 2, alpha
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: alpha {alpha} is too small"), alpha

    def test_run_that_needs_more_memory_than_is_available_is_usage_error(self, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.79 GiB")

        monkeypatch.setattr(cli, "coverage_experiment", too_large)
        assert main(["smc-selftest", "--epsilon", "1e-8", "--repetitions", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the run needs more memory than is available (a smaller epsilon asks for more runs)\n"
        )

    def test_threshold_that_any_coverage_passes_is_usage_error(self, capsys):
        # at alpha 0.9, 50 repetitions put the threshold at -0.027: a coverage of 0 would pass
        assert main(["smc-selftest", "--alpha", "0.9", "--repetitions", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: repetitions 50 are too few at alpha 0.9")

    def test_bad_mean_is_usage_error(self, capsys):
        assert main(["smc-selftest", "--mean", "1.5", "--repetitions", "10"]) == 2
