import json
import re

import jsonschema
import pytest

from localmem import cli, schemas
from localmem.cli import main
from localmem.errors import ConvergenceError
from localmem.partitions import PartitionSet
from localmem.posterior import BatchPosterior

TWO_STAGE_SPEC = {
    "baskets": 4,
    "max_sizes": 16,
    "theta0": 0.15,
    "theta1": 0.45,
    "delta": 2.0,
    "lambda": 0.977,
    "gamma": 0.70033,
    "stages": 2,
    "interim_sizes": 10,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


class TestAnalyze:
    def test_two_basket_example(self, tmp_path):
        cfg = write_config(
            tmp_path, "a.json", {"x": [0, 2], "n": [2, 2], "delta": 0.0, "theta0": 0.15}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        jsonschema.validate(report, schemas.ANALYSIS_REPORT)
        pooled = next(p for p in report["partitions"] if p["membership"] == "1|1")
        assert pooled["weight"] == pytest.approx(3 / 13, abs=1e-9)
        assert report["top_partition"]["membership"] == "1|2"
        assert (tmp_path / "out" / "analysis_baskets.csv").exists()
        assert (tmp_path / "out" / "analysis_partitions.csv").exists()

    def test_empty_baskets_report_prior(self, tmp_path):
        cfg = write_config(
            tmp_path, "a.json", {"x": [0, 0], "n": [0, 0], "delta": 1.0, "theta0": 0.15}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        for row in report["partitions"]:
            assert row["weight"] == pytest.approx(row["prior"], abs=1e-12)
        for basket in report["baskets"]:
            assert basket["ess"] == pytest.approx(2.0, abs=1e-9)

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["analyze", "--config", path, "--out", tmp_path]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "a.json",
            {"x": [1], "n": [2], "delta": 0.0, "theta0": 0.15, "typo_key": 1},
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 2

    def test_missing_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", {"x": [1], "n": [2], "delta": 0.0})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 2

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(cli, "analyze", fail)
        cfg = write_config(
            tmp_path, "a.json", {"x": [1], "n": [2], "delta": 0.0, "theta0": 0.15}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 3

    def test_inconsistent_counts_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path, "a.json", {"x": [5], "n": [2], "delta": 0.0, "theta0": 0.15}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_exits_2(self, tmp_path, delta):
        cfg = write_config(
            tmp_path, "a.json", {"x": [1, 2], "n": [4, 4], "delta": delta, "theta0": 0.15}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("theta0", [0, 1.2])
    def test_theta0_outside_unit_interval_exits_2(self, tmp_path, theta0):
        cfg = write_config(
            tmp_path, "a.json", {"x": [1, 2], "n": [4, 4], "delta": 0.0, "theta0": theta0}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 2
        assert not (tmp_path / "analysis.json").exists()


class TestMonitor:
    def test_interim_all_zero_stops_everything(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {"spec": TWO_STAGE_SPEC, "stage": 1, "x": [0, 0, 0, 0], "n": [10, 10, 10, 10]},
        )
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "monitor.json").read_text())
        jsonschema.validate(report, schemas.MONITOR_REPORT)
        assert all(b["decision"] == "futility-stopped" for b in report["baskets"])
        assert report["boundary"]["applied"] == "q1"
        assert report["boundary"]["q1"] == pytest.approx(0.703, abs=5e-4)

    def test_interim_strong_basket_continues(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {"spec": TWO_STAGE_SPEC, "stage": 1, "x": [0, 0, 0, 8], "n": [10, 10, 10, 10]},
        )
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "monitor.json").read_text())
        assert [b["decision"] for b in report["baskets"]] == [
            "futility-stopped",
            "futility-stopped",
            "futility-stopped",
            "continue",
        ]

    def test_stage2_decisions(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {
                "spec": TWO_STAGE_SPEC,
                "stage": 2,
                "x": [0, 9, 8, 9],
                "n": [10, 16, 16, 16],
                "active": [False, True, True, True],
            },
        )
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "monitor.json").read_text())
        jsonschema.validate(report, schemas.MONITOR_REPORT)
        assert report["baskets"][0]["decision"] == "futility-stopped"
        assert report["top_partition"]["basket_ids"] == ["B", "C", "D"]
        for basket in report["baskets"][1:]:
            assert basket["decision"] in ("efficacious", "not-promising")

    @pytest.mark.parametrize(
        "look",
        [
            {"stage": 1, "x": [0, 3, 1, 8], "n": [10, 10, 10, 10]},
            {"stage": 2, "x": [0, 9, 4, 9], "n": [10, 16, 16, 16], "active": [False, True, True, True]},
        ],
    )
    def test_one_analysis_per_look(self, tmp_path, monkeypatch, look):
        # The decisions and the reported probabilities come from one engine
        # over one partition set.
        engines, psets = [], []
        engine_init = BatchPosterior.__init__
        pset_build = PartitionSet.build.__func__

        def counting_init(self, *args, **kwargs):
            engines.append(args)
            engine_init(self, *args, **kwargs)

        def counting_build(cls, *args, **kwargs):
            psets.append(args)
            return pset_build(cls, *args, **kwargs)

        monkeypatch.setattr(BatchPosterior, "__init__", counting_init)
        monkeypatch.setattr(PartitionSet, "build", classmethod(counting_build))
        cfg = write_config(tmp_path, "m.json", dict(look, spec=TWO_STAGE_SPEC))
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert len(engines) == 1 and len(psets) == 1
        report = json.loads((tmp_path / "out" / "monitor.json").read_text())
        analyzed = [b for b in report["baskets"] if "prob_exceeds" in b]
        assert [b["id"] for b in analyzed] == report["top_partition"]["basket_ids"]
        assert len(analyzed) == (4 if look["stage"] == 1 else 3)
        q1, q2 = report["boundary"]["q1"], report["boundary"]["q2"]
        for basket in analyzed:
            if look["stage"] == 1:
                expect = "continue" if basket["prob_exceeds"] > q1 else "futility-stopped"
            else:
                expect = "efficacious" if basket["prob_exceeds"] > q2 else "not-promising"
            assert basket["decision"] == expect

    def test_stopped_basket_in_active_set_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {
                "spec": TWO_STAGE_SPEC,
                "stage": 2,
                "x": [0, 9, 8, 9],
                "n": [10, 16, 16, 16],
                "active": [True, True, True, True],
            },
        )
        assert run(["monitor", "--config", cfg, "--out", tmp_path]) == 2

    def test_stopped_basket_past_interim_size_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "m.json",
            {
                "spec": TWO_STAGE_SPEC,
                "stage": 2,
                "x": [0, 9, 8, 9],
                "n": [16, 16, 16, 16],
                "active": [False, True, True, True],
            },
        )
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "basket 0 is listed as stopped" in err and "expected its interim size 10" in err
        assert not (tmp_path / "out").exists()

    def test_wrong_interim_sizes_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {"spec": TWO_STAGE_SPEC, "stage": 1, "x": [0, 0, 0, 0], "n": [9, 10, 10, 10]},
        )
        assert run(["monitor", "--config", cfg, "--out", tmp_path]) == 2


def _reports(out_dir):
    """Every file a command wrote, with the config hash blanked out."""
    blobs = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            doc = json.loads(text)
            doc["meta"]["config_hash"] = None
            text = json.dumps(doc, sort_keys=True)
        else:
            text = re.sub(r"config_hash=\w+", "config_hash=-", text)
        blobs[path.name] = text
    return blobs


class TestIntegralFloats:
    # JSON Schema's "integer" accepts 4.0, so such a config must run as the
    # integer one does and report ints.
    @pytest.mark.parametrize(
        "command, config, floats",
        [
            (
                "monitor",
                {"spec": TWO_STAGE_SPEC, "stage": 1, "x": [0, 3, 1, 8], "n": [10, 10, 10, 10]},
                {"spec": dict(TWO_STAGE_SPEC, baskets=4.0, max_sizes=16.0, interim_sizes=10.0),
                 "stage": 1.0, "x": [0.0, 3, 1, 8.0]},
            ),
            (
                "simulate",
                {"spec": TWO_STAGE_SPEC, "n_sims": 50, "seed": 7},
                {"n_sims": 50.0, "seed": 7.0},
            ),
        ],
    )
    def test_same_reports_as_integer_config(self, tmp_path, command, config, floats):
        blobs = []
        for name, doc in (("int", config), ("float", dict(config, **floats))):
            cfg = write_config(tmp_path, f"{name}.json", doc)
            assert run([command, "--config", cfg, "--out", tmp_path / name]) == 0
            blobs.append(_reports(tmp_path / name))
        assert blobs[0] == blobs[1]


class TestSimulate:
    def simulate_config(self):
        return {"spec": dict(TWO_STAGE_SPEC), "scenarios": "suite", "n_sims": 200, "seed": 31}

    def test_suite_csv_layout(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", self.simulate_config())
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "simulation.json").read_text())
        jsonschema.validate(report, schemas.SIMULATION_REPORT)
        lines = (tmp_path / "out" / "simulation.csv").read_text().splitlines()
        assert lines[0].startswith("# command=simulate")
        header = lines[1].split(",")
        assert header == [
            "label",
            "reject_A", "reject_B", "reject_C", "reject_D",
            "fwer", "trialwise_power",
            "en_A", "en_B", "en_C", "en_D",
        ]
        assert len(lines) == 2 + 5  # metadata + header + one row per scenario
        assert lines[2].startswith("0 success")
        last = lines[6].split(",")
        assert last[0] == "4 success" and last[5] == "-"  # fwer absent

    def test_byte_identical_across_workers(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", self.simulate_config())
        outputs = []
        for i, workers in enumerate((1, 4)):
            out = tmp_path / f"out{i}"
            assert run(["simulate", "--config", cfg, "--out", out, "--workers", workers]) == 0
            outputs.append((out / "simulation.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_repetition_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", self.simulate_config())
        blobs = []
        for i in range(2):
            out = tmp_path / f"rep{i}"
            assert run(["simulate", "--config", cfg, "--out", out]) == 0
            blobs.append((out / "simulation.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_explicit_scenarios_and_seed_flag(self, tmp_path):
        config = {
            "spec": dict(TWO_STAGE_SPEC),
            "scenarios": [{"label": "alt", "true_rates": [0.45, 0.45, 0.45, 0.45]}],
            "n_sims": 100,
            "seed": 1,
        }
        cfg = write_config(tmp_path, "s.json", config)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o", "--seed", 99]) == 0
        report = json.loads((tmp_path / "o" / "simulation.json").read_text())
        assert report["meta"]["seed"] == 99
        assert report["scenarios"][0]["fwer"] is None

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"spec": dict(TWO_STAGE_SPEC), "n_sims": 10})
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2

    def test_zero_workers_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", self.simulate_config())
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out", "--workers", 0]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["gamma", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_spec_value_exits_2(self, tmp_path, field, value):
        config = self.simulate_config()
        config["spec"][field] = value
        cfg = write_config(tmp_path, "s.json", config)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()


class TestCalibrate:
    def test_small_grid_round_trip(self, tmp_path):
        spec = dict(TWO_STAGE_SPEC)
        del spec["lambda"], spec["gamma"]
        config = {
            "spec": spec,
            "fwer_target": 0.10,
            "lambda_grid": [0.97, 0.977, 0.985],
            "gamma_grid": [0.5, 0.7],
            "n_sims": 300,
            "seed": 7,
        }
        cfg = write_config(tmp_path, "c.json", config)
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "calibration.json").read_text())
        jsonschema.validate(report, schemas.CALIBRATION_REPORT)
        assert report["achieved_fwer"] <= 0.10
        assert report["boundary"]["q2"] == report["lambda"]
        frontier = (tmp_path / "out" / "calibration_frontier.csv").read_text().splitlines()
        assert frontier[1] == "lambda,gamma,fwer,power"

    def small_grid_config(self, seed):
        spec = dict(TWO_STAGE_SPEC)
        del spec["lambda"], spec["gamma"]
        return {
            "spec": spec,
            "lambda_grid": [0.97, 0.977],
            "gamma_grid": [0.5, 0.7],
            "n_sims": 200,
            "seed": seed,
        }

    def test_largest_seed_wraps_evaluation_seed(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.small_grid_config(2**64 - 1))
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "calibration.json").read_text())
        assert report["meta"]["seed"] == 2**64 - 1
        assert report["evaluation"]["seed"] == 0

    def test_out_of_range_seed_flag_exits_2_before_work(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("calibration ran with an invalid seed")

        monkeypatch.setattr(cli, "calibrate", unreachable)
        cfg = write_config(tmp_path, "c.json", self.small_grid_config(7))
        assert run(["calibrate", "--config", cfg, "--out", tmp_path, "--seed", -1]) == 2
        assert run(["calibrate", "--config", cfg, "--out", tmp_path, "--seed", 2**64]) == 2

    @pytest.mark.parametrize("gamma_grid", [[float("nan"), 0.5], [float("inf")]])
    def test_non_finite_gamma_grid_exits_2(self, tmp_path, gamma_grid):
        config = self.small_grid_config(7)
        config["gamma_grid"] = gamma_grid
        cfg = write_config(tmp_path, "c.json", config)
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    def test_infeasible_exits_1(self, tmp_path):
        spec = dict(TWO_STAGE_SPEC)
        del spec["lambda"], spec["gamma"]
        config = {
            "spec": spec,
            "fwer_target": 0.0,
            "lambda_grid": [0.5],
            "gamma_grid": [0.0],
            "n_sims": 200,
            "seed": 7,
        }
        cfg = write_config(tmp_path, "c.json", config)
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 1

    def test_fixed_design_calibration(self, tmp_path):
        config = {
            "spec": {
                "baskets": 2,
                "max_sizes": 19,
                "theta0": 0.15,
                "theta1": 0.45,
                "delta": 2.0,
                "stages": 1,
            },
            "lambda_grid": [0.95, 0.97, 0.99],
            "n_sims": 300,
            "seed": 5,
        }
        cfg = write_config(tmp_path, "c.json", config)
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "calibration.json").read_text())
        assert report["gamma"] == 0.0

    def test_single_stage_frontier_ignores_gamma_grid(self, tmp_path):
        config = {
            "spec": {
                "baskets": 2,
                "max_sizes": 19,
                "theta0": 0.15,
                "theta1": 0.45,
                "delta": 2.0,
                "stages": 1,
            },
            "fwer_target": 0.5,
            "lambda_grid": [0.95, 0.97, 0.99],
            "n_sims": 300,
            "seed": 5,
        }
        cfg = write_config(tmp_path, "c.json", config)
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        lines = (tmp_path / "out" / "calibration_frontier.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert sorted(float(r[0]) for r in rows) == [0.95, 0.97, 0.99]
        assert all(float(r[1]) == 0.0 for r in rows)


class TestSimon:
    def test_flags_and_outputs(self, tmp_path):
        assert (
            run(
                [
                    "simon", "--p0", 0.15, "--p1", 0.45, "--alpha", 0.025, "--beta", 0.20,
                    "--out", tmp_path / "out",
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "out" / "simon.json").read_text())
        jsonschema.validate(report, schemas.SIMON_REPORT)
        mm = report["minimax"]
        assert (mm["r1"], mm["n1"], mm["r"], mm["n"]) == (1, 10, 5, 16)
        rows = (tmp_path / "out" / "simon.csv").read_text().splitlines()
        assert len(rows) == 2 + 5
        assert abs(float(rows[2].split(",")[5]) - 0.0903791) < 1e-4

    def test_bad_rates_exit_2(self, tmp_path):
        assert (
            run(
                [
                    "simon", "--p0", 0.45, "--p1", 0.15, "--alpha", 0.025, "--beta", 0.2,
                    "--out", tmp_path,
                ]
            )
            == 2
        )


class TestSharedFlags:
    """--workers and --seed are checked for every subcommand, used or not."""

    def commands(self, tmp_path):
        analyze = write_config(
            tmp_path, "a.json", {"x": [0, 2], "n": [2, 2], "delta": 0.0, "theta0": 0.15}
        )
        monitor = write_config(
            tmp_path,
            "m.json",
            {"spec": TWO_STAGE_SPEC, "stage": 1, "x": [0, 0, 0, 8], "n": [10, 10, 10, 10]},
        )
        return {
            "analyze": ["analyze", "--config", analyze],
            "monitor": ["monitor", "--config", monitor],
            "simon": ["simon", "--p0", 0.15, "--p1", 0.45, "--alpha", 0.025, "--beta", 0.20],
        }

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("analyze", ["--workers", 0]),
            ("simon", ["--workers", -3]),
            ("monitor", ["--seed", -1]),
            ("analyze", ["--seed", 2**64]),
        ],
    )
    def test_out_of_range_flag_exits_2(self, tmp_path, command, flags):
        args = self.commands(tmp_path)[command] + ["--out", tmp_path / "out"] + flags
        assert run(args) == 2
        assert not (tmp_path / "out").exists()

    def test_one_worker_runs(self, tmp_path):
        args = self.commands(tmp_path)["analyze"] + ["--out", tmp_path / "out", "--workers", 1]
        assert run(args) == 0


class TestFormatFlag:
    def test_json_only(self, tmp_path):
        cfg = write_config(
            tmp_path, "a.json", {"x": [1], "n": [4], "delta": 0.0, "theta0": 0.15}
        )
        out = tmp_path / "out"
        assert run(["analyze", "--config", cfg, "--out", out, "--format", "json"]) == 0
        assert (out / "analysis.json").exists()
        assert not (out / "analysis_baskets.csv").exists()

    def test_csv_only(self, tmp_path):
        cfg = write_config(
            tmp_path, "a.json", {"x": [1], "n": [4], "delta": 0.0, "theta0": 0.15}
        )
        out = tmp_path / "out"
        assert run(["analyze", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        assert not (out / "analysis.json").exists()
        assert (out / "analysis_baskets.csv").exists()
