import csv
import hashlib
import json
import re

import jsonschema
import pytest

from localmem import cli, schemas
from localmem.cli import main
from localmem.design import run_single_stage
from localmem.errors import ConvergenceError
from localmem.posterior import BasketData, BatchPosterior

import pins

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
SINGLE_STAGE_SPEC = {k: v for k, v in TWO_STAGE_SPEC.items() if k != "interim_sizes"} | {"stages": 1}


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

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    def test_overflowing_delta_exits_2(self, tmp_path, capsys, delta):
        cfg = write_config(
            tmp_path, "a.json", {"x": [1] * 9, "n": [4] * 9, "delta": delta, "theta0": 0.15}
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"delta = {delta} overflows the partition prior" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_basket_ids_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "a.json",
            {"x": [1, 2], "n": [4, 4], "basket_ids": ["a", "a"], "delta": 0.0, "theta0": 0.15},
        )
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    def test_schema_errors_name_the_first_five_fields_in_path_order(self, tmp_path, capsys):
        config = {"x": "1", "n": "2", "basket_ids": 3, "delta": "0", "prior": 1, "theta0": None, "typo": 1}
        cfg = write_config(tmp_path, "a.json", config)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "out"]) == 2
        fields = re.findall(r"field '([^']*)'", capsys.readouterr().err)
        assert fields == ["<root>", "basket_ids", "delta", "n", "prior"]

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
        # The decisions and the reported probabilities come from one engine.
        engines = []
        engine_init = BatchPosterior.__init__

        def counting_init(self, *args, **kwargs):
            engines.append(args)
            engine_init(self, *args, **kwargs)

        monkeypatch.setattr(BatchPosterior, "__init__", counting_init)
        cfg = write_config(tmp_path, "m.json", dict(look, spec=TWO_STAGE_SPEC))
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert len(engines) == 1
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

    @pytest.mark.parametrize(
        "look",
        [
            pytest.param({"stage": 1, "x": [0, 3, 1], "n": [10] * 4}, id="x-length"),
            pytest.param({"stage": 1, "x": [0, 3, 1], "n": [10] * 3}, id="x-and-n-length"),
            pytest.param(
                {"stage": 2, "x": [0, 9, 4, 9], "n": [10, 16, 16, 16], "active": [False, True, True]},
                id="active-length",
            ),
            pytest.param(
                {"stage": 1, "x": [0, 3, 1, 8], "n": [10] * 4, "active": [False, True, True, True]},
                id="stopped-at-interim",
            ),
            pytest.param(
                {"stage": 2, "x": [0, 1, 1, 0], "n": [10] * 4, "active": [False] * 4},
                id="none-active",
            ),
            pytest.param(
                {
                    "spec": {k: v for k, v in TWO_STAGE_SPEC.items() if k != "interim_sizes"}
                    | {"stages": 1},
                    "stage": 1,
                    "x": [0, 3, 1, 8],
                    "n": [16] * 4,
                },
                id="one-stage-spec",
            ),
            pytest.param(
                {
                    "spec": dict(TWO_STAGE_SPEC, interim_fraction=0.25),
                    "stage": 1,
                    "x": [0, 3, 1, 8],
                    "n": [10] * 4,
                },
                id="fraction-and-sizes",
            ),
        ],
    )
    def test_bad_look_exits_2_and_writes_nothing(self, tmp_path, look):
        cfg = write_config(tmp_path, "m.json", {"spec": TWO_STAGE_SPEC, **look})
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    def test_single_stage_look_is_stage_2(self, tmp_path):
        spec, x = SINGLE_STAGE_SPEC, [2, 3, 8, 12]
        cfg = write_config(tmp_path, "m.json", {"spec": spec, "stage": 2, "x": x, "n": [16] * 4})
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "monitor.json").read_text())
        jsonschema.validate(report, schemas.MONITOR_REPORT)
        assert report["boundary"]["applied"] == "q2"
        decisions = run_single_stage(BasketData.create(x, [16] * 4), cli._build_spec(spec))
        want = [d.value for d in decisions]
        assert [b["decision"] for b in report["baskets"]] == want
        lines = (tmp_path / "out" / "monitor.csv").read_text().splitlines()
        assert [row["decision"] for row in csv.DictReader(lines[1:])] == want

    def test_single_stage_spec_at_stage_1_exits_2(self, tmp_path, capsys):
        look = {"spec": SINGLE_STAGE_SPEC, "stage": 1, "x": [0, 3, 1, 8], "n": [16] * 4}
        cfg = write_config(tmp_path, "m.json", look)
        assert run(["monitor", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "stage 2" in capsys.readouterr().err
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


def _digests(out_dir):
    """sha256 of every file a command wrote, with the config hash blanked."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        blob = re.sub(rb'"config_hash": "\w+"', b'"config_hash": null', path.read_bytes())
        blob = re.sub(rb"config_hash=\w+", b"config_hash=-", blob)
        digests[path.name] = hashlib.sha256(blob).hexdigest()
    return digests


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


# Two analyze configs whose reports are pinned byte for byte: basket ids, a
# vector theta0 and the Jeffreys prior at B = 4, and default ids at B = 9.
PINNED_ANALYZE_CONFIGS = {
    "b4-ids": {
        "x": [1, 4, 2, 6],
        "n": [10, 12, 9, 14],
        "basket_ids": ["lung", "breast", "colon", "skin"],
        "delta": 2.0,
        "prior": {"alpha": 0.5, "beta": 0.5},
        "theta0": [0.1, 0.15, 0.2, 0.25],
    },
    "b9-default": {
        "x": [0, 1, 2, 3, 4, 5, 2, 1, 7],
        "n": [10, 10, 12, 12, 8, 8, 14, 9, 11],
        "delta": 1.0,
        "theta0": 0.2,
    },
}

# sha256 of each file with its config hash blanked, recorded before the
# reports were written from the membership array; the CSV digests were
# re-recorded when CSV rows began ending in LF rather than CRLF.
ANALYZE_REPORT_DIGESTS = {
    "b4-ids": {
        "analysis.json": "1cab5e3e48ed6596e4d7d30d10eae98a69d525dac554c8c00e02bd6e38eaa6ab",
        "analysis_baskets.csv": "4650276551ccae27f95f850f36a9caefdccfaab3c8a64b0ad4d0ca20579512bf",
        "analysis_partitions.csv": "01792e68d146e003d38afb9da8353fa8f63a5b6e8ab33bfca533fda52dfc66b5",
    },
    "b9-default": {
        "analysis.json": "36f590d000a8dfd9c7c9e89296fe2baefdeb47373400da6d4d79287c956ce2e5",
        "analysis_baskets.csv": "1b7fed13d9c1b9c20b72dbdb1983b7eb249319060b4aa9101230e7992b0b6df5",
        "analysis_partitions.csv": "4acd84a0ca8f68d9ee3348db9a602704ea6890db48c3d5046835db6cb4520987",
    },
}


# The same reports under AVX2 exp and log, where their bytes differ.
ANALYZE_REPORT_DIGESTS_AVX2 = {
    "b4-ids": {
        **ANALYZE_REPORT_DIGESTS["b4-ids"],
        "analysis.json": "a30326650aaf35500cad58dff97dc9256193eb5cd6b696f589c80b46ef8b2534",
    },
    "b9-default": {
        **ANALYZE_REPORT_DIGESTS["b9-default"],
        "analysis.json": "a41ad6b943437f2d1840e8028ef085cbbb1971a714751a6fc735c2f720d8cb2f",
    },
}


class TestAnalyzeReportBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_ANALYZE_CONFIGS))
    def test_files_are_pinned(self, tmp_path, name):
        cfg = write_config(tmp_path, "a.json", PINNED_ANALYZE_CONFIGS[name])
        out = tmp_path / "out"
        assert run(["analyze", "--config", cfg, "--out", out, "--format", "both"]) == 0
        digests = pins.pinned({pins.AVX512: ANALYZE_REPORT_DIGESTS, pins.AVX2: ANALYZE_REPORT_DIGESTS_AVX2})
        assert _digests(out) == digests[name]


# Monitor looks whose reports are pinned byte for byte: the interim and the
# final look at B = 4 and B = 7, each final look with stopped baskets.
MONITOR_SPEC_B7 = dict(TWO_STAGE_SPEC, baskets=7)
PINNED_MONITOR_CONFIGS = {
    "b4-stage1": {"spec": TWO_STAGE_SPEC, "stage": 1, "x": [0, 3, 1, 8], "n": [10, 10, 10, 10]},
    "b4-stage2": {
        "spec": TWO_STAGE_SPEC,
        "stage": 2,
        "x": [0, 9, 4, 9],
        "n": [10, 16, 16, 16],
        "active": [False, True, True, True],
    },
    "b7-stage1": {"spec": MONITOR_SPEC_B7, "stage": 1, "x": [0, 3, 1, 8, 5, 2, 6], "n": [10] * 7},
    "b7-stage2": {
        "spec": MONITOR_SPEC_B7,
        "stage": 2,
        "x": [0, 7, 1, 11, 8, 2, 3],
        "n": [10, 16, 10, 16, 16, 10, 16],
        "active": [False, True, False, True, True, False, True],
    },
}

# sha256 of each file with its config hash blanked, recorded before the looks
# were moved into one checked step; the CSV digests were re-recorded when CSV
# rows began ending in LF rather than CRLF.
MONITOR_REPORT_DIGESTS = {
    "b4-stage1": {
        "monitor.csv": "fa9b879b56007d079e338c15084044613dc7400c48ef1dc0792db72125af9251",
        "monitor.json": "09cd669e4755a318cc53f6c12a1642cd15b465d9b1c6c841e971ed9dc7f4e653",
    },
    "b4-stage2": {
        "monitor.csv": "3a26bbe7622dea17c6a86818a6ee5c1f8582a6c070f2ad5abf457a5013eff220",
        "monitor.json": "aff153aa480de26e7583f5666d4566cbf903ca7687003666fccd8e705daeb690",
    },
    "b7-stage1": {
        "monitor.csv": "e96139c5615ee70f96c85a7790bff9fb58286329060cf3cc5277dadf1c8af685",
        "monitor.json": "862c77d7693cf9f4514f4a344595900aec822f8dc474f3331985dfc085995571",
    },
    "b7-stage2": {
        "monitor.csv": "d02af9a659220e92639e519c97e8414de297204123035f07e04a39ee4ccc0bb2",
        "monitor.json": "9bc2073057cf1efb00f2f25caf8c85012dfe52b8bf42d129fc2d86e4daa5d076",
    },
}


# The same reports under AVX2 exp and log, where their bytes differ.
MONITOR_REPORT_DIGESTS_AVX2 = {
    **MONITOR_REPORT_DIGESTS,
    "b7-stage2": {
        **MONITOR_REPORT_DIGESTS["b7-stage2"],
        "monitor.json": "36ca43fec7b369b3ebd9995088c7a67d362d3e8877d8f7f32c2a75f6cb77947c",
    },
}


class TestMonitorReportBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_MONITOR_CONFIGS))
    def test_files_are_pinned(self, tmp_path, name):
        cfg = write_config(tmp_path, "m.json", PINNED_MONITOR_CONFIGS[name])
        out = tmp_path / "out"
        assert run(["monitor", "--config", cfg, "--out", out, "--format", "both"]) == 0
        digests = pins.pinned({pins.AVX512: MONITOR_REPORT_DIGESTS, pins.AVX2: MONITOR_REPORT_DIGESTS_AVX2})
        assert _digests(out) == digests[name]


# Small simulate, calibrate and simon runs whose reports are pinned byte for
# byte: a 200-trial paper suite, a 3 x 2 (lambda, gamma) grid, and the
# paper's Simon flags with the default nmax and basket count.
CALIBRATE_SPEC = {k: v for k, v in TWO_STAGE_SPEC.items() if k not in ("lambda", "gamma")}
PINNED_RUNS = {
    "simulate": {"spec": TWO_STAGE_SPEC, "scenarios": "suite", "n_sims": 200, "seed": 31},
    "calibrate": {
        "spec": CALIBRATE_SPEC,
        "lambda_grid": [0.97, 0.977, 0.985],
        "gamma_grid": [0.5, 0.7],
        "n_sims": 200,
        "seed": 7,
    },
    "simon": ["--p0", 0.15, "--p1", 0.45, "--alpha", 0.025, "--beta", 0.2],
}

# sha256 of each file with its config hash blanked, recorded before every
# command's report went through one load-validate-emit pipeline in main; the
# CSV digests were re-recorded when CSV rows began ending in LF rather than CRLF.
RUN_REPORT_DIGESTS = {
    "simulate": {
        "simulation.csv": "3b0cd052775198c5199f75ae80ceb9ebfab9413010ba49fa95b23dad6171ec08",
        "simulation.json": "68e57eabb76881578133a9a2711c02e35a60b02ac22ee362f76f248c086f12e2",
    },
    "calibrate": {
        "calibration.json": "769bba0af168f043eaf3c98270c7d727968e98fdea9a0065e7ffa4407748bbb5",
        "calibration_frontier.csv": "3dc13be48dd2cb6c7e7f7fb32c5a86250d4c0e220bc16cbd1054ba0d66f312ac",
    },
    "simon": {
        "simon.csv": "88a2842416293e105d49d838ebd036abe469f14c296562dc9c864f7dd7a1bb59",
        "simon.json": "4f49c27f69db1f71bbf1fd0dc2b91004243b8eb1861ae24e3be010a5431a37cf",
    },
}


class TestRunReportBytes:
    @pytest.mark.parametrize("command", sorted(PINNED_RUNS))
    def test_files_are_pinned(self, tmp_path, command):
        setup = PINNED_RUNS[command]
        flags = setup if command == "simon" else ["--config", write_config(tmp_path, "c.json", setup)]
        out = tmp_path / "out"
        assert run([command, *flags, "--out", out, "--format", "both"]) == 0
        assert _digests(out) == RUN_REPORT_DIGESTS[command]


class TestCsvLineEndings:
    # Every row ends in LF, as the meta line does, so a plain `grep -x`
    # matches a row of any report CSV.
    @pytest.mark.parametrize("command", ["analyze", "monitor", *sorted(PINNED_RUNS)])
    def test_no_line_holds_a_carriage_return(self, tmp_path, command):
        setup = {
            "analyze": PINNED_ANALYZE_CONFIGS["b4-ids"],
            "monitor": PINNED_MONITOR_CONFIGS["b4-stage2"],
            **PINNED_RUNS,
        }[command]
        flags = setup if command == "simon" else ["--config", write_config(tmp_path, "c.json", setup)]
        out = tmp_path / "out"
        assert run([command, *flags, "--out", out, "--format", "csv"]) == 0
        paths = sorted(out.glob("*.csv"))
        assert paths
        for path in paths:
            blob = path.read_bytes()
            assert b"\r" not in blob and blob.endswith(b"\n"), path.name


class TestJsonTablesMatchCsv:
    # Each analyze and monitor table is written twice, as a JSON list of
    # objects and as a CSV file; the two must say the same thing.
    @pytest.mark.parametrize(
        "command, config, json_name, tables",
        [
            (
                "analyze",
                {"x": [3], "n": [9], "basket_ids": ["lung"], "delta": 0.5, "theta0": 0.2},
                "analysis.json",
                {"analysis_baskets.csv": "baskets", "analysis_partitions.csv": "partitions"},
            ),
            (
                "analyze",
                {"x": [0, 2, 5, 1, 7], "n": [8, 10, 10, 6, 12], "delta": 1.0, "theta0": 0.15},
                "analysis.json",
                {"analysis_baskets.csv": "baskets", "analysis_partitions.csv": "partitions"},
            ),
            ("monitor", PINNED_MONITOR_CONFIGS["b7-stage2"], "monitor.json", {"monitor.csv": "baskets"}),
        ],
        ids=["analyze-b1-ids", "analyze-b5-default", "monitor-b7-final"],
    )
    def test_every_cell_agrees(self, tmp_path, command, config, json_name, tables):
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out, "--format", "both"]) == 0
        report = json.loads((out / json_name).read_text())
        for csv_name, key in tables.items():
            lines = (out / csv_name).read_text().splitlines()
            assert lines[0].startswith("# ")
            header, *rows = csv.reader(lines[1:])
            objects = report[key]
            assert len(rows) == len(objects) > 0
            for row, obj in zip(rows, objects):
                assert set(obj) <= set(header)
                for column, cell in zip(header, row, strict=True):
                    assert (cell == "-") == (column not in obj)
                    if column in obj:
                        assert cell == cli._fmt(obj[column])


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

    def test_byte_identical_across_workers(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.small_grid_config(7))
        outputs = []
        for i, workers in enumerate((1, 3)):
            out = tmp_path / f"out{i}"
            assert run(["calibrate", "--config", cfg, "--out", out, "--workers", workers]) == 0
            outputs.append(
                [(out / name).read_bytes() for name in ("calibration.json", "calibration_frontier.csv")]
            )
        assert outputs[0] == outputs[1]

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

    def test_infeasible_exits_1(self, tmp_path, capsys):
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
        err = capsys.readouterr().err
        assert err.count("minimum achieved") == err.count("achieved") == 1

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

    def test_scenario_rates_equal_search_rates(self, tmp_path):
        # The OC table and the search read one rejection table, so every null
        # basket rejects at exactly the design's alpha and every promising
        # basket at exactly its power.
        args = ["simon", "--p0", 0.15, "--p1", 0.45, "--alpha", 0.025, "--beta", 0.20]
        assert run([*args, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "simon.json").read_text())
        mm = report["minimax"]
        for row in report["scenarios"]:
            for p, rate in zip(row["true_rates"], row["reject_rate"]):
                assert rate == (mm["alpha"] if p == 0.15 else mm["power"])

    def test_trialwise_power_equals_search_power(self, tmp_path):
        # Every promising basket has the same true rate, so the trial-wise
        # power is that basket's rate exactly, not a mean an ulp away.
        args = ["simon", "--p0", 0.30, "--p1", 0.55, "--alpha", 0.01, "--beta", 0.2, "--baskets", 10]
        assert run([*args, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "simon.json").read_text())
        rows = [r for r in report["scenarios"] if not r["label"].startswith("0 ")]
        assert [r["label"] for r in rows] == [f"{k} success" for k in range(1, 11)]
        for row in rows:
            assert row["trialwise_power"] == report["minimax"]["power"]

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


class TestSingleStageSpec:
    @pytest.mark.parametrize("interim", [{"interim_sizes": 10}, {"interim_fraction": 0.5}])
    @pytest.mark.parametrize("command", ["simulate", "calibrate", "monitor"])
    def test_interim_field_exits_2(self, tmp_path, command, interim):
        spec = {k: v for k, v in TWO_STAGE_SPEC.items() if k != "interim_sizes"}
        spec.update(stages=1, **interim)
        if command == "monitor":
            config = {"spec": spec, "stage": 2, "x": [0, 3, 1, 8], "n": [16] * 4}
        else:
            config = {"spec": spec, "n_sims": 20, "seed": 3}
        cfg = write_config(tmp_path, "c.json", config)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()


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

    def test_csv_only_builds_no_json_objects(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a CSV-only run built the JSON report's objects")

        monkeypatch.setattr(cli, "_objects", unreachable)
        cfg = write_config(
            tmp_path, "a.json", {"x": [0, 2, 5, 1, 7], "n": [8, 10, 10, 6, 12], "delta": 1.0, "theta0": 0.15}
        )
        out = tmp_path / "out"
        assert run(["analyze", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["analysis_baskets.csv", "analysis_partitions.csv"]
