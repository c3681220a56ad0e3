"""Command-line interface.

Subcommands: analyze, monitor, simulate, calibrate, simon. Configurations are
JSON documents validated against the schemas in :mod:`localmem.schemas` by
that module's own validator, :func:`~localmem.schemas.schema_errors`, which
knows the schemas' closed vocabulary and nothing more; a refused config exits
2 naming the first five offending fields. Results are written as JSON reports
and plot-ready CSV tables. Every output embeds the seed, simulation count, a
content hash of the configuration and the package version, so a table can
always be traced back to its inputs.
``main`` alone loads and validates a config (against the schema its
subcommand is registered with; simon takes flags), calls ``cmd_*(args,
config)`` and writes the (json_name, payload, tables) it returns. A table is
(csv_name, json_key, header, rows): the CSV writes its rows, and a keyed
table's JSON objects, one {column: cell} per row without its None cells,
are built only when the JSON report is written.

monitor applies one look: stage 1 is a two-stage design's interim look, and
stage 2 its final look or a single-stage design's one look.

Exit codes: 0 success, 1 infeasible calibration, 2 input error, 3 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, schemas
from .calibration import (
    DEFAULT_FWER_TARGET,
    DEFAULT_GAMMA_GRID,
    DEFAULT_LAMBDA_GRID,
    CalibrationProblem,
    calibrate,
    calibrated_spec,
)
from .design import (
    STAGE_INTERIM,
    Decision,
    DesignSpec,
    TrialState,
    final_step,
    interim_step,
)
from .errors import (
    ConfigError,
    InfeasibleCalibrationError,
    LocalMemError,
)
from .numerics import as_int
from .partitions import enumerate_partitions, membership_strings
from .posterior import DEFAULT_PRIOR, BasketData, BetaParams, analyze, default_basket_ids
from .simon import DEFAULT_N_MAX, simon_oc, simon_search
from .simulation import DEFAULT_N_SIMS, Scenario, scenario_suite, simulate_batch

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(value) -> str:
    """CSV cell: 6 significant digits, '-' for absent values."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _meta(command: str, config: dict, seed=None, n_sims=None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config_hash": _config_hash(config),
        "seed": seed,
        "n_sims": n_sims,
    }


def _seed(args, config: dict) -> int:
    """The run seed: the --seed flag if given, else the config's (schema-checked) seed."""
    return as_int(config["seed"], "seed") if args.seed is None else args.seed


def _prior(doc: dict) -> BetaParams:
    """The Beta prior a config section names, uniform when it names none."""
    prior = doc.get("prior")
    return BetaParams(prior["alpha"], prior["beta"]) if prior else DEFAULT_PRIOR


def _build_spec(doc: dict, lam_default: float | None = None) -> DesignSpec:
    lam = doc.get("lambda", lam_default)
    if lam is None:
        raise ConfigError("spec needs a 'lambda' value")
    return DesignSpec.create(
        num_baskets=doc["baskets"],
        max_sizes=doc["max_sizes"],
        theta0=doc["theta0"],
        theta1=doc["theta1"],
        lam=lam,
        gamma=doc.get("gamma", 0.0),
        delta=doc["delta"],
        prior=_prior(doc),
        stages=doc["stages"],
        interim_fraction=doc.get("interim_fraction"),
        interim_sizes=doc.get("interim_sizes"),
    )


def _objects(header: list[str], rows) -> list[dict]:
    """A table's JSON objects: one {column: cell} per row, without its None cells."""
    return [{k: v for k, v in zip(header, row) if v is not None} for row in rows]


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _write_csv(out_dir: Path, name: str, meta: dict, header: list[str], rows: list[list]) -> Path:
    path = out_dir / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        meta_line = " ".join(f"{k}={v}" for k, v in meta.items())
        fh.write(f"# {meta_line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _emit(args, json_name, payload, tables) -> None:
    """tables: list of (csv_name, json_key, header, rows); a keyed table's
    objects join the payload only when the JSON report is written."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("json", "both"):
        for _, key, header, rows in tables:
            if key is not None:
                payload[key] = _objects(header, rows)
        written.append(_write_json(out_dir, json_name, payload))
    if args.format in ("csv", "both"):
        for name, _, header, rows in tables:
            written.append(_write_csv(out_dir, name, payload["meta"], header, rows))
    for path in written:
        print(f"wrote {path}")


# ---------------------------------------------------------------- analyze --


def cmd_analyze(args, config):
    data = BasketData.create(config["x"], config["n"], config.get("basket_ids"))
    result = analyze(data, delta=config["delta"], prior=_prior(config), theta0=config["theta0"])

    pp = result.partition_posterior
    labels = enumerate_partitions(data.num_baskets)
    strings = membership_strings(labels)
    baskets = (
        "analysis_baskets.csv",
        "baskets",
        ["id", "x", "n", "alpha", "beta", "mean", "ess", "prob_exceeds"],
        [
            [data.basket_ids[b], data.x[b], data.n[b], post.alpha, post.beta, post.mean,
             result.ess[b], result.prob_exceeds[b]]
            for b, post in enumerate(result.posteriors)
        ],
    )
    partitions = (
        "analysis_partitions.csv",
        "partitions",
        ["membership", "num_blocks", "prior", "weight"],
        list(
            zip(strings, labels.max(axis=1).tolist(), result.partition_prior.tolist(), pp.weights.tolist())
        ),
    )
    payload = {
        "meta": _meta("analyze", config),
        "similarity": result.similarity.tolist(),
        "top_partition": {"membership": strings[pp.top_index], "weight": pp.top_prob},
    }
    return "analysis.json", payload, [baskets, partitions]


# ---------------------------------------------------------------- monitor --


def cmd_monitor(args, config):
    spec = _build_spec(config["spec"])
    stage = as_int(config["stage"], "stage")
    active = config.get("active", [True] * spec.num_baskets)
    look = TrialState(
        stage=stage,
        data=BasketData.create(config["x"], config["n"]),
        decisions=tuple(Decision.PENDING if a else Decision.FUTILITY_STOPPED for a in active),
    )
    state = (interim_step if stage == STAGE_INTERIM else final_step)(look, spec)
    boundary = spec.boundary()
    result = state.analysis  # the step's own: all baskets, then the survivors
    pp = result.partition_posterior
    top = enumerate_partitions(result.data.num_baskets)[[pp.top_index]]
    analyzed = [b for b, keep in enumerate(look.active) if keep]
    looked = dict(zip(analyzed, zip(result.prob_exceeds, result.ess)))
    data = state.data
    header = ["id", "x", "n", "prob_exceeds", "ess", "decision"]
    rows = [
        # Every basket still PENDING after the interim look continues.
        [data.basket_ids[b], data.x[b], data.n[b], *looked.get(b, (None, None)),
         (Decision.CONTINUE if d is Decision.PENDING else d).value]
        for b, d in enumerate(state.decisions)
    ]
    payload = {
        "meta": _meta("monitor", config),
        "stage": stage,
        "boundary": {"q1": boundary.q1, "q2": boundary.q2, "applied": f"q{stage}"},
        "top_partition": {
            "membership": membership_strings(top)[0],
            "weight": pp.top_prob,
            "basket_ids": list(result.data.basket_ids),
        },
    }
    return "monitor.json", payload, [("monitor.csv", "baskets", header, rows)]


# --------------------------------------------------------------- simulate --


def _oc_row(label, rates, oc) -> dict:
    return {
        "label": label,
        "true_rates": [float(r) for r in rates],
        "reject_rate": [float(r) for r in oc.per_basket_reject_rate],
        "fwer": oc.fwer,
        "trialwise_power": oc.trialwise_power,
        "expected_n": [float(v) for v in oc.expected_n],
    }


def _oc_tables(basket_ids, scenario_rows):
    header = (
        ["label"]
        + [f"reject_{i}" for i in basket_ids]
        + ["fwer", "trialwise_power"]
        + [f"en_{i}" for i in basket_ids]
    )
    rows = [
        [r["label"], *r["reject_rate"], r["fwer"], r["trialwise_power"], *r["expected_n"]]
        for r in scenario_rows
    ]
    return header, rows


def cmd_simulate(args, config):
    spec = _build_spec(config["spec"])
    seed = _seed(args, config)
    n_sims = as_int(config.get("n_sims", DEFAULT_N_SIMS), "n_sims")
    scenarios_doc = config.get("scenarios", "suite")
    if scenarios_doc == "suite":
        scenarios = scenario_suite(spec)
    else:
        scenarios = [
            Scenario.from_rates(spec, doc["true_rates"], doc["label"]) for doc in scenarios_doc
        ]
    ocs = simulate_batch(spec, scenarios, n_sims=n_sims, seed=seed, workers=args.workers)
    rows = [_oc_row(sc.label, sc.true_rates, oc) for sc, oc in zip(scenarios, ocs)]
    ids = default_basket_ids(spec.num_baskets)
    payload = {
        "meta": _meta("simulate", config, seed=seed, n_sims=n_sims),
        "basket_ids": ids,
        "scenarios": rows,
    }
    return "simulation.json", payload, [("simulation.csv", None, *_oc_tables(ids, rows))]


# --------------------------------------------------------------- calibrate --


def cmd_calibrate(args, config):
    spec = _build_spec(config["spec"], lam_default=0.5)
    seed = _seed(args, config)
    n_sims = as_int(config.get("n_sims", DEFAULT_N_SIMS), "n_sims")
    problem = CalibrationProblem(
        spec_template=spec,
        fwer_target=config.get("fwer_target", DEFAULT_FWER_TARGET),
        lambda_grid=tuple(config.get("lambda_grid", DEFAULT_LAMBDA_GRID)),
        gamma_grid=tuple(config.get("gamma_grid", DEFAULT_GAMMA_GRID)),
        n_sims=n_sims,
        seed=seed,
    )
    result = calibrate(problem, workers=args.workers)
    chosen = calibrated_spec(problem, result)

    # Guard against threshold overfitting: re-estimate the constrained and
    # maximized quantities on an independent stream.
    eval_seed = (seed + 1) % 2**64
    oc_null, oc_alt = simulate_batch(
        chosen,
        (problem.null_scenario(), problem.alternative_scenario()),
        n_sims=n_sims,
        seed=eval_seed,
        workers=args.workers,
    )
    boundary = chosen.boundary()
    payload = {
        "meta": _meta("calibrate", config, seed=seed, n_sims=n_sims),
        "lambda": result.lam,
        "gamma": result.gamma,
        "boundary": {"q1": boundary.q1, "q2": boundary.q2},
        "achieved_fwer": result.achieved_fwer,
        "achieved_power": result.achieved_power,
        "evaluation": {
            "seed": eval_seed,
            "fwer": oc_null.fwer,
            "trialwise_power": oc_alt.trialwise_power,
        },
    }
    frontier_rows = [[p.lam, p.gamma, p.fwer, p.power] for p in result.frontier]
    header = ["lambda", "gamma", "fwer", "power"]
    return "calibration.json", payload, [("calibration_frontier.csv", None, header, frontier_rows)]


# ------------------------------------------------------------------ simon --


def cmd_simon(args, config):
    flags = {
        "p0": args.p0,
        "p1": args.p1,
        "alpha": args.alpha,
        "beta": args.beta,
        "nmax": args.nmax,
        "baskets": args.baskets,
    }
    result = simon_search(args.p0, args.p1, args.alpha, args.beta, n_max=args.nmax)
    design = result.minimax

    num_baskets = args.baskets
    spec = DesignSpec.create(
        num_baskets,
        design.n,
        args.p0,
        args.p1,
        lam=0.5,
        stages=2,
        interim_sizes=design.n1,
    )
    rows = []
    for scenario in scenario_suite(spec):
        oc = simon_oc(design, scenario)
        rows.append(_oc_row(scenario.label, scenario.true_rates, oc))

    def design_doc(d):
        return {
            "r1": d.r1,
            "n1": d.n1,
            "r": d.r,
            "n": d.n,
            "alpha": d.alpha_actual,
            "power": d.power_actual,
            "en_null": d.en_null,
            "pet_null": d.pet_null,
        }

    ids = default_basket_ids(num_baskets)
    payload = {
        "meta": _meta("simon", flags),
        "minimax": design_doc(result.minimax),
        "optimal": design_doc(result.optimal),
        "scenarios": rows,
    }
    print(
        f"minimax: r1={design.r1} n1={design.n1} r={design.r} n={design.n} "
        f"alpha={design.alpha_actual:.4f} power={design.power_actual:.4f} en0={design.en_null:.2f}"
    )
    return "simon.json", payload, [("simon.csv", None, *_oc_tables(ids, rows))]


# ------------------------------------------------------------------- main --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmem",
        description="Basket-trial design with partition-based local information borrowing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument(
        "--format", choices=("json", "csv", "both"), default="both", help="output formats"
    )
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "chunks to split the trials into; never changes results, and the "
            "process pool never exceeds the CPU count"
        ),
    )

    for name, fn, schema in (
        ("analyze", cmd_analyze, schemas.ANALYZE_CONFIG),
        ("monitor", cmd_monitor, schemas.MONITOR_CONFIG),
        ("simulate", cmd_simulate, schemas.SIMULATE_CONFIG),
        ("calibrate", cmd_calibrate, schemas.CALIBRATE_CONFIG),
    ):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.set_defaults(func=fn, schema=schema)

    sp = sub.add_parser("simon", parents=[common])
    sp.add_argument("--p0", type=float, required=True, help="null response rate")
    sp.add_argument("--p1", type=float, required=True, help="target response rate")
    sp.add_argument("--alpha", type=float, required=True, help="per-basket type I error")
    sp.add_argument("--beta", type=float, required=True, help="per-basket type II error")
    sp.add_argument("--nmax", type=int, default=DEFAULT_N_MAX, help="largest total size searched")
    sp.add_argument("--baskets", type=int, default=4, help="basket count for the exact OC table")
    sp.set_defaults(func=cmd_simon, schema=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every subcommand takes these flags, so every one checks them.
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must lie in [0, 2**64 - 1], got {args.seed}")
        config = None
        if args.schema is not None:
            config = _load_config(args.config)
            errors = [
                f"field '{'/'.join(map(str, path)) or '<root>'}': {message}"
                for path, message in schemas.schema_errors(config, args.schema)[:5]
            ]
            if errors:
                raise ConfigError("; ".join(errors))
        _emit(args, *args.func(args, config))
        return EXIT_OK
    except json.JSONDecodeError as err:
        print(f"input error: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleCalibrationError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ArithmeticError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LocalMemError, ValueError, KeyError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
