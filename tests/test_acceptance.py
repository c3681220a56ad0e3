"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured values.

Monte-Carlo checks run at 5000 simulated trials. Every run is seeded, so
results are bit-for-bit reproducible; the family-wise error-rate target
checks that fall on independent evaluation streams carry a +0.01 allowance
(about 2.5 standard errors at these rates) on top of the guaranteed
control at the calibration stream.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from localmem.calibration import CalibrationProblem, calibrate, calibrated_spec
from localmem.design import DesignSpec
from localmem.numerics import log_beta, reg_inc_beta
from localmem.partitions import enumerate_partitions, partition_prior
from localmem.posterior import BasketData, analyze
from localmem.simon import simon_oc, simon_search
from localmem.simulation import Scenario, scenario_suite, simulate

from oracles import RationalAnalysis, reg_inc_beta_quadrature

N_SIMS = 5000
CAL_SEED = 777
EVAL_SEED = 999
FWER_MC_ALLOWANCE = 0.01  # matches the explicit "0.05 + 0.01" style budget


def report(criterion, checks):
    ok = all(passed for _, passed, _ in checks)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for desc, passed, detail in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {desc}: {detail}")
    assert ok, f"acceptance criterion failed: {criterion}"


def two_stage_paper_spec(delta=2.0, lam=0.977, gamma=0.700271):
    # gamma solves lam * (10/16)**gamma = 0.703
    return DesignSpec.create(
        4, 16, 0.15, 0.45, lam=lam, gamma=gamma, delta=delta, stages=2, interim_sizes=10
    )


def suite_ocs(spec, n_sims=N_SIMS, seed=EVAL_SEED):
    return {s.label: simulate(spec, s, n_sims=n_sims, seed=seed) for s in scenario_suite(spec)}


def test_criterion_01_table1_priors():
    """Partition priors for four baskets match the published table to 3 dp."""
    table = {1: (0.067, 0.027, 0.010), 2: (0.067, 0.054, 0.040),
             3: (0.067, 0.081, 0.091), 4: (0.067, 0.108, 0.162)}
    parts = enumerate_partitions(4)
    checks = []
    worst = 0.0
    for col, delta in enumerate((0.0, 1.0, 2.0)):
        weights = partition_prior(parts, delta)
        for part, w in zip(parts, weights):
            worst = max(worst, abs(w - table[int(part.max())][col]))
    checks.append(("15 x 3 prior values to 3 decimals", worst < 5e-4, f"max dev {worst:.2e}"))
    report("1 (partition priors)", checks)


def test_criterion_02_bell_counts():
    """Enumeration sizes equal the Bell numbers for 1..8 baskets."""
    got = [len(enumerate_partitions(b)) for b in range(1, 9)]
    expect = [1, 2, 5, 15, 52, 203, 877, 4140]
    report("2 (Bell counts)", [(f"sizes for B=1..8", got == expect, f"{got}")])


def test_criterion_03_simon_design():
    """Exact Simon search reproduces the published minimax design and its
    family-wise error rate / expected size."""
    result = simon_search(0.15, 0.45, 0.025, 0.20)
    d = result.minimax
    spec = DesignSpec.create(4, 16, 0.15, 0.45, lam=0.5, stages=1)
    oc = simon_oc(d, Scenario.from_rates(spec, [0.15] * 4, "0 success"))
    checks = [
        ("minimax design (r1, n1, r, n)", (d.r1, d.n1, d.r, d.n) == (1, 10, 5, 16),
         f"{(d.r1, d.n1, d.r, d.n)}"),
        ("exact global-null FWER within 0.005 of 0.091", abs(oc.fwer - 0.091) <= 0.005,
         f"{oc.fwer:.4f}"),
        ("exact EN under p0 within 0.2 of 12.7", abs(oc.expected_n[0] - 12.7) <= 0.2,
         f"{oc.expected_n[0]:.3f}"),
    ]
    report("3 (Simon minimax)", checks)


def test_criterion_04_two_stage_delta2():
    """Two-stage borrowing design with boundary (0.703, 0.977) reproduces the
    published delta=2 operating characteristics."""
    spec = two_stage_paper_spec()
    ocs = suite_ocs(spec, seed=12345)
    table_4s = (0.843, 0.835, 0.845, 0.842)
    checks = [
        ("global-null FWER within 0.02 of 0.098",
         abs(ocs["0 success"].fwer - 0.098) <= 0.02, f"{ocs['0 success'].fwer:.4f}"),
        ("promising-basket power in '1 success' within 0.02 of 0.810",
         abs(ocs["1 success"].per_basket_reject_rate[3] - 0.810) <= 0.02,
         f"{ocs['1 success'].per_basket_reject_rate[3]:.4f}"),
    ]
    rates4 = ocs["4 success"].per_basket_reject_rate
    dev4 = max(abs(r - t) for r, t in zip(rates4, table_4s))
    checks.append(("'4 success' basket powers within 0.02 of 0.835-0.845",
                   dev4 <= 0.02, f"{[round(r, 3) for r in rates4]}"))
    worst_null = max(
        rate
        for scenario in scenario_suite(spec)
        for rate, prom in zip(ocs[scenario.label].per_basket_reject_rate, scenario.promising)
        if not prom
    )
    checks.append(("all null-basket type-I rates <= 0.05 + 0.01",
                   worst_null <= 0.06, f"max {worst_null:.4f}"))
    report("4 (two-stage delta=2)", checks)


@pytest.mark.parametrize(
    "delta, fwer_1s, power_4s",
    [(0.0, 0.131, 0.902), (1.0, 0.118, 0.862)],
    ids=["delta0", "delta1"],
)
def test_criterion_05_two_stage_calibrated(delta, fwer_1s, power_4s):
    """Calibrated two-stage boundaries for delta=0 and delta=1 reproduce the
    published mixed-scenario error rate and global-alternative power."""
    template = DesignSpec.create(
        4, 16, 0.15, 0.45, lam=0.5, gamma=0.0, delta=delta, stages=2, interim_sizes=10
    )
    problem = CalibrationProblem(spec_template=template, n_sims=N_SIMS, seed=CAL_SEED)
    result = calibrate(problem)
    chosen = calibrated_spec(problem, result)
    one = simulate(chosen, scenario_suite(chosen)[1], n_sims=N_SIMS, seed=EVAL_SEED)
    four = simulate(chosen, scenario_suite(chosen)[4], n_sims=N_SIMS, seed=EVAL_SEED)
    mean_power = float(np.mean(four.per_basket_reject_rate))
    checks = [
        ("calibration feasible at target 0.10", result.achieved_fwer <= 0.10,
         f"achieved {result.achieved_fwer:.4f} at boundary (q1={chosen.boundary().q1:.3f}, q2={result.lam:.3f})"),
        (f"'1 success' FWER within 0.025 of {fwer_1s}", abs(one.fwer - fwer_1s) <= 0.025,
         f"{one.fwer:.4f}"),
        (f"'4 success' mean basket power within 0.025 of {power_4s}",
         abs(mean_power - power_4s) <= 0.025, f"{mean_power:.4f}"),
    ]
    report(f"5 (calibrated two-stage, delta={delta:g})", checks)


def test_criterion_06_fixed_design_delta2():
    """Calibrated fixed design (19 patients per basket, delta=2) reproduces
    the published power and type-I profile."""
    template = DesignSpec.create(4, 19, 0.15, 0.45, lam=0.5, delta=2.0, stages=1)
    problem = CalibrationProblem(spec_template=template, n_sims=N_SIMS, seed=CAL_SEED)
    result = calibrate(problem)
    chosen = calibrated_spec(problem, result)
    ocs = suite_ocs(chosen)
    table_4s = (0.897, 0.888, 0.897, 0.885)
    rates4 = ocs["4 success"].per_basket_reject_rate
    dev4 = max(abs(r - t) for r, t in zip(rates4, table_4s))
    checks = [
        ("calibrated FWER <= 0.10 at the shared calibration stream",
         result.achieved_fwer <= 0.10, f"achieved {result.achieved_fwer:.4f} at q2={result.lam:.3f}"),
        ("global-null FWER <= 0.10 (+MC allowance) on the evaluation stream",
         ocs["0 success"].fwer <= 0.10 + FWER_MC_ALLOWANCE, f"{ocs['0 success'].fwer:.4f}"),
        ("'4 success' basket powers within 0.03 of 0.885-0.897",
         dev4 <= 0.03, f"{[round(r, 3) for r in rates4]}"),
        ("'3 success' null-basket type-I within 0.015 of 0.043",
         abs(ocs["3 success"].per_basket_reject_rate[0] - 0.043) <= 0.015,
         f"{ocs['3 success'].per_basket_reject_rate[0]:.4f}"),
    ]
    report("6 (fixed design delta=2)", checks)


def test_criterion_07_heterogeneous_null():
    """Heterogeneous null/target rates: error control holds and the published
    '4 success' powers are reproduced."""
    template = DesignSpec.create(
        4, 19, (0.25, 0.25, 0.15, 0.15), (0.55, 0.55, 0.45, 0.45), lam=0.5, delta=2.0, stages=1
    )
    problem = CalibrationProblem(spec_template=template, n_sims=N_SIMS, seed=CAL_SEED)
    result = calibrate(problem)
    chosen = calibrated_spec(problem, result)
    ocs = suite_ocs(chosen)
    table_4s = (0.822, 0.816, 0.857, 0.852)
    rates4 = ocs["4 success"].per_basket_reject_rate
    dev4 = max(abs(r - t) for r, t in zip(rates4, table_4s))
    worst_fwer = max(oc.fwer for label, oc in ocs.items() if oc.fwer is not None)
    checks = [
        ("calibrated FWER <= 0.10 at the shared calibration stream",
         result.achieved_fwer <= 0.10, f"achieved {result.achieved_fwer:.4f} at q2={result.lam:.3f}"),
        ("FWER <= 0.10 (+MC allowance) in every scenario",
         worst_fwer <= 0.10 + FWER_MC_ALLOWANCE,
         f"max {worst_fwer:.4f} across scenarios"),
        ("'4 success' basket powers within 0.03 of (0.822, 0.816, 0.857, 0.852)",
         dev4 <= 0.03, f"{[round(r, 3) for r in rates4]}"),
    ]
    report("7 (heterogeneous null)", checks)


def test_criterion_08_six_baskets():
    """Six-basket fixed design (203 partitions): published error rate and
    global-alternative powers are reproduced."""
    template = DesignSpec.create(6, 19, 0.15, 0.45, lam=0.5, delta=2.0, stages=1)
    problem = CalibrationProblem(spec_template=template, n_sims=N_SIMS, seed=CAL_SEED)
    result = calibrate(problem)
    chosen = calibrated_spec(problem, result)
    null_oc = simulate(chosen, scenario_suite(chosen)[0], n_sims=N_SIMS, seed=EVAL_SEED)
    alt_oc = simulate(chosen, scenario_suite(chosen)[6], n_sims=N_SIMS, seed=EVAL_SEED)
    table_6s = (0.875, 0.860, 0.875, 0.868, 0.873, 0.874)
    dev6 = max(abs(r - t) for r, t in zip(alt_oc.per_basket_reject_rate, table_6s))
    checks = [
        ("global-null FWER within 0.02 of 0.096", abs(null_oc.fwer - 0.096) <= 0.02,
         f"{null_oc.fwer:.4f} at q2={result.lam:.3f}"),
        ("'6 success' basket powers within 0.03 of 0.860-0.875",
         dev6 <= 0.03, f"{[round(r, 3) for r in alt_oc.per_basket_reject_rate]}"),
    ]
    report("8 (six baskets)", checks)


def test_criterion_09_rational_oracle_equivalence():
    """Partition order, partition posterior and its top weight, similarity,
    borrowing posterior and effective sample size agree with an exact-rational
    brute-force oracle to 1e-9 over every trial with at most 3 baskets and 4
    patients per basket."""
    worst = 0.0
    cases = 0
    for num_baskets in (1, 2, 3):
        pairs = [(x, n) for n in range(5) for x in range(n + 1)]
        stack = [((), ())]
        for _ in range(num_baskets):
            stack = [((*xs, x), (*ns, n)) for xs, ns in stack for x, n in pairs]
        for x, n in stack:
            cases += 1
            oracle = RationalAnalysis(list(x), list(n), 2)
            result = analyze(BasketData.create(x, n), delta=2.0)
            pp = result.partition_posterior
            memberships = enumerate_partitions(num_baskets)
            assert [tuple(row) for row in memberships.tolist()] == oracle.memberships
            worst = max(
                worst,
                max(abs(pp.weights[j] - float(oracle.weights[j])) for j in range(len(memberships))),
                abs(pp.top_prob - float(oracle.top_prob)),
            )
            assert pp.top_index == oracle.top_index
            psi = result.similarity
            for s in range(num_baskets):
                for t in range(num_baskets):
                    worst = max(worst, abs(psi[s, t] - float(oracle.psi(s, t))))
            for b in range(num_baskets):
                post = result.posteriors[b]
                alpha, beta = oracle.local_params(b)
                worst = max(worst, abs(post.alpha - float(alpha)), abs(post.beta - float(beta)))
                worst = max(worst, abs(result.ess[b] - float(oracle.ess(b))))
    report(
        "9 (exact-rational oracle)",
        [("all quantities within 1e-9 of the oracle", worst < 1e-9,
          f"{cases} trials, max dev {worst:.2e}")],
    )


def test_criterion_10_worker_determinism(tmp_path):
    """The simulate command writes byte-identical CSV for 1, 4 and 16 workers."""
    import json

    config = {
        "spec": {
            "baskets": 4, "max_sizes": 16, "theta0": 0.15, "theta1": 0.45,
            "delta": 2.0, "lambda": 0.977, "gamma": 0.700271, "stages": 2,
            "interim_sizes": 10,
        },
        "scenarios": "suite",
        "n_sims": 500,
        "seed": 424242,
    }
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(config))
    # The pytest pythonpath setting does not reach a subprocess.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    blobs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "localmem.cli", "simulate", "--config", str(cfg),
             "--out", str(out), "--workers", str(workers)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "simulation.csv").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    report(
        "10 (worker determinism)",
        [("byte-identical CSV for workers in {1, 4, 16}", identical,
          f"{len(blobs[0])} bytes")],
    )


def test_criterion_11_numerics_suite():
    """Special-function accuracy: incomplete beta against quadrature on a
    1000-point grid, log-Beta identities and symmetry."""
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(1000):
        a = 10 ** rng.uniform(math.log10(0.6), math.log10(60.0))
        b = 10 ** rng.uniform(math.log10(0.6), math.log10(60.0))
        x = rng.uniform(0.0, 1.0)
        worst = max(worst, abs(reg_inc_beta(x, a, b) - reg_inc_beta_quadrature(x, a, b)))
    identities = max(
        abs(log_beta(1.0, 1.0)),
        abs(log_beta(3.0, 3.0) - math.log(1.0 / 30.0)),
        abs(log_beta(0.5, 0.5) - math.log(math.pi)),
    )
    sym = all(
        log_beta(a, b) == log_beta(b, a)
        for a, b in rng.uniform(0.01, 1000.0, size=(200, 2))
    )
    checks = [
        ("incomplete beta within 1e-8 of quadrature on 1000 points",
         worst <= 1e-8, f"max dev {worst:.2e}"),
        ("log-Beta identity cases exact to 1e-12", identities <= 1e-12, f"max dev {identities:.2e}"),
        ("log-Beta symmetry exact", sym, "200 random pairs"),
    ]
    report("11 (numerics)", checks)
