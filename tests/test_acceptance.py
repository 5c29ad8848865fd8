"""Acceptance gate: one test per published criterion, at stated tolerances.

Each test prints a PASS/FAIL line through the conftest report hook.  The
whole module is expected to run in well under five minutes.
"""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from cesnet.cli import main
from cesnet.econometrics import (
    PanelDataset,
    fe_2sls,
    fe_ols,
    iv_diagnostics,
)
from cesnet.economy import Economy, load_economy
from cesnet.equilibrium import (
    solve_cobb_douglas,
    solve_fixed_point,
    solve_leontief,
    solve_uniform_ces,
    unit_costs,
)
from cesnet.errors import NoPositiveSolution, WeakInstrumentWarning
from cesnet.gbm import estimate_gbm_dlm, estimate_gbm_moments
from cesnet.household import (
    COBB_DOUGLAS,
    GENERAL_CES,
    LEONTIEF,
    HouseholdPrefs,
)
from cesnet.montecarlo import (
    ShockConfig,
    hp_filter,
    price_index_dispersion,
    sample_shocks,
    simulate_distribution,
)
from cesnet.structure import equilibrium_structure, gradient_cost

from conftest import random_economy, random_shares

TEN_SECTOR_SEED = 42
SHOCKS_10K = ShockConfig(count=10000, sigma=0.2, seed=7)


def ten_sector_prefs():
    return HouseholdPrefs(mu=random_shares(1, 10), kappa=0.0)


def test_criterion_01_benchmark_fixed_point():
    """50 random economies solve to unit prices at z = 1 in under 1 s."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for k in range(50):
        n = int(rng.integers(2, 21))
        e = random_economy(k, n)
        res = solve_fixed_point(e, np.ones(n))
        assert res.converged
        np.testing.assert_allclose(res.pi, 1.0, atol=1e-10)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_closed_form_equivalence():
    """Recursion matches the closed forms on 100 random viable pairs."""
    gammas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for k in range(100):
        gamma = gammas[k % len(gammas)]
        rng = np.random.default_rng(1000 + k)
        n = int(rng.integers(2, 9))
        e = random_economy(1000 + k, n, gamma=gamma)
        z = np.exp(0.1 * rng.standard_normal(n))
        res = solve_fixed_point(e, z, tol=1e-12)
        assert res.converged
        if gamma == 0.0:
            closed = np.exp(solve_cobb_douglas(e, z))
        elif gamma == 1.0:
            closed = solve_leontief(e, z)
        else:
            closed = solve_uniform_ces(e, z, gamma)
        assert np.max(np.abs(res.pi - closed)) < 1e-8


def test_criterion_03_cobb_douglas_zero_mean():
    """Cobb-Douglas growth has zero mean and no skew under zero-mean shocks."""
    e = random_economy(TEN_SECTOR_SEED, 10, gamma=0.0)
    s = simulate_distribution(e, ten_sector_prefs(), SHOCKS_10K, COBB_DOUGLAS)
    assert s.n_unviable == 0
    bound = 4.0 * math.sqrt(s.variance) / math.sqrt(s.n_viable)
    assert abs(s.mean) <= bound
    assert abs(s.skewness) <= 0.1


def test_criterion_04_tail_asymmetry_signs():
    """Inelastic vs elastic economies flip the sign of mean and skew."""
    prefs = ten_sector_prefs()
    low = random_economy(TEN_SECTOR_SEED, 10, gamma=0.9)  # sigma = 0.1
    high = random_economy(TEN_SECTOR_SEED, 10, gamma=-0.5)  # sigma = 1.5
    s_low = simulate_distribution(low, prefs, SHOCKS_10K, GENERAL_CES)
    s_high = simulate_distribution(high, prefs, SHOCKS_10K, GENERAL_CES)
    assert s_low.mean < 0 and s_low.skewness < 0
    assert s_high.mean > 0 and s_high.skewness > 0


def test_criterion_04_magnitudes_with_external_data(tmp_path):
    """Optional magnitude check against externally supplied economy files."""
    io_table = os.environ.get("CESNET_JIP_IO_TABLE")
    elasticities = os.environ.get("CESNET_JIP_ELASTICITIES")
    prefs_path = os.environ.get("CESNET_JIP_PREFS")
    if not (io_table and elasticities and prefs_path):
        pytest.skip("external economy files not provided")
    rc = main([
        "experiment", "--economy", io_table, "--elasticities", elasticities,
        "--prefs", prefs_path, "--count", "10000", "--sigma", "0.2",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["methods"][LEONTIEF]["mean"] == pytest.approx(-0.0157, abs=0.003)
    assert report["methods"][GENERAL_CES]["mean"] == pytest.approx(0.0110, abs=0.003)


def test_criterion_05_variance_dilation():
    """The networked price index is strictly more volatile than the simple one."""
    for k in range(20):
        rng = np.random.default_rng(2000 + k)
        n = int(rng.integers(2, 9))
        e = random_economy(2000 + k, n)
        assert e.A.sum() > 0
        m = random_shares(2000 + k, n)
        cfg = ShockConfig(count=1000, sigma=0.2, seed=2000 + k)
        ln_cd, ln_se = price_index_dispersion(e, m, sample_shocks(n, cfg))
        assert np.var(ln_cd) > np.var(ln_se)


def test_criterion_06_unviability_detection():
    """Failing the leading-minor test raises, and samples are excluded."""
    e = Economy(
        labels=("u", "v"),
        A=[[0.2, 0.3], [0.3, 0.2]],
        a0=[0.5, 0.5],
        gamma=[1.0, 1.0],
    )
    z = np.array([0.4, 0.4])
    # First leading minor of diag(z) - A is positive, the determinant is not.
    assert (z[0] - 0.2) > 0 and np.linalg.det(np.diag(z) - e.A) < 0
    with pytest.raises(NoPositiveSolution):
        solve_leontief(e, z)
    prefs = HouseholdPrefs(mu=[0.5, 0.5])
    cfg = ShockConfig(count=500, sigma=1.0, seed=3)
    s = simulate_distribution(e, prefs, cfg, LEONTIEF)
    assert s.n_unviable > 0
    assert s.n_viable + s.n_unviable == 500


def test_criterion_07_gradient_and_euler():
    """Analytic gradients match finite differences; Euler identity holds."""
    h = 1e-6
    points = 0
    for k in range(20):
        rng = np.random.default_rng(3000 + k)
        e = random_economy(3000 + k, 4)
        for _ in range(5):
            z = np.exp(0.1 * rng.standard_normal(4))
            res = solve_fixed_point(e, z, tol=1e-13)
            assert res.converged
            pi = res.pi
            grad, grad0 = gradient_cost(e, pi, 1.0, z)
            fd = np.empty((4, 4))
            for i in range(4):
                up, dn = pi.copy(), pi.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (unit_costs(e, up) - unit_costs(e, dn)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)
            st = equilibrium_structure(e, pi, 1.0, z)
            np.testing.assert_allclose(pi @ st.B + st.b0, pi, atol=1e-9)
            points += 1
    assert points == 100


def test_criterion_08_gbm_recovery():
    """Both estimators land within 3 s.e. of truth on >= 90% of paths."""
    mu, sigma, ell = 0.05, 0.2, 1000
    rng = np.random.default_rng(4)
    mu_ratio = math.exp(mu) - 1.0
    sd_ratio = math.exp(mu) * math.sqrt(math.exp(sigma**2) - 1.0)
    ok_moments = ok_ratio = 0
    for _ in range(200):
        steps = rng.normal(mu - sigma**2 / 2, sigma, ell - 1)
        x = np.exp(np.concatenate(([0.0], steps)).cumsum())
        em = estimate_gbm_moments(x)
        se_mu = em.sigma_hat / math.sqrt(ell - 1)
        se_sd = em.sigma_hat / math.sqrt(2 * (ell - 1))
        if (
            abs(em.mu_hat - mu) <= 3 * se_mu
            and abs(em.sigma_hat - sigma) <= 3 * se_sd
        ):
            ok_moments += 1
        ed = estimate_gbm_dlm(x)
        se_mu = ed.sigma_hat / math.sqrt(ell - 1)
        se_sd = ed.sigma_hat / math.sqrt(2 * (ell - 1))
        if (
            abs(ed.mu_hat - mu_ratio) <= 3 * se_mu
            and abs(ed.sigma_hat - sd_ratio) <= 3 * se_sd
        ):
            ok_ratio += 1
    assert ok_moments >= 180
    assert ok_ratio >= 180


def test_criterion_08_reference_tfp_table():
    """Optional check of published drift/volatility rows on external TFP data."""
    path = os.environ.get("CESNET_JIP_TFP")
    if not path:
        pytest.skip("external TFP input not provided")
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = rows[0]
    data = np.array([[float(c) for c in r] for r in rows[1:]])
    agri = data[:, names.index("Agriculture")]
    est = estimate_gbm_dlm(agri)
    assert round(est.mu_hat, 3) == 0.015
    assert round(est.sigma_hat, 3) == 0.051


def test_criterion_09_hp_filter_exactness():
    """Banded HP solve matches a dense oracle; linear series has no cycle."""
    rng = np.random.default_rng(5)
    y = rng.standard_normal(300).cumsum()
    lam = 1600.0
    T = y.size
    K = np.zeros((T - 2, T))
    for t in range(T - 2):
        K[t, t : t + 3] = (1.0, -2.0, 1.0)
    oracle = np.linalg.solve(np.eye(T) + lam * K.T @ K, y)
    trend, cycle = hp_filter(y, lam)
    assert np.max(np.abs(trend - oracle)) < 1e-9
    lin = 0.3 * np.arange(300.0) - 5.0
    _, lin_cycle = hp_filter(lin, lam)
    assert np.max(np.abs(lin_cycle)) < 1e-10


def _synthetic_panel(seed, N, T, gamma, noise, endogeneity, n_inst=2,
                     strength=0.7):
    rng = np.random.default_rng(seed)
    entity = np.repeat(np.arange(N), T)
    period = np.tile(np.arange(1, T + 1), N)
    alpha = np.repeat(rng.normal(0, 1, N), T)
    delta = np.tile(rng.normal(0, 0.5, T), N)
    u = rng.normal(0, noise, N * T) if noise > 0 else np.zeros(N * T)
    inst = {f"iv{j}": rng.normal(0, 1, N * T) for j in range(n_inst)}
    x = rng.normal(0, 0.3, N * T) + endogeneity * u
    for v in inst.values():
        x = x + strength * v
    y = alpha + delta + gamma * x + u
    return PanelDataset(entity=entity, period=period, y=y, x=x,
                        instruments=inst)


def test_criterion_10_econometrics_recovery():
    """Exact noiseless recovery, 2SLS bias correction, 5% test sizes,
    first-stage F threshold behavior."""
    exact = fe_ols(_synthetic_panel(0, 50, 20, -0.5, 0.0, 0.0))
    assert exact.coef == pytest.approx(-0.5, abs=1e-10)

    endo = _synthetic_panel(1, 300, 8, 0.6, 0.5, 1.0)
    ols = fe_ols(endo)
    iv = fe_2sls(endo, ["iv0", "iv1"])
    assert abs(ols.coef - 0.6) > 3 * ols.se
    assert abs(iv.coef - 0.6) <= 3 * iv.se

    sargan_rej = dm_rej = 0
    reps = 500
    for r in range(reps):
        p = _synthetic_panel(100 + r, 50, 5, 0.6, 0.5, 0.0)
        d = iv_diagnostics(p, ["iv0", "iv1"])
        sargan_rej += d.sargan_p < 0.05
        dm_rej += d.endogeneity_p < 0.05
    assert 0.03 <= sargan_rej / reps <= 0.07
    assert 0.03 <= dm_rej / reps <= 0.07

    weak = _synthetic_panel(2, 30, 5, 0.5, 1.0, 0.0, n_inst=1, strength=0.01)
    with pytest.warns(WeakInstrumentWarning):
        est = fe_2sls(weak, ["iv0"])
    assert est.diagnostics.first_stage_f < 10
    strong = _synthetic_panel(3, 100, 8, 0.5, 0.3, 0.0, n_inst=1, strength=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", WeakInstrumentWarning)
        est = fe_2sls(strong, ["iv0"])
    assert est.diagnostics.first_stage_f > 10


@pytest.mark.usefixtures("force_pool")
def test_criterion_11_experiment_determinism(tmp_path):
    """Same seed gives byte-identical outputs under 1 and 8 workers."""
    e = random_economy(6, 4)
    from cesnet.economy import save_economy

    io_path = tmp_path / "io.csv"
    el_path = tmp_path / "el.csv"
    save_economy(e, io_path, el_path)
    mu = random_shares(6, 4)
    mu_path = tmp_path / "mu.csv"
    mu_path.write_text(
        "".join(f"{lab},{repr(float(v))}\n" for lab, v in zip(e.labels, mu))
    )
    args = [
        "experiment", "--economy", str(io_path), "--elasticities",
        str(el_path), "--prefs", str(mu_path), "--count", "400",
        "--sigma", "0.2", "--seed", "77",
    ]
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(args + ["--workers", "1", "--outdir", str(out1)]) == 0
    assert main(args + ["--workers", "8", "--outdir", str(out8)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names8 = sorted(p.name for p in out8.iterdir())
    assert names1 == names8 and len(names1) >= 10
    for name in names1:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
