"""Golden-bytes regression tests of ``cesnet experiment`` and ``estimate``.

The SHA-256 of every ``experiment`` output file is pinned for two small
runs: the mixed-elasticity ten-sector economy of the acceptance criteria,
and an inelastic economy (gamma = 0.9) under large shocks (sigma = 0.5),
where two of the 300 Leontief draws are unviable.  The digests were recorded
with the per-draw scalar solver, so they guard the batched engine against
any change of the output bytes.  Each run is repeated with three workers,
with the work floor dropped so that they solve three blocks on a thread
pool.

The ``estimate.json`` digests pin an LS and an IV run on a shuffled panel
with period gaps, recorded with the per-entity mask-scan instrument
transform and a fit that built its design twice.

The ``structure`` outputs of an economy with log-limit sectors
(|gamma| < GAMMA_SWITCH) and the two ``save_economy`` files of labels that
need quoting were recorded with separate cost kernels for economies with and
without such sectors and with ``csv.writer`` in ``save_economy``.

The ``gbm`` outputs of a short level table (nine growth rates, Royston's
small-sample p-value) and a long one (59 growth rates, his large-sample
p-value), and the ``hp`` output at the default lambda, were recorded with
``scipy.stats`` supplying the normal quantiles and tail probability and
with ``scipy.linalg`` imported at module level by ``cesnet.montecarlo``.
"""

import csv
import hashlib

import numpy as np

import pytest

from cesnet.cli import main
from cesnet.economy import save_economy

from conftest import random_economy, random_shares

MIXED = {
    "qq_cobb_douglas.csv": "41e014274902f7b32316337f7b6009e065d1bd240326f34dfca80f73a5d88ec6",
    "qq_general_ces.csv": "20182f412ba4dc3eace0003013bdfc4a038f6ec11f59ca9530882602822be7a7",
    "qq_leontief.csv": "451b644204434f33dd41b305148fcfe576d4c5b3d263f192e864ff594065be16",
    "report.json": "f1542b179147535cb22b96e017b12224f4a5fd884754db9ed02b3c939e256772",
    "samples_cobb_douglas.csv": "c9c2aed1a2d20655e7a5d3e5fb500c554993b123b2322b9d29422c3881e795f5",
    "samples_general_ces.csv": "0847874ec43eb8ef7b4c46784a98bba782123688429b36b1e738cca777a1b542",
    "samples_leontief.csv": "62d35b653a2cdf8c1e6dc069cdb58d44aed3e4747f9b67dd54489758cb7525a4",
    "summary_cobb_douglas.json": "fc1a3c5a7716af513a687d41f1fdc2846f9c2bf53fab215c6dc12938631cba00",
    "summary_general_ces.json": "b08a48305f6a2a1d4038ec61e0bd181c4155c474f28f6464e209c4eda2e70443",
    "summary_leontief.json": "0dd47870ae1bceef84db4461c8ae687c557113d185374c180235ce19eb28eaa3",
}

INELASTIC = {
    "qq_cobb_douglas.csv": "2d4beba5843636685f84f9c4425ca461d1933ef7f6e70597623458149cc1528f",
    "qq_general_ces.csv": "9fce8ccd3861b30c751922236ec6ede4579b0500dae2bbebae9915c811989b97",
    "qq_leontief.csv": "295f600f899509d5c4a1be3f116a911d92c74253167d9cf807e2c9f7f12c2062",
    "report.json": "d14f05423b98fc89da7f7faad1ec95cde486ceb31d9449f00854cd4ab391f489",
    "samples_cobb_douglas.csv": "3a751fa46524e56f87306778c744b4bc6bf8bc3b0916718bf84e1bc7b95e5411",
    "samples_general_ces.csv": "36e3c3215fee276c4ea3e3ef16c1412c7ddab63c194f98b30360b5d18583cacb",
    "samples_leontief.csv": "1168f59f30d389d7f887a83b544bae1320313e51a0e6f197ee91ed2303b84ebf",
    "summary_cobb_douglas.json": "08baf8d4ab0e9b1931e67101631f3ef9443b4f41c125b5e0b9f09c428fda5d2d",
    "summary_general_ces.json": "a88a8259504d042361287c60ef381d621d8fa34987b0235b9d32537195900fef",
    "summary_leontief.json": "2cbdd9bc99c03d3fb585b57736f155ee4eb8243214a3e5d5d9262fedfd8daa5d",
}


def experiment_digests(tmp_path, economy, sigma, workers):
    io_path, el_path, mu_path = (tmp_path / f for f in ("io.csv", "el.csv", "mu.csv"))
    save_economy(economy, io_path, el_path)
    mu = random_shares(1, economy.n)
    mu_path.write_text(
        "".join(f"{lab},{float(v)!r}\n" for lab, v in zip(economy.labels, mu))
    )
    out = tmp_path / "out"
    assert main([
        "experiment", "--economy", str(io_path), "--elasticities", str(el_path),
        "--prefs", str(mu_path), "--count", "300", "--sigma", repr(sigma),
        "--seed", "7", "--workers", str(workers), "--outdir", str(out),
    ]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.usefixtures("force_pool")
@pytest.mark.parametrize("workers", [1, 3])
def test_mixed_elasticity_outputs_pinned(tmp_path, workers):
    economy = random_economy(42, 10)
    assert experiment_digests(tmp_path, economy, 0.2, workers) == MIXED


@pytest.mark.usefixtures("force_pool")
@pytest.mark.parametrize("workers", [1, 3])
def test_inelastic_outputs_with_unviable_draws_pinned(tmp_path, workers):
    economy = random_economy(42, 10, gamma=0.9)
    assert experiment_digests(tmp_path, economy, 0.5, workers) == INELASTIC


ESTIMATE = {
    "ls": "a854a25a6b2773321a17d50d77c03734e4967ed6d76cbc307d66b04da5a6f4a0",
    "iv": "603d6c8e1e1a7799e7da9f1631396d98c97dfb8275dac4cc5b5fb2a9b3ad7d17",
}


def write_golden_panel(path):
    """25 entities over 8 periods, two instruments, rows shuffled and 10
    rows dropped, so lags and leads must sort and skip period gaps."""
    rng = np.random.default_rng(5)
    rows = []
    alpha = rng.normal(0, 0.5, 25)
    delta = rng.normal(0, 0.2, 8)
    for i in range(25):
        for t in range(8):
            w, v = rng.normal(0, 1, 2)
            lnp = 0.6 * w + 0.4 * v + rng.normal(0, 0.2)
            lns = alpha[i] + delta[t] + 0.5 * lnp + rng.normal(0, 0.2)
            rows.append([
                f"e{i}", t + 1, repr(float(np.exp(lns))),
                repr(float(np.exp(lnp))), repr(float(w)), repr(float(v)),
            ])
    keep = rng.permutation(len(rows))[10:]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity", "period", "share", "price", "inst_w", "inst_v"])
        writer.writerows(rows[k] for k in keep)


@pytest.mark.parametrize("run, flags", [
    ("ls", ["--method", "ls"]),
    ("iv", ["--method", "iv", "--iv", "w,lv,fw,dv"]),
])
def test_estimate_output_pinned(tmp_path, run, flags):
    panel, out = tmp_path / "panel.csv", tmp_path / "estimate.json"
    write_golden_panel(panel)
    assert main(["estimate", "--panel", str(panel), *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ESTIMATE[run]


def log_limit_economy():
    """The mixed ten-sector economy with one Cobb-Douglas sector (gamma = 0)
    and one just inside the log-limit switch (gamma = 1e-10)."""
    economy = random_economy(42, 10)
    gamma = economy.gamma.copy()
    gamma[[2, 5]] = 0.0, 1e-10
    return random_economy(42, 10, gamma=gamma)


STRUCTURE = {
    "b_matrix.csv": "f7c3d0cb64525d97aa79d389e0b8f296dc3f95bf8465b197062968632c707fe3",
    "s_matrix.csv": "0b1b277598c3b7172009a4b954904da4d445df1027e8f3643533e82ce46a0479",
    "structure.json": "da4dd14ffd6c9dcc578b929c0f478b374a9392a937b43973f0899081e641303f",
}


def test_structure_outputs_with_log_limit_sectors_pinned(tmp_path):
    economy = log_limit_economy()
    io_path, el_path, z_path = (tmp_path / f for f in ("io.csv", "el.csv", "z.csv"))
    save_economy(economy, io_path, el_path)
    z = np.exp(np.random.default_rng(3).normal(0.0, 0.2, economy.n))
    z_path.write_text(
        "".join(f"{lab},{float(v)!r}\n" for lab, v in zip(economy.labels, z))
    )
    out = tmp_path / "out"
    assert main([
        "structure", "--economy", str(io_path), "--elasticities", str(el_path),
        "--shocks", str(z_path), "--outdir", str(out),
    ]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == STRUCTURE


SAVED_ECONOMY = {
    "io.csv": "4f727b46d8968889b05c66cf43b1e9509f7ce61fbb9510c8d5449f2af9350ed6",
    "el.csv": "fd4162736e92e70ec5d2c7b2b191d29c87062a3d1be6dfdeb38238ef1333d7b9",
}


def test_saved_economy_with_quoted_labels_pinned(tmp_path):
    """Labels with a comma, a quote, a line break and spaces are quoted as
    ``csv.writer`` quotes them."""
    base = random_economy(7, 5)
    labels = ("a,b", 'say "hi"', "two\nlines", " padded ", "plain")
    economy = type(base)(labels=labels, A=base.A, a0=base.a0, gamma=base.gamma)
    save_economy(economy, tmp_path / "io.csv", tmp_path / "el.csv")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SAVED_ECONOMY} == SAVED_ECONOMY


GBM = {
    "short": "248591a095acb8028dc320ec6f6449f80d0c32148501b6cb20c1e99954ee8716",
    "long": "f773586e5c41cb7984f66bef94941547ef5d84948ea92fa4f3fc04a640578b5b",
}


@pytest.mark.parametrize("table, rows", [("short", 10), ("long", 60)])
def test_gbm_outputs_pinned(tmp_path, table, rows):
    rng = np.random.default_rng(11)
    levels = np.exp(np.cumsum(rng.normal(0.01, 0.05, (rows, 2)), axis=0))
    path = tmp_path / "levels.csv"
    path.write_text("a,b\n" + "".join(
        f"{float(x)!r},{float(y)!r}\n" for x, y in levels))
    assert main(["gbm", "--input", str(path), "--outdir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "gbm.csv").read_bytes()).hexdigest()
    assert digest == GBM[table]


HP = "b5b844de90f072179a6ea9231bf8d5c93a537964750a786dd2ce1780dc555fd5"


def test_hp_output_pinned(tmp_path):
    rng = np.random.default_rng(12)
    y = np.cumsum(rng.normal(0.0, 1.0, 80)) + 0.1 * np.arange(80)
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in y))
    assert main(["hp", "--input", str(path), "--lam", "1600",
                 "--outdir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "hp.csv").read_bytes()).hexdigest() == HP
