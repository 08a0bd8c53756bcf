"""Pinned outputs that a refactor of the solvers must leave unchanged."""

import hashlib

import pytest

from cmpc import ExperimentConfig, GenConfig, gen_instance, opt_solve, pd_solve, run_experiment
from cmpc.bench import rows_to_csv_text

# SHA-256 of each config's bench CSV as the per-pair Disk implementation
# produced it. Every pd, ncs and opt cover enters the CSV through its power,
# ratio and load variance, so a cover that changes changes the digest.
GOLDEN_CSV = [
    (
        ExperimentConfig(
            experiment_id="acceptance-determinism",
            sweep_variable="n",
            sweep_values=(6, 9),
            m=3,
            kbar=4.0,
            trials=4,
            seed_base=2024,
            oracle_budget=50_000,
        ),
        "4cc6a30aad85b7cf3b32e4b4d532a2ae5cf1ad58c24c0593580d5b917775ec67",
    ),
    (
        ExperimentConfig(
            experiment_id="golden-users",
            sweep_variable="n",
            sweep_values=(20, 80, 200),
            m=10,
            kbar=50.0,
            trials=2,
            seed_base=0,
        ),
        "dce14502678488e7fb3f877108d4dc2c7f75a2638e2cb56c68677052e7301671",
    ),
    (
        ExperimentConfig(
            experiment_id="golden-alpha",
            sweep_variable="alpha",
            sweep_values=(1.0, 2.5, 3.7),
            m=8,
            n=120,
            kbar=15.0,
            trials=2,
            seed_base=77,
        ),
        "6cb19927c9bea05f3e859fa2589086a3f4b3db1f12337548bb13ae8cda868179",
    ),
    (
        ExperimentConfig(
            experiment_id="golden-tight",
            sweep_variable="m_K",
            sweep_values=((5, 60), (10, 60)),
            n=60,
            trials=2,
            seed_base=5,
        ),
        "170a6b98af9d8f8841b1a3ac1cb7d18b99b50b3cc90c876eab516a4137412ff1",
    ),
]


@pytest.mark.parametrize("config, digest", GOLDEN_CSV, ids=[c.experiment_id for c, _ in GOLDEN_CSV])
def test_bench_csv_digest_is_pinned(config, digest, monkeypatch):
    monkeypatch.delenv("CMPC_SEED", raising=False)
    text = rows_to_csv_text(run_experiment(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_known_m_opt_exceedance_is_pinned():
    # Open fault, ROADMAP item 4: on this tight-capacity instance the ascent
    # pays 4.72 * OPT = 1.18 * m * OPT, above the paper's m * OPT bound.
    # Pinned so that any change to it shows; criterion 2 keeps checking the
    # bound on the ample-capacity suite.
    inst = gen_instance(GenConfig(m=4, n=10, kbar=3.0, seed=109065))
    pd_power = pd_solve(inst)[0].total_power
    result = opt_solve(inst)
    assert result.status == "optimal"
    assert result.nodes_explored == 1105
    assert pd_power == pytest.approx(15457.800512195146, rel=1e-12)
    assert result.value == pytest.approx(3273.316131872016, rel=1e-12)
    assert pd_power / (inst.m * result.value) == pytest.approx(1.1806, abs=1e-4)
