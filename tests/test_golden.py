"""Pinned outputs that a refactor of the solvers must leave unchanged."""

import hashlib
import json

import numpy as np
import pytest

from cmpc import (
    ExperimentConfig,
    GenConfig,
    Instance,
    Point,
    PowerParams,
    Server,
    User,
    gen_instance,
    ncs_solve,
    opt_solve,
    pd_solve,
    run_experiment,
)
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
def test_bench_csv_digest_is_pinned(config, digest):
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
    assert result.nodes_explored == 147
    assert pd_power == pytest.approx(15457.800512195146, rel=1e-12)
    assert result.value == pytest.approx(3273.316131872016, rel=1e-12)
    assert pd_power / (inst.m * result.value) == pytest.approx(1.1806, abs=1e-4)


def ascent_instances():
    # Ample (kbar 2n) and tight (kbar n/m, total capacity about n) capacity
    # alternate; alpha cycles through 1, 2 and 3.3.
    for i in range(20):
        m, n = 2 + i % 7, 15 + 9 * i
        kbar = float(n) / m if i % 2 else 2.0 * n
        yield gen_instance(GenConfig(m=m, n=n, kbar=kbar, seed=4000 + i, alpha=(1.0, 2.0, 3.3)[i % 3]))
    # Users on an integer grid: many disks go tight at the same clock.
    users = tuple(User(j, Point(float(j % 5), float(j // 5))) for j in range(20))
    for capacities in ((20, 20, 20), (8, 6, 6)):
        servers = tuple(
            Server(i, Point(x, y), k) for i, ((x, y), k) in enumerate(zip(((0.0, 0.0), (4.0, 0.0), (2.0, 3.0)), capacities))
        )
        yield Instance(PowerParams(1.0, 2.0), servers, users)


# SHA-256 of the ascent's event traces and closed-form prices on
# ascent_instances(), as the ascent with an incrementally patched uncovered
# census produced them. mu is left out: it depends on the summation order of
# finalize, which test_finalize_matches_per_disk_reference checks instead.
ASCENT_DIGEST = "44cd7b5ef71737e89ccdc5e3a8781b4b1102536fb4faf2528cf96916dec6dd80"


def test_ascent_traces_and_prices_are_pinned():
    digest = hashlib.sha256()
    for instance in ascent_instances():
        _, duals, trace = pd_solve(instance)
        for ev in trace:
            fields = (ev.clock, ev.server, ev.boundary_user, ev.rank, ev.disk_index,
                      ev.newly_covered, ev.power, ev.remaining_after)
            digest.update(repr(fields).encode("utf-8"))
        for prices in (duals.theta, duals.beta, duals.gamma_start, duals.covered_at):
            digest.update(np.ascontiguousarray(prices, dtype=np.float64).tobytes())
    assert digest.hexdigest() == ASCENT_DIGEST


def oracle_size_instances():
    # Ample (2.5x demand) and tight (about n) total capacity alternate.
    for i in range(20):
        m, n = 1 + i % 4, 4 + i % 6
        kbar = 2.5 * n / m if i % 2 else float(n) / m
        yield gen_instance(GenConfig(m=m, n=n, kbar=kbar, seed=8000 + i, alpha=(1.0, 2.0, 3.3)[i % 3]))


# SHA-256 of the cover JSON and total power of pd and ncs on
# ascent_instances() and oracle_size_instances(), and of opt's optimal covers
# on the latter, as the Disk-object solutions produced them.
COVER_DIGEST = "8b4109b93037c4a62037c40402439a32d5b954b2599bb198a06c4d117fcc03b5"


def test_cover_json_is_pinned():
    digest = hashlib.sha256()

    def add(solution):
        digest.update(json.dumps(solution.to_json_dict()).encode("utf-8"))
        digest.update(repr(solution.total_power).encode("utf-8"))

    small = list(oracle_size_instances())
    for instance in [*ascent_instances(), *small]:
        add(pd_solve(instance)[0])
        add(ncs_solve(instance))
    for instance in small:
        result = opt_solve(instance)
        if result.status == "optimal":
            add(result.solution)
    assert digest.hexdigest() == COVER_DIGEST
