import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpc import ExperimentConfig, GenConfig, gen_instance
from cmpc.cli import cli
from cmpc.generate import adjust_capacities
from cmpc.model import instance_to_json_dict


def test_adjust_capacities_examples():
    assert adjust_capacities([3, 3], 8) == [4, 4]
    assert adjust_capacities([10, 10], 8) == [10, 10]
    assert adjust_capacities([0, 0, 0], 2) == [1, 1, 0]


@settings(max_examples=80)
@given(
    caps=st.lists(st.integers(0, 20), min_size=1, max_size=8),
    n=st.integers(1, 60),
)
def test_adjust_capacities_reaches_demand(caps, n):
    adjusted = adjust_capacities(caps, n)
    assert sum(adjusted) >= n
    assert all(a >= c for a, c in zip(adjusted, caps))
    if sum(caps) >= n:
        assert adjusted == caps
    else:
        assert sum(adjusted) == n
        spread = [a - c for a, c in zip(adjusted, caps)]
        assert max(spread) - min(spread) <= 1


def test_seed_determinism():
    cfg = GenConfig(m=5, n=40, kbar=10.0, seed=42)
    assert gen_instance(cfg) == gen_instance(cfg)
    other = gen_instance(GenConfig(m=5, n=40, kbar=10.0, seed=43))
    assert other != gen_instance(cfg)


def test_reference_configuration_capacity():
    inst = gen_instance(GenConfig(m=5, n=100, kbar=50.0, seed=42))
    assert inst.m == 5 and inst.n == 100
    assert inst.total_capacity >= 100
    caps = [s.capacity for s in inst.servers]
    assert all(25 <= k <= 75 for k in caps)


def test_positions_respect_areas():
    cfg = GenConfig(m=20, n=50, kbar=5.0, seed=7, lam=0.4, l=100.0)
    inst = gen_instance(cfg)
    lo, hi = (100.0 - 40.0) / 2.0, (100.0 + 40.0) / 2.0
    for s in inst.servers:
        assert lo <= s.pos.x <= hi and lo <= s.pos.y <= hi
    for u in inst.users:
        assert 0.0 <= u.pos.x <= 100.0 and 0.0 <= u.pos.y <= 100.0


def test_full_lambda_spans_domain():
    inst = gen_instance(GenConfig(m=200, n=1, kbar=1.0, seed=3, lam=1.0))
    xs = [s.pos.x for s in inst.servers]
    assert min(xs) < 20.0 and max(xs) > 80.0


def test_zero_lambda_warns_and_stacks_servers():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = gen_instance(GenConfig(m=3, n=3, kbar=2.0, seed=1, lam=0.0))
    assert any("coincide" in str(w.message) for w in caught)
    positions = {(s.pos.x, s.pos.y) for s in inst.servers}
    assert positions == {(50.0, 50.0)}


def test_marginal_means_near_center():
    # 10^4 uniform draws: sample mean within 3 sigma of l/2.
    inst = gen_instance(GenConfig(m=1, n=10_000, kbar=10_000.0, seed=11))
    xs = np.array([u.pos.x for u in inst.users])
    ys = np.array([u.pos.y for u in inst.users])
    sigma = (100.0 / math.sqrt(12.0)) / math.sqrt(10_000)
    assert abs(xs.mean() - 50.0) < 3 * sigma
    assert abs(ys.mean() - 50.0) < 3 * sigma


@pytest.mark.parametrize("kbar", [1e-9, 0.3, 0.5, 0.66, math.inf, math.nan])
def test_kbar_without_integer_capacity_rejected(kbar):
    # No integer lies in [kbar/2, 3*kbar/2] for 0 < kbar < 2/3, nor for a non-finite kbar.
    with pytest.raises(ValueError, match="kbar"):
        GenConfig(m=12, n=2, kbar=kbar, seed=1)


@pytest.mark.parametrize("kbar", [2 / 3, 0.7, 1.0])
def test_smallest_drawable_kbar_values_generate(kbar):
    inst = gen_instance(GenConfig(m=12, n=2, kbar=kbar, seed=1))
    assert inst.total_capacity >= 2


def test_zero_kbar_capacities_come_from_adjustment():
    inst = gen_instance(GenConfig(m=3, n=2, kbar=0.0, seed=5))
    assert [s.capacity for s in inst.servers] == [1, 1, 0]


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(m=0, n=1, kbar=1.0, seed=0)
    with pytest.raises(ValueError):
        GenConfig(m=1, n=0, kbar=1.0, seed=0)
    with pytest.raises(ValueError):
        GenConfig(m=1, n=1, kbar=-1.0, seed=0)
    with pytest.raises(ValueError):
        GenConfig(m=1, n=1, kbar=1.0, seed=0, lam=1.5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        GenConfig(m=1, n=1, kbar=1.0, seed=-1)
    with pytest.raises(ValueError, match="oracle_budget must be >= 0"):
        ExperimentConfig(experiment_id="x", sweep_variable="n", sweep_values=(5,), oracle_budget=-5)


# SHA-256 of each draw's instance JSON (keys sorted), as drawn when
# gen_instance wrapped every numpy coordinate in float(): a concentrated
# server area, a power unit and exponent other than 1 and 2, one server,
# and one user with a side other than 100.
PINNED_DRAWS = [
    (GenConfig(m=6, n=40, kbar=10.0, seed=21, lam=0.25), "1d502ddbaed9f193aa95cae43507160a81e643746499613bc21e97c27e437c28"),
    (GenConfig(m=4, n=30, kbar=9.0, seed=22, c=1e-3, alpha=3.7), "aaad12eae92651657cc57b6e052454f62811628584d9d47ebb5ac2aaa74b8015"),
    (GenConfig(m=1, n=12, kbar=4.0, seed=23, alpha=1.0), "c83cb7df2253797f54a220591631f7827af7ecc1da6fb6aec418ce66f65186e4"),
    (GenConfig(m=5, n=1, kbar=0.0, seed=24, l=7.5), "f45013a492e6aae1a3c0144926f42236ae9cdc862d333be8c10470e37be1847c"),
]


@pytest.mark.parametrize("config, digest", PINNED_DRAWS, ids=["lam", "c-alpha", "m1", "n1"])
def test_instance_draws_are_pinned(config, digest):
    text = json.dumps(instance_to_json_dict(gen_instance(config)), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"kbar": 1e19}, "kbar is too large: the largest capacity drawn, floor(3*kbar/2), exceeds 2**63 - 1, got 1e+19"),
        ({"kbar": 1e300}, "kbar is too large"),
        ({"l": math.nan}, "side length l must be finite and positive, got nan"),
        ({"l": math.inf}, "side length l must be finite and positive, got inf"),
        ({"l": 0.0}, "side length l must be finite and positive, got 0.0"),
        ({"c": -1.0}, "power scale c must be positive, got -1.0"),
        ({"alpha": 0.5}, "attenuation factor alpha must be >= 1, got 0.5"),
    ],
    ids=["kbar-1e19", "kbar-1e300", "l-nan", "l-inf", "l-zero", "c", "alpha"],
)
def test_config_rejects_draws_numpy_cannot_make(overrides, message):
    # Each would otherwise pass here and fail later in gen_instance, inside
    # numpy or PowerParams, with a traceback.
    with pytest.raises(ValueError) as caught:
        GenConfig(**{**dict(m=2, n=5, kbar=3.0, seed=1), **overrides})
    assert str(caught.value).startswith(message) and "\n" not in str(caught.value)


def test_largest_drawable_kbar_generates():
    # The largest kbar whose floor(3 * kbar / 2) is below 2**63.
    kbar = 2.0**63 * 2.0 / 3.0
    while math.floor(3.0 * kbar / 2.0) > 2**63 - 1:
        kbar = math.nextafter(kbar, 0.0)
    inst = gen_instance(GenConfig(m=3, n=4, kbar=kbar, seed=2))
    assert inst.capacity.dtype == np.int64
    lo, hi = math.ceil(kbar / 2.0), math.floor(3.0 * kbar / 2.0)
    assert hi <= 2**63 - 1
    assert all(lo <= k <= hi for k in inst.capacity.tolist())
    with pytest.raises(ValueError, match="kbar is too large"):
        GenConfig(m=3, n=4, kbar=2.0**63 * 2.0 / 3.0, seed=2)


def test_draw_fills_the_arrays():
    inst = gen_instance(GenConfig(m=4, n=9, kbar=3.0, seed=6))
    assert inst.server_xy.shape == (4, 2) and inst.user_xy.shape == (9, 2) and inst.capacity.shape == (4,)
    assert [(s.pos.x, s.pos.y, s.capacity) for s in inst.servers] == [
        (x, y, k) for (x, y), k in zip(inst.server_xy.tolist(), inst.capacity.tolist())
    ]


FIXTURE = Path(__file__).parent / "fixtures" / "gen_m3_n20_kbar10.json"


def test_gen_writes_the_committed_instance_bytes(tmp_path):
    # FIXTURE holds `cmpc gen --m 3 --n 20 --kbar 10` as an Instance of
    # Server and User objects wrote it; the arrays must write the same bytes.
    assert cli(["gen", "--m", "3", "--n", "20", "--kbar", "10", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "instance_00000000.json").read_bytes() == FIXTURE.read_bytes()
