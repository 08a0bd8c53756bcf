import pytest

from cmpc import (
    GenConfig,
    Instance,
    Point,
    PowerParams,
    Server,
    User,
    gen_instance,
    pd_solve,
    validate,
)
from cmpc.metrics import approximation_ratio, util_variance
from cmpc.model import order_table
from cmpc.solution import make_solution


def make_instance(server_specs, user_points, c=1.0, alpha=2.0):
    servers = tuple(Server(i, Point(x, y), k) for i, (x, y, k) in enumerate(server_specs))
    users = tuple(User(j, Point(x, y)) for j, (x, y) in enumerate(user_points))
    return Instance(PowerParams(c, alpha), servers, users)


def test_validate_accepts_solver_output():
    inst = gen_instance(GenConfig(m=3, n=15, kbar=6.0, seed=55))
    sol, _, _ = pd_solve(inst)
    report = validate(inst, sol)
    assert report.ok and report.violations == ()


def test_validate_flags_user_outside_disk():
    inst = make_instance([(0.0, 0.0, 2)], [(1.0, 0.0), (2.0, 0.0)])
    bad = make_solution(inst, [0], [0, 0])  # small disk excludes user 1
    report = validate(inst, bad)
    assert not report.ok
    assert report.violations == (("containment", "server 0's disk does not contain assigned user 1"),)


def test_validate_covers_users_at_exactly_the_radius():
    # Mirror images across the server's x-axis are equidistant; the order
    # table puts user 0 (positive y) first, so the rank-0 disk has user 0 on
    # its boundary and user 1 past it in key order. Both lie at the disk's
    # radius, so both are covered.
    inst = make_instance([(0.0, 0.0, 2)], [(1.0, 1.0), (1.0, -1.0)])
    assert order_table(inst).order[0].tolist() == [0, 1]
    tied = make_solution(inst, [0], [0, 0])
    assert validate(inst, tied).ok
    # A nudge past the radius is outside.
    nudged = make_instance([(0.0, 0.0, 2)], [(1.0, 1.0), (1.0, -1.0000001)])
    report = validate(nudged, make_solution(nudged, [0], [0, 0]))
    assert report.violations == (("containment", "server 0's disk does not contain assigned user 1"),)


def test_validate_flags_overloaded_server():
    inst = make_instance(
        [(0.0, 0.0, 1), (3.0, 0.0, 1)],
        [(1.0, 0.0), (2.0, 0.0)],
    )
    bad = make_solution(inst, [1, -1], [0, 0])
    report = validate(inst, bad)
    assert report.violations == (("capacity", "server 0 serves 2 users, capacity 1"),)


def test_validate_flags_assignment_to_diskless_server():
    inst = make_instance([(0.0, 0.0, 2)], [(1.0, 0.0)])
    bad = make_solution(inst, [-1], [0])
    report = validate(inst, bad)
    assert report.violations == (("no-disk", "user 0 assigned to server 0 which selected no disk"),)


def test_validate_unassigned_user_loads_no_server():
    # User 1 is unassigned (-1); server 1 serves user 2 alone, within its
    # capacity of 1.
    inst = make_instance(
        [(0.0, 0.0, 2), (5.0, 0.0, 1)],
        [(1.0, 0.0), (4.0, 0.0), (6.0, 0.0)],
    )
    bad = make_solution(inst, [1, 1], [0, -1, 1])
    assert bad.loads() == [1, 1]
    report = validate(inst, bad)
    assert report.violations == (("coverage", "user 1 is not assigned to any server"),)


def test_util_variance_values():
    balanced = make_instance(
        [(0.0, 0.0, 2), (5.0, 0.0, 2)],
        [(0.1, 0.0), (0.2, 0.0), (4.9, 0.0), (4.8, 0.0)],
    )
    sol = make_solution(balanced, [1, 1], [0, 0, 1, 1])
    assert util_variance(balanced, sol) == 0.0

    lopsided = make_solution(balanced, [3, -1], [0, 0, 0, 0])
    assert util_variance(balanced, lopsided) == 4.0


def test_util_variance_uneven_three_servers():
    inst = make_instance(
        [(0.0, 0.0, 3), (10.0, 0.0, 3), (20.0, 0.0, 3)],
        [(float(i), 0.0) for i in range(6)],
    )
    sol = make_solution(inst, [2, 0, 1], [0, 0, 0, 1, 2, 2])
    assert util_variance(inst, sol) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_util_variance_invariant_under_server_relabeling():
    inst = gen_instance(GenConfig(m=4, n=12, kbar=4.0, seed=9))
    sol, _, _ = pd_solve(inst)
    loads = sol.loads()
    base = util_variance(inst, sol)
    target = inst.n / inst.m
    assert base == pytest.approx(
        sum((l - target) ** 2 for l in sorted(loads)) / inst.m, rel=1e-12
    )


def test_approximation_ratio_values():
    assert approximation_ratio(4.0, 4.0) == 1.0
    assert approximation_ratio(130.0, 65.0) == 2.0
    assert approximation_ratio(0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        approximation_ratio(1.0, 0.0)
