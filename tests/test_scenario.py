import json
import math
from collections import deque

import numpy as np
import pytest

from apf_rcbf import (
    GammaSelector,
    Obstacle,
    RcbfTerms,
    SafeSetSample,
    Scenario,
    ScenarioValidationError,
    SigmaSelector,
    apf_control,
    check_clf_decrease,
    classify_safety,
    clf_terms,
    load_scenario,
    rcbf_terms,
    rho,
    safety_filter,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_violations,
    validate_scenario,
)


def make_obstacle(cx=0.0, cy=0.0, radius=0.5, margin=0.2):
    return Obstacle(center=[cx, cy], radius=radius, influence_margin=margin)


def test_constructors_coerce_and_freeze():
    obs = make_obstacle(1.0, 2.0)
    assert obs.center.dtype == np.float64
    assert not obs.center.flags.writeable
    assert obs.rho0 == obs.influence_margin == 0.2

    s = Scenario(goal=(7, 3.2), obstacles=(obs,), k_att=2)
    assert s.goal.dtype == np.float64
    assert not s.goal.flags.writeable
    assert isinstance(s.k_att, float) and s.k_att == 2.0
    centers, radii, rho0s = s.packed()
    assert centers.shape == (1, 2)
    np.testing.assert_array_equal(centers[0], obs.center)
    assert radii[0] == 0.5 and rho0s[0] == 0.2
    empty = Scenario(goal=(7, 3.2)).packed()
    assert [arr.shape for arr in empty] == [(0, 2), (0,), (0,)]
    for arr in (centers, radii, rho0s, *empty):
        assert arr.dtype == np.float64
        assert not arr.flags.writeable


@pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_goal_shape_rejected(bad):
    with pytest.raises(ValueError, match="2-vector"):
        Scenario(goal=bad)


@pytest.mark.parametrize("obstacles", [[5], [make_obstacle(), {"radius": 0.5}]],
                         ids=["int", "dict"])
def test_obstacle_of_another_type_rejected(obstacles):
    """An obstacle that is not an ``Obstacle`` is refused by the constructor,
    by index, before ``validate_scenario`` would read its attributes."""
    bad = len(obstacles) - 1
    with pytest.raises(ValueError, match=f"obstacle {bad} must be an Obstacle, got"):
        Scenario(goal=[0, 0], obstacles=obstacles)


# Every public state or control argument, each given the value ``v``: one
# state in obstacle 0's influence shell of the bundled arena, ``SHELL``,
# stands in for the arguments not under test.
SHELL = [0.2, 1.5]
POINT_ARGUMENTS = {
    "rho-x": lambda s, v: rho(v, s.obstacles[0]),
    "classify_safety-x": lambda s, v: classify_safety(v, s),
    "apf_control-x": lambda s, v: apf_control(v, s),
    "clf_terms-x": lambda s, v: clf_terms(v, s, SigmaSelector.grad_norm_squared()),
    "check_clf_decrease-u": lambda s, v: check_clf_decrease(
        SHELL, v, s, SigmaSelector.grad_norm_squared()),
    "rcbf_terms-u_nom": lambda s, v: rcbf_terms(SHELL, s.obstacles[0], s, v,
                                                GammaSelector.scaled_special(1.0)),
    "safety_filter-u_nom": lambda s, v: safety_filter(
        v, RcbfTerms(B=0.0, h=1.0, c=-1.0, d=np.array([1.0, 0.0]), gamma=0.0, c_tilde=-1.0)),
}


@pytest.mark.parametrize("value", [[0.0, 0.0, 5.0], [[0.0], [0.0]]], ids=["3", "2x1"])
@pytest.mark.parametrize("entry", POINT_ARGUMENTS.values(), ids=POINT_ARGUMENTS.keys())
def test_point_arguments_must_be_2_vectors(arena, entry, value):
    """A state or control of any other shape raises the one ``ValueError``,
    where a 3-vector used to be read by its first two entries."""
    entry(arena, SHELL)
    with pytest.raises(ValueError, match=r"expected a 2-vector, got shape \("):
        entry(arena, value)


@pytest.mark.parametrize("value", [{"x": 1.0}, object(), ["1", "2"], (1.0, b"2"),
                                   np.array(["1", "2"]), np.array([1.0, "2"], dtype=object),
                                   "12", deque(["1", "2"]), deque([1.0, b"2"]),
                                   bytearray(b"\x01\x02"), [None, 1.0], [1j, 2.0]],
                         ids=["dict", "object", "strings", "bytes", "string-array",
                              "object-array", "string", "deque-strings", "deque-bytes",
                              "bytearray", "none", "complex"])
@pytest.mark.parametrize("entry", POINT_ARGUMENTS.values(), ids=POINT_ARGUMENTS.keys())
def test_point_arguments_must_be_numbers(arena, entry, value):
    """A value that does not convert to floats raises the same
    ``ValueError``, not numpy's ``TypeError``."""
    with pytest.raises(ValueError, match="expected a 2-vector of numbers, got "):
        entry(arena, value)


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], {"x": 1.0}, object()])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Scenario(goal=bad)
    with pytest.raises(ValueError, match="finite"):
        Obstacle(center=bad, radius=1.0, influence_margin=0.1)
    with pytest.raises(ValueError, match="finite"):
        Obstacle(center=[0, 0], radius=math.nan, influence_margin=0.1)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(goal=["5", "0"]),
    lambda d: d["obstacles"][0].update(radius="0.5"),
    lambda d: d["obstacles"][0].update(center=[1.0, b"0"]),
    lambda d: d.update(k_att="1"),
    lambda d: d.update(alpha_gain="inf"),
    lambda d: d.update(goal=deque(["5", "0"])),
    lambda d: d["obstacles"][0].update(center=np.array(["1", "0"], dtype=object)),
], ids=["goal", "radius", "center-bytes", "k_att", "alpha_gain", "goal-deque",
        "center-object-array"])
def test_numbers_written_as_text_are_refused(mutate):
    """``float`` and numpy parse a number written as a string; the readers
    refuse it, as they refuse ``true``."""
    doc = {"goal": [5.0, 0.0], "obstacles": [{"center": [2.0, 0.0], "radius": 0.5, "rho0": 0.3}],
           "k_att": 1.0, "k_rep": 1.0, "alpha_gain": 1.0}
    scenario_from_dict(doc)
    mutate(doc)
    with pytest.raises(ValueError, match="must be a finite"):
        scenario_from_dict(doc)


def test_numeric_input_keeps_its_bits():
    """Numbers of any numeric type read as the float they convert to."""
    s = Scenario(goal=np.array([1.5, -0.0], dtype=np.float32),
                 obstacles=(Obstacle((np.int64(3), 0.1), np.float32(0.25), 1),),
                 k_att=np.float64(0.1), k_rep=2, alpha_gain=np.float16(0.5))
    assert s.goal.tobytes() == np.array([1.5, -0.0]).tobytes()
    assert s.obstacles[0].center.tolist() == [3.0, 0.1]
    assert (s.obstacles[0].radius, s.obstacles[0].influence_margin) == (0.25, 1.0)
    assert [type(v) for v in (s.k_att, s.k_rep, s.alpha_gain)] == [float] * 3
    assert (s.k_att, s.k_rep, s.alpha_gain) == (0.1, 2.0, 0.5)
    assert rho(np.array([3.5, 0.1], dtype=np.float32), s.obstacles[0]) == 0.25
    # a sequence of floats of any type, and an object array of numbers
    assert rho(deque([3.5, 0.1]), s.obstacles[0]) == 0.25
    assert rho(np.array([np.float32(3.5), 0.1], dtype=object), s.obstacles[0]) == 0.25
    t = Scenario(goal=deque([1.5, -0.0]),
                 obstacles=(Obstacle(np.array([3, 0.1], dtype=object), 0.25, 1.0),))
    assert t.goal.tobytes() == s.goal.tobytes()
    assert t.obstacles[0].center.tobytes() == s.obstacles[0].center.tobytes()


def test_scenario_is_frozen():
    s = Scenario(goal=[0, 0])
    with pytest.raises(AttributeError):
        s.k_att = 3.0


def test_rho_signed_distance():
    obs = make_obstacle(0.0, 0.0, radius=0.5)
    assert rho([1.0, 0.0], obs) == 0.5
    assert rho([0.2, 0.0], obs) == pytest.approx(-0.3, abs=1e-15)
    assert rho([0.0, 0.5], obs) == 0.0
    # matches the plain euclidean formula on random points
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=2)
        expected = math.hypot(x[0] - 0.0, x[1] - 0.0) - 0.5
        assert rho(x, obs) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_classify_safety_minimum_over_obstacles():
    s = Scenario(goal=[10, 0], obstacles=(make_obstacle(0, 0), make_obstacle(3, 0)))
    sample = classify_safety([1.0, 0.0], s)
    assert sample.h == 0.5  # nearer obstacle wins
    assert sample.in_interior and not sample.on_boundary

    boundary = classify_safety([0.5, 0.0], s)
    assert boundary.h == 0.0
    assert boundary.on_boundary and not boundary.in_interior

    inside = classify_safety([0.1, 0.0], s)
    assert inside.h < 0 and not inside.in_interior


@pytest.mark.parametrize("h", ["0.5", b"0.5", [0.5], None, object()],
                         ids=["string", "bytes", "list", "none", "object"])
def test_safe_set_sample_reads_a_number(h):
    """A sample's clearance is read as a float, as every outside number is."""
    sample = SafeSetSample(np.float32(0.5))
    assert type(sample.h) is float and sample.h == 0.5 and sample.in_interior
    with pytest.raises(ValueError, match="h must be a number, got "):
        SafeSetSample(h)


def test_classify_safety_empty_workspace():
    sample = classify_safety([0.0, 0.0], Scenario(goal=[1, 1]))
    assert sample.h == math.inf
    assert sample.in_interior


@pytest.mark.parametrize("x", [[math.nan, 0.0], [0.0, math.nan], [math.nan, math.inf]])
@pytest.mark.parametrize("m", [0, 2])
def test_classify_safety_at_a_nan_coordinate_is_nan(x, m):
    """A NaN coordinate has NaN clearance, as ``rho`` gives, with or without
    obstacles: neither interior nor on the boundary.  ``min(inf, nan)``
    would keep +inf and read the state as safe."""
    s = Scenario(goal=[10, 0], obstacles=(make_obstacle(0, 0), make_obstacle(3, 0))[:m])
    assert all(math.isnan(rho(x, obs)) for obs in s.obstacles)
    sample = classify_safety(x, s)
    assert math.isnan(sample.h)
    assert not sample.in_interior and not sample.on_boundary


@pytest.mark.parametrize("x", [[math.inf, 0.0], [0.0, -math.inf], [math.inf, -math.inf]])
@pytest.mark.parametrize("m", [0, 2])
def test_classify_safety_at_an_infinite_coordinate_is_inf(x, m):
    s = Scenario(goal=[10, 0], obstacles=(make_obstacle(0, 0), make_obstacle(3, 0))[:m])
    sample = classify_safety(x, s)
    assert sample.h == math.inf
    assert sample.in_interior and not sample.on_boundary


def test_violations_collects_everything_at_once():
    s = Scenario(
        goal=[0.0, 0.0],
        obstacles=(
            Obstacle(center=[0.55, 0.0], radius=0.5, influence_margin=0.2),
            Obstacle(center=[5.0, 5.0], radius=-1.0, influence_margin=0.0),
        ),
        k_att=-1.0,
        k_rep=0.0,
        alpha_gain=-2.0,
    )
    violations = scenario_violations(s)
    assert violations == [
        "k_att must be positive",
        "k_rep must be positive",
        "alpha_gain must be positive",
        "obstacle 1: radius must be positive",
        "obstacle 1: influence_margin must be positive",
        "goal inside influence region (obstacle 0)",
    ]
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(s)
    assert err.value.violations == violations
    assert "invalid scenario:" in str(err.value)


def test_radius_whose_clearance_can_square_to_zero_is_rejected():
    """Below ``min_radius(k_rep)`` the smallest positive clearance, one ulp of
    the radius, can overflow |F_rep|^2 and turn the filtered control into
    NaN (the descent law never squares F_rep); that floor lies far above the
    radius where the clearance squares to 0.0.  An unvalidated radius below
    it has ``max_lambda`` < 1, so the unit filter is refused there rather
    than returning NaN.  At the floor the control one ulp outside the
    obstacle is finite."""
    from apf_rcbf import apf_control, special_filter_control
    from apf_rcbf.scenario import min_radius
    assert min_radius(1.0) == 2.0 ** -118
    assert min_radius(8.0) == 2.0 ** -117  # grows as k_rep ** (1/3)

    def tiny(radius, k_rep=1.0):
        return Scenario(goal=[1.0, 0.0], obstacles=(make_obstacle(0.0, 0.0, radius, 0.5),),
                        k_rep=k_rep)

    assert scenario_violations(tiny(1e-150)) == [
        "obstacle 0: radius below 3.01e-36, where |F_rep|^2 can overflow at the smallest "
        "clearance"]
    for radius in (1e-36, 1e-40, 1e-60, 1e-100, math.nextafter(2.0 ** -118, 0.0)):
        assert scenario_violations(tiny(radius)) != []
    # one binade below the floor the unit lam exceeds max_lambda = 2**-4
    below = 2.0 ** -119
    with pytest.raises(ValueError, match="exceeds"):
        special_filter_control([math.nextafter(below, 1.0), 0.0], tiny(below))
    for k_rep in (1.0, 8.0, 1e-3):
        floor = min_radius(k_rep)
        at_floor = tiny(floor, k_rep)
        assert scenario_violations(at_floor) == []
        # one ulp outside, the smallest clearance there is: a finite control
        x = [math.nextafter(floor, 1.0), 0.0]
        assert classify_safety(x, at_floor).h == math.ulp(floor)
        assert np.isfinite(apf_control(x, at_floor)).all()
        assert np.isfinite(special_filter_control(x, at_floor)).all()


def test_goal_on_influence_boundary_is_allowed():
    """Clearance exactly rho0 is legal — the repulsive field vanishes there.

    0.75 - 0.5 == 0.25 is exact in binary floating point; a goal like
    [0.7, 0] would round to a clearance just below 0.2 and (correctly)
    violate."""
    s = Scenario(goal=[0.75, 0.0],
                 obstacles=(make_obstacle(0, 0, margin=0.25),))
    assert scenario_violations(s) == []
    assert validate_scenario(s) is s
    # one ulp closer and the strict check trips
    s2 = Scenario(goal=[np.nextafter(0.75, 0.0), 0.0],
                  obstacles=(make_obstacle(0, 0, margin=0.25),))
    assert scenario_violations(s2) == ["goal inside influence region (obstacle 0)"]


def test_validate_passes_through_valid(arena):
    assert validate_scenario(arena) is arena
    assert scenario_violations(arena) == []


def test_dict_round_trip(arena):
    data = scenario_to_dict(arena)
    back = scenario_from_dict(data)
    np.testing.assert_array_equal(back.goal, arena.goal)
    assert back.k_att == arena.k_att
    assert back.k_rep == arena.k_rep
    assert back.alpha_gain == arena.alpha_gain
    assert len(back.obstacles) == len(arena.obstacles)
    for a, b in zip(arena.obstacles, back.obstacles):
        np.testing.assert_array_equal(a.center, b.center)
        assert a.radius == b.radius
        assert a.influence_margin == b.influence_margin


def test_file_round_trip(arena, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(arena, path)
    back = load_scenario(path)
    np.testing.assert_array_equal(back.goal, arena.goal)
    np.testing.assert_array_equal(back.packed()[0], arena.packed()[0])
    # the file is plain strict-schema JSON
    raw = json.loads(path.read_text())
    assert set(raw) == {"goal", "obstacles", "k_att", "k_rep", "alpha_gain"}
    assert set(raw["obstacles"][0]) == {"center", "radius", "rho0"}


def valid_doc():
    return {
        "goal": [7.0, 3.2],
        "obstacles": [{"center": [0.0, 0.0], "radius": 0.5, "rho0": 0.2}],
        "k_att": 1.0,
        "k_rep": 1.0,
        "alpha_gain": 1.0,
    }


def test_from_dict_rejects_unknown_keys():
    doc = valid_doc()
    doc["extra"] = 1
    with pytest.raises(ValueError, match="unknown scenario key"):
        scenario_from_dict(doc)


def test_from_dict_rejects_missing_keys():
    doc = valid_doc()
    del doc["k_rep"]
    with pytest.raises(ValueError, match="missing scenario key"):
        scenario_from_dict(doc)


def test_from_dict_rejects_bad_obstacle_entries():
    doc = valid_doc()
    doc["obstacles"][0]["color"] = "red"
    with pytest.raises(ValueError, match=r"^unknown obstacle 0 key\(s\): \['color'\]$"):
        scenario_from_dict(doc)

    doc = valid_doc()
    del doc["obstacles"][0]["rho0"]
    with pytest.raises(ValueError, match=r"^missing obstacle 0 key\(s\): \['rho0'\]$"):
        scenario_from_dict(doc)

    doc = valid_doc()
    doc["obstacles"][0] = [0, 0, 0.5]
    with pytest.raises(ValueError, match=r"^obstacle 0 must be a JSON object, got \[0, 0, 0.5\]$"):
        scenario_from_dict(doc)


def test_from_dict_validates_invariants():
    doc = valid_doc()
    doc["k_att"] = 0.0
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


def test_from_dict_requires_object():
    with pytest.raises(ValueError, match="JSON object"):
        scenario_from_dict([1, 2, 3])


def test_random_valid_scenarios_have_no_violations(rng):
    """Positivity plus a goal placed outside every influence shell is enough."""
    for _ in range(200):
        m = int(rng.integers(0, 4))
        obstacles = []
        for _ in range(m):
            obstacles.append(Obstacle(
                center=rng.uniform(-5, 5, size=2),
                radius=float(rng.uniform(0.1, 1.0)),
                influence_margin=float(rng.uniform(0.05, 0.5)),
            ))
        goal = rng.uniform(-20, 20, size=2)
        s = Scenario(goal=goal, obstacles=tuple(obstacles),
                     k_att=float(rng.uniform(0.1, 5)),
                     k_rep=float(rng.uniform(0.1, 5)),
                     alpha_gain=float(rng.uniform(0.1, 5)))
        expected = [f"goal inside influence region (obstacle {i})"
                    for i, obs in enumerate(obstacles)
                    if rho(goal, obs) < obs.influence_margin]
        assert scenario_violations(s) == expected


def test_max_lambda_is_the_power_of_two_bound():
    """lam * (k_rep / ulp(radius)**3)**2 <= 2**1022: 4.0 at the radius floor
    for k_rep = 1 and never below 1 for a radius at the floor; +inf once the
    bound leaves the float range; 0.0 for a zero radius."""
    from apf_rcbf.scenario import max_lambda, min_radius
    assert max_lambda(1.0, min_radius(1.0)) == 4.0
    assert max_lambda(1.0, 0.5) == 2.0 ** 704
    assert max_lambda(2.0, 0.5) == 2.0 ** 702
    assert max_lambda(3.0, 0.5) == 2.0 ** 700  # k_rep rounds up to 4
    for k_rep in (1e-3, 1.0, 3.0, 8.0, 1e6):
        assert max_lambda(k_rep, min_radius(k_rep)) >= 1.0
    assert max_lambda(1.0, 1e10) == 2.0 ** 908  # ulp(1e10) = 2**-19
    assert max_lambda(1.0, 1e20) == math.inf
    assert max_lambda(1.0, 0.0) == 0.0
