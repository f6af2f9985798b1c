import json
import re
from dataclasses import replace

import numpy as np
import pytest

from fraclimit import (
    CrossSection,
    FieldSpec,
    ModelParams,
    from_config,
    load_config,
)
from fraclimit.cli import main
from fraclimit.errors import InvalidInput


def test_defaults_validate():
    p = ModelParams()
    assert p.alpha == 1.5
    assert p.vmax == pytest.approx(10.0 / 0.05)


@pytest.mark.parametrize("alpha", [0.5, 0.99, 2.0, 2.5])
def test_alpha_range(alpha):
    with pytest.raises(InvalidInput, match=r"alpha=.* outside \[1,2\)"):
        ModelParams(alpha=alpha)


def test_epsilon_schedule_checks():
    rule = r"epsilon values must lie in \(0,1\], at least one and strictly decreasing; got "
    with pytest.raises(InvalidInput, match=rule + r"\(\)"):
        ModelParams(epsilon_schedule=())
    with pytest.raises(InvalidInput, match=rule + r"\(0.1, 0.2\)"):
        ModelParams(epsilon_schedule=(0.1, 0.2))
    with pytest.raises(InvalidInput, match=rule + r"\(0.2, -0.1\)"):
        ModelParams(epsilon_schedule=(0.2, -0.1))


def test_domain_checks():
    with pytest.raises(InvalidInput, match="domain_length and final_time must be positive"):
        ModelParams(domain_length=0.0)
    with pytest.raises(InvalidInput, match="domain_length and final_time must be positive"):
        ModelParams(final_time=-1.0)


def test_cross_section_bounds():
    # nu1 = nu0 - |a| must stay positive
    with pytest.raises(InvalidInput, match=r"need 0 < nu0 - \|amplitude\|"):
        ModelParams(cross_section=CrossSection(1.0, 1.5))
    v = np.linspace(-50, 50, 101)
    for a in (0.5, -0.5):
        cs = CrossSection(1.0, a)
        assert cs.nu1 == 0.5 and cs.nu2 == 1.0 + max(a, 0.0)
        s = cs.sigma(v[:, None], v[None, :])
        assert np.all(s >= cs.nu1) and np.all(s <= cs.nu2)
        assert np.allclose(s, s.T)  # symmetric
        # |sigma - nu0| <= |a| / (1+|v|)
        assert np.all(np.abs(s - 1.0) <= 0.5 / (1.0 + np.abs(v))[:, None] + 1e-15)
        # nu2 is the least upper bound: reached at 0 for a > 0, approached far out for a < 0
        top = cs.sigma(0.0, 0.0) if a > 0 else cs.sigma(1e12, 1e12)
        assert abs(top - cs.nu2) <= (0.0 if a > 0 else 1e-12)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: CrossSection(1.0, -1.5), "nu0=1.0, amplitude=-1.5"),
        (lambda: FieldSpec(float("nan")), "e0=nan"),
        (lambda: ModelParams(alpha=2.5), "alpha=2.5"),
        (lambda: ModelParams(domain_length=float("nan")), "domain_length"),
        (lambda: replace(ModelParams(), seed=-1), "seed=-1"),
        # a bool in a float field, which 1.0 would pass: refused by name
        (lambda: ModelParams(alpha=True), "alpha=True is not a number"),
        (lambda: ModelParams(domain_length=True), "domain_length=True is not a number"),
        (lambda: ModelParams(final_time=True), "final_time=True is not a number"),
        (lambda: ModelParams(epsilon_schedule=(True,)), r"epsilon values must lie in \(0,1\].*got \(True,\)"),
        (lambda: ModelParams(epsilon_schedule=(0.5, np.True_)), r"epsilon values must lie in \(0,1\].*got \(0.5, "),
        (lambda: ModelParams(vmax_over_inv_eps=True), "vmax_over_inv_eps=True is not a number"),
        (lambda: CrossSection(nu0=True), "nu0=True is not a number"),
        (lambda: CrossSection(amplitude=False), "amplitude=False is not a number"),
        (lambda: FieldSpec(e0=True), "e0=True is not a number"),
        # an int no float can hold: refused by name, not a bare OverflowError
        # (nu0 and e0), nor let through to overflow later (domain_length)
        (lambda: CrossSection(nu0=10**400), "nu0 is an integer too large for a float"),
        (lambda: CrossSection(1.0, amplitude=10**400), "amplitude is an integer too large for a float"),
        (lambda: FieldSpec(10**400), "e0 is an integer too large for a float"),
        (lambda: ModelParams(domain_length=10**400), "domain_length is an integer too large for a float"),
    ],
    ids=["cross_section", "field", "alpha", "domain_length", "replace_seed", "bool_alpha", "bool_domain_length",
         "bool_final_time", "bool_epsilon_schedule", "numpy_bool_epsilon_schedule", "bool_vmax_over_inv_eps",
         "bool_nu0", "bool_amplitude", "bool_e0", "huge_nu0", "huge_amplitude", "huge_e0", "huge_domain_length"],
)
def test_model_types_refuse_bad_values_when_built(build, match):
    # refused where the value is made, before a CollisionContext, advance or
    # init_ensemble can use it
    with pytest.raises(InvalidInput, match=match):
        build()


@pytest.mark.parametrize(
    "kw",
    [dict(seed=1.5, particles=10), dict(particles=10.5), dict(x_bins=2.5), dict(velocity_nodes=128.0),
     dict(particles=True)],
    ids=["seed", "particles", "x_bins", "velocity_nodes", "bool"],
)
def test_model_params_refuse_non_integer_counts(kw):
    # the direct API gets the config route's integer rule, named by field
    name = next(iter(kw))
    with pytest.raises(InvalidInput, match=f"{name}={kw[name]!r} is not an integer"):
        ModelParams(**kw)


_FLOAT_FIELDS = [(CrossSection, "nu0"), (CrossSection, "amplitude"), (FieldSpec, "e0"), (ModelParams, "alpha"),
                 (ModelParams, "domain_length"), (ModelParams, "final_time"), (ModelParams, "vmax_over_inv_eps")]
_INT_FIELDS = [(ModelParams, name) for name in ("seed", "particles", "velocity_nodes", "x_bins")]


@pytest.mark.parametrize("value", ["1.5", None], ids=["str", "None"])
@pytest.mark.parametrize("kind, name", _FLOAT_FIELDS + _INT_FIELDS + [(ModelParams, "epsilon_schedule")],
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_model_types_refuse_strings_and_none(kind, name, value):
    # one number rule for the model types and the config route: a string or
    # None is refused by name, not left to a comparison's bare TypeError
    what = "an integer" if (kind, name) in _INT_FIELDS else "a number"
    match = (r"epsilon values must lie in \(0,1\].*got " + re.escape(repr(value)) if name == "epsilon_schedule"
             else re.escape(f"{name}={value!r} is not {what}"))
    with pytest.raises(InvalidInput, match=match):
        kind(**{name: value})


def test_constant_sigma_is_flat():
    cs = CrossSection(2.0)
    assert np.all(cs.sigma(np.array([0.0, 5.0]), np.array([1.0, -3.0])) == 2.0)
    assert cs.nu1 == cs.nu2 == 2.0


def test_field_spec():
    x = np.linspace(0, 2 * np.pi, 7)
    assert np.all(FieldSpec(0.0)(x) == 0.0)
    assert np.all(FieldSpec(0.5)(x) == 0.5)


@pytest.mark.parametrize(
    "cfg, match",
    [
        ({"alpha": 1.5, "particles": 0}, r"need particles >= 1 and x_bins >= 1; got 0, 64"),
        ({"alpha": 1.5, "x_bins": 0}, r"need particles >= 1 and x_bins >= 1; got 100000, 0"),
        ({}, r"config entry 'alpha' is missing"),
        ({"alpha": "x"}, r"config entry 'alpha' is not numeric: 'x'"),
        ({"alpha": 1.5, "particles": "many"}, r"config entry 'particles' is not numeric: 'many'"),
        ({"alpha": 1.5, "velocity_grid": {"nodes": [1]}},
         r"config entry 'velocity_grid.nodes' is not numeric: \[1\]"),
        ({"alpha": 1.5, "dim": 2}, r"dim=2: the solvers are one-dimensional"),
        ({"alpha": 1.5, "field": {"kind": "sinusoidal", "e0": 0.5}}, r"unknown field kind 'sinusoidal'"),
        ({"alpha": 1.5, "final_time": float("nan")}, r"must be positive and finite; got 6.28\d*, nan"),
        ({"alpha": 1.5, "final_time": float("inf")}, r"must be positive and finite; got 6.28\d*, inf"),
        ({"alpha": 1.5, "domain_length": float("nan")}, r"must be positive and finite; got nan, 1.0"),
        ({"alpha": 1.5, "domain_length": float("inf")}, r"must be positive and finite; got inf, 1.0"),
        ({"alpha": 1.5, "epsilon_schedule": [0.2, float("nan")]}, r"epsilon values must lie in \(0,1\]"),
        ({"alpha": 1.5, "cross_section": {"nu0": float("nan")}}, r"need 0 < nu0 - \|amplitude\|.*got nu0=nan"),
        ({"alpha": 1.5, "cross_section": {"nu0": float("inf")}}, r"need 0 < nu0 - \|amplitude\|.*got nu0=inf"),
        ({"alpha": 1.5, "field": {"kind": "constant", "e0": float("nan")}}, r"field e0=nan is not finite"),
        ({"alpha": 1.5, "field": {"kind": "constant", "e0": float("-inf")}}, r"field e0=-inf is not finite"),
        ({"alpha": 1.5, "seed": -1}, r"seed=-1 must be non-negative"),
        ([{"alpha": 1.5}], r"config is not an object: \[\{'alpha': 1.5\}\]"),
        ({"alpha": 1.5, "cross_section": 3}, r"config entry 'cross_section' is not an object: 3"),
        ({"alpha": 1.5, "field": None}, r"config entry 'field' is not an object: None"),
        ({"alpha": 1.5, "velocity_grid": [128]}, r"config entry 'velocity_grid' is not an object: \[128\]"),
        ({"alpha": 1.5, "field": {"kind": 5}}, r"config entry 'field': kind 5 is not a string"),
        ({"alpha": 1.5, "cross_section": {"kind": None}}, r"config entry 'cross_section': kind None is not a string"),
        ({"alpha": 1.5, "cross_section": {"kind": "Constant", "amplitude": 0.5}},
         r"config entry 'cross_section.amplitude': constant cross section with amplitude=0.5"),
        ({"alpha": 1.5, "cross_section": {"kind": "Quadratic"}}, r"unknown cross section kind 'Quadratic'"),
        ({"alpha": 1.5, "velocity_grid": {"vmax_over_inv_eps": float("inf")}},
         r"vmax_over_inv_eps=inf must be positive and finite"),
        ({"alpha": 1.5, "velocity_grid": {"vmax_over_inv_eps": float("nan")}},
         r"vmax_over_inv_eps=nan must be positive and finite"),
        ({"alpha": 1.5, "velocity_grid": {"vmax_over_inv_eps": 0.0}}, r"vmax_over_inv_eps=0.0 must be positive"),
        ({"alpha": 1.5, "velocity_grid": {"vmax_over_inv_eps": -5.0}}, r"vmax_over_inv_eps=-5.0 must be positive"),
        ({"alpha": 1.5, "particles": 2.7}, r"config entry 'particles' is not an integer: 2.7"),
        ({"alpha": 1.5, "seed": 1.5}, r"config entry 'seed' is not an integer: 1.5"),
        ({"alpha": 1.5, "x_bins": 16.5}, r"config entry 'x_bins' is not an integer: 16.5"),
        ({"alpha": 1.5, "velocity_grid": {"nodes": 96.5}}, r"config entry 'velocity_grid.nodes' is not an integer: 96.5"),
        # a JSON boolean is not a number, though Python's float and int read it as 1 or 0
        ({"alpha": True}, r"config entry 'alpha' is not numeric: True"),
        ({"alpha": 1.5, "particles": True, "x_bins": True}, r"config entry 'particles' is not numeric: True"),
        ({"alpha": 1.5, "x_bins": False}, r"config entry 'x_bins' is not numeric: False"),
        ({"alpha": 1.5, "epsilon_schedule": [0.2, True]}, r"config entry 'epsilon_schedule' is not numeric: \[0.2, True\]"),
        ({"alpha": 1.5, "field": {"kind": "constant", "e0": True}}, r"config entry 'field.e0' is not numeric: True"),
        # nor is a JSON string, though Python's float and int parse "1.5" and " 7 "
        ({"alpha": "1.5"}, r"config entry 'alpha' is not numeric: '1.5'"),
        ({"alpha": 1.5, "x_bins": "16"}, r"config entry 'x_bins' is not numeric: '16'"),
        ({"alpha": 1.5, "seed": " 7 "}, r"config entry 'seed' is not numeric: ' 7 '"),
        ({"alpha": 1.5, "field": {"kind": "constant", "e0": "0.5"}}, r"config entry 'field.e0' is not numeric: '0.5'"),
        # epsilon_schedule is an array of numbers: a string's characters are not
        ({"alpha": 1.5, "epsilon_schedule": "1"}, r"config entry 'epsilon_schedule' is not numeric: '1'"),
        ({"alpha": 1.5, "epsilon_schedule": [0.2, "0.1"]},
         r"config entry 'epsilon_schedule' is not numeric: \[0.2, '0.1'\]"),
    ],
)
def test_from_config_refusals(cfg, match):
    with pytest.raises(InvalidInput, match=match):
        from_config(cfg)


def test_integral_floats_load_as_integers():
    p = from_config({"alpha": 1.5, "particles": 1e6, "seed": 7.0, "x_bins": 32.0, "velocity_grid": {"nodes": 96.0}})
    assert (p.particles, p.seed, p.x_bins, p.velocity_nodes) == (1_000_000, 7, 32, 96)
    assert all(type(n) is int for n in (p.particles, p.seed, p.x_bins, p.velocity_nodes))


def test_kinds_map_to_numbers():
    # the kinds only fix numbers: a zero-amplitude PerturbedConstant is the
    # constant cross section, and a constant field of 0 is the zero field
    const = from_config({"alpha": 1.5, "cross_section": {"kind": "Constant", "nu0": 2.0}})
    pert = from_config({"alpha": 1.5, "cross_section": {"kind": "PerturbedConstant", "nu0": 2.0, "amplitude": 0.0}})
    assert pert == const and const.cross_section == CrossSection(2.0, 0.0)
    assert from_config({"alpha": 1.5, "field": {"kind": "constant", "e0": 0.0}}) == from_config({"alpha": 1.5})
    assert from_config({"alpha": 1.5, "cross_section": {"kind": "Constant", "amplitude": 0.0}}) == from_config(
        {"alpha": 1.5})


def test_zero_field_refuses_nonzero_e0():
    # a "zero" field with e0 != 0 would drive the macro solve but not the particles
    with pytest.raises(InvalidInput, match="zero field with e0=0.5"):
        from_config({"alpha": 1.5, "field": {"kind": "zero", "e0": 0.5}})
    assert from_config({"alpha": 1.5, "field": {"kind": "zero", "e0": 0.0}}).field_spec == FieldSpec(0.0)


def test_from_config_round_trip(tmp_path):
    cfg = {
        "alpha": 1.25,
        "dim": 1,
        "cross_section": {"kind": "PerturbedConstant", "nu0": 1.0, "amplitude": 0.25},
        "field": {"kind": "constant", "e0": 0.5},
        "domain_length": 6.0,
        "final_time": 0.25,
        "epsilon_schedule": [0.2, 0.1],
        "seed": 7,
        "particles": 1000,
        "velocity_grid": {"nodes": 96, "vmax_over_inv_eps": 5.0},
        "x_bins": 16,
        "time_step_macro": 0.01,
    }
    p = from_config(cfg)  # dim 1 and the retired time_step_macro still load
    assert p.cross_section == CrossSection(1.0, 0.25)
    assert p.field_spec == FieldSpec(0.5)
    assert p.vmax == pytest.approx(50.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert load_config(path) == p


@pytest.mark.parametrize("text, reason", [(b'{"alpha": 1.5,', "Expecting property name"),
                                          (b'\xff{"alpha": 1.5}', "can't decode byte 0xff")],
                         ids=["truncated", "not_utf8"])
def test_load_config_refuses_malformed_json(tmp_path, text, reason):
    # refused as every input is, with the path and the parser's message
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    with pytest.raises(InvalidInput, match=rf"config file .*cfg\.json is not UTF-8 JSON: .*{reason}"):
        load_config(path)


@pytest.mark.parametrize("make, reason", [(lambda tmp: tmp / "missing.json", "No such file or directory"),
                                          (lambda tmp: tmp, "Is a directory")], ids=["missing", "directory"])
def test_load_config_refuses_an_unreadable_path(tmp_path, make, reason):
    # the OSError of opening the path is a refusal naming it, through the
    # loader and through the command line alike
    path = make(tmp_path)
    match = rf"config file {re.escape(str(path))} cannot be read: {reason}"
    with pytest.raises(InvalidInput, match=match):
        load_config(path)
    with pytest.raises(InvalidInput, match=match):
        main(["--config", str(path), "--out", str(tmp_path / "out"), "coefficients"])


def test_with_seed():
    p = ModelParams(seed=0)
    q = replace(p, seed=42)
    assert q.seed == 42 and p.seed == 0
    assert q.alpha == p.alpha
