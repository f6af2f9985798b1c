import json

import numpy as np
import pytest

from fraclimit import (
    CrossSection,
    FieldSpec,
    ModelParams,
    constant_sigma,
    from_config,
    load_config,
    perturbed_sigma,
    validate,
)
from fraclimit.errors import InvalidInput
from fraclimit.params import with_seed


def test_defaults_validate():
    p = validate(ModelParams())
    assert p.alpha == 1.5
    assert p.vmax == pytest.approx(10.0 / 0.05)


@pytest.mark.parametrize("alpha", [0.5, 0.99, 2.0, 2.5])
def test_alpha_range(alpha):
    with pytest.raises(InvalidInput, match=r"alpha=.* outside \[1,2\)"):
        validate(ModelParams(alpha=alpha))


def test_epsilon_schedule_checks():
    with pytest.raises(InvalidInput, match="epsilon_schedule is empty"):
        validate(ModelParams(epsilon_schedule=()))
    with pytest.raises(InvalidInput, match="epsilon_schedule must be strictly decreasing"):
        validate(ModelParams(epsilon_schedule=(0.1, 0.2)))
    with pytest.raises(InvalidInput, match=r"epsilon values must lie in \(0,1\]"):
        validate(ModelParams(epsilon_schedule=(0.2, -0.1)))


def test_domain_checks():
    with pytest.raises(InvalidInput, match="domain_length and final_time must be positive"):
        validate(ModelParams(domain_length=0.0))
    with pytest.raises(InvalidInput, match="domain_length and final_time must be positive"):
        validate(ModelParams(final_time=-1.0))


def test_cross_section_bounds():
    # nu1 = nu0 - |a| must stay positive
    with pytest.raises(InvalidInput, match=r"need 0 < nu0 - \|amplitude\|"):
        validate(ModelParams(cross_section=perturbed_sigma(1.0, 1.5)))
    cs = perturbed_sigma(1.0, 0.5)
    assert cs.nu1 == 0.5 and cs.nu2 == 1.5
    v = np.linspace(-50, 50, 101)
    s = cs.sigma(v[:, None], v[None, :])
    assert np.all(s >= cs.nu1) and np.all(s <= cs.nu2)
    assert np.allclose(s, s.T)  # symmetric
    # |sigma - nu0| <= |a| / (1+|v|)
    assert np.all(np.abs(s - 1.0) <= 0.5 / (1.0 + np.abs(v))[:, None] + 1e-15)


def test_constant_sigma_is_flat():
    cs = constant_sigma(2.0)
    assert np.all(cs.sigma(np.array([0.0, 5.0]), np.array([1.0, -3.0])) == 2.0)
    assert cs.nu1 == cs.nu2 == 2.0


def test_field_spec():
    x = np.linspace(0, 2 * np.pi, 7)
    assert np.all(FieldSpec("zero")(x) == 0.0)
    assert np.all(FieldSpec("constant", 0.5)(x) == 0.5)


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
    ],
)
def test_from_config_refusals(cfg, match):
    with pytest.raises(InvalidInput, match=match):
        from_config(cfg)


def test_zero_field_refuses_nonzero_e0():
    # a "zero" field with e0 != 0 would drive the macro solve but not the particles
    with pytest.raises(InvalidInput, match="zero field with e0=0.5"):
        from_config({"alpha": 1.5, "field": {"kind": "zero", "e0": 0.5}})
    assert from_config({"alpha": 1.5, "field": {"kind": "zero", "e0": 0.0}}).field_spec == FieldSpec("zero")


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
    assert p.cross_section.kind == "perturbed"
    assert p.field_spec.e0 == 0.5
    assert p.vmax == pytest.approx(50.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert load_config(path) == p


def test_with_seed():
    p = ModelParams(seed=0)
    q = with_seed(p, 42)
    assert q.seed == 42 and p.seed == 0
    assert q.alpha == p.alpha
