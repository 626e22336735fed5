import json
import math

import numpy as np
import pytest

from idcalc import ValidationError, gamma, gaussian, load_measure, measure_from_spec, poisson

FULL_SPEC = {
    "dim": 1,
    "shift": [0.0],
    "cov": [[1.0]],
    "spectral": {
        "rays": [
            {
                "direction": [1.0],
                "atoms": [{"r": 2.0, "w": 1.0}],
                "densities": [
                    {"lo": 0.0, "hi": 1.0, "kind": "power", "coef": 1.0, "exponent": -1.5}
                ],
            }
        ]
    },
}


def test_full_spec_parses_and_evaluates():
    mu = measure_from_spec(FULL_SPEC)
    assert mu.dim == 1
    assert mu.triplet is not None
    assert len(mu.triplet.M.rays) == 1
    z = mu.exponent(np.array([1.0]))
    assert abs(mu.exponent(np.array([-1.0])) - z.conjugate()) < 1e-12
    assert abs(np.exp(z)) <= 1.0 + 1e-12


def test_family_shorthands_match_constructors():
    pairs = [
        ({"family": "gaussian", "var": 1.5}, gaussian(1.5)),
        ({"family": "poisson", "rate": 2.0, "jump": 2.0}, poisson(2.0, 2.0)),
        ({"family": "gamma", "shape": 2.0, "rate": 3.0}, gamma(2.0, 3.0)),
    ]
    for spec, want in pairs:
        got = measure_from_spec(spec)
        for y in (np.array([0.5]), np.array([2.0])):
            assert got.exponent(y) == pytest.approx(want.exponent(y), abs=1e-14)


def test_exp_kind_density():
    spec = {
        "dim": 1,
        "spectral": {
            "rays": [
                {
                    "direction": [1.0],
                    "densities": [
                        {"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 1.0,
                         "exponent": -1.0, "rate": 1.0}
                    ],
                }
            ]
        },
    }
    mu = measure_from_spec(spec)
    # gamma spectral part without the shift correction
    want = gamma(1.0, 1.0)
    y = np.array([1.0])
    shift_term = 1j * y[0] * want.triplet.a[0]
    assert mu.exponent(y) == pytest.approx(want.exponent(y) - shift_term, abs=1e-10)


def test_unknown_family_rejected():
    with pytest.raises(ValidationError, match="unknown family"):
        measure_from_spec({"family": "cauchy"})


def test_unknown_density_kind_rejected():
    spec = {"dim": 1, "spectral": {"rays": [{"direction": [1.0],
            "densities": [{"lo": 0, "hi": 1, "kind": "spline", "coef": 1}]}]}}
    with pytest.raises(ValidationError, match="unknown density kind"):
        measure_from_spec(spec)


def test_invalid_density_rejected_at_load(tmp_path):
    bad = dict(FULL_SPEC)
    bad["spectral"] = {
        "rays": [{"direction": [1.0],
                  "densities": [{"lo": 0.0, "hi": 1.0, "kind": "power",
                                 "coef": 1.0, "exponent": -3.0}]}]
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"min\(1, r\^2\)"):
        load_measure(p)


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "mal.json"
    p.write_text('{"dim": 1,\n "shift": [0.0,]}', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"line 2 column"):
        load_measure(p)


def test_load_measure_roundtrip(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(FULL_SPEC), encoding="utf-8")
    mu = load_measure(p)
    assert mu.label == "m"
    y = np.array([2.0])
    assert mu.exponent(y) == pytest.approx(measure_from_spec(FULL_SPEC).exponent(y), abs=1e-12)


def test_missing_dim_rejected():
    with pytest.raises(ValidationError, match="dim"):
        measure_from_spec({"shift": [0.0]})


@pytest.mark.parametrize("make,words", [
    (lambda: poisson(rate=0.0), "poisson rate must be > 0"),
    (lambda: poisson(jump=0.0), "poisson jump must be nonzero"),
    (lambda: gamma(shape=-1.0), "gamma shape must be > 0"),
    (lambda: gamma(rate=math.inf), "gamma rate must be > 0"),
    (lambda: measure_from_spec([1.0]), "measure spec must be a JSON object"),
    (lambda: measure_from_spec({"dim": 1, "spectral": {"rays": [5]}}),
     "ray 0 must be a JSON object, got 5"),
], ids=["poisson-rate", "poisson-jump", "gamma-shape", "gamma-rate", "spec", "field"])
def test_a_bad_family_parameter_or_spec_is_refused(make, words):
    with pytest.raises(ValidationError, match=words):
        make()
