import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from idcalc import validate_report
from idcalc.cli import main
from idcalc.verify import IDENTITIES

GAUSS = {"family": "gaussian", "var": 1.0}
POISSON = {"family": "poisson", "rate": 1.0, "jump": 2.0}
BAD_DENSITY = {
    "dim": 1,
    "spectral": {
        "rays": [
            {
                "direction": [1.0],
                "densities": [
                    {"lo": 0.0, "hi": 1.0, "kind": "power", "coef": 1.0, "exponent": -3.0}
                ],
            }
        ]
    },
}


SHIFT = {"dim": 1, "shift": [1.0]}
# a full triplet: an atom plus an exp density on (0, inf)
ATOM_EXP = {
    "dim": 1,
    "shift": [0.1],
    "cov": [[0.5]],
    "spectral": {
        "rays": [
            {
                "direction": [1.0],
                "atoms": [{"r": 0.7, "w": 0.5}],
                "densities": [
                    {"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 0.6, "exponent": 0,
                     "rate": 2}
                ],
            }
        ]
    },
}


@pytest.fixture
def measures(tmp_path):
    paths = {}
    specs = [("gauss", GAUSS), ("poisson", POISSON), ("bad", BAD_DENSITY),
             ("shift", SHIFT), ("atom_exp", ATOM_EXP)]
    for name, spec in specs:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec), encoding="utf-8")
        paths[name] = str(p)
    return paths


def read_report(path):
    doc = json.loads(open(path, encoding="utf-8").read())
    docs = doc["reports"] if "reports" in doc else [doc]
    for d in docs:
        validate_report(d)
    return doc


def test_exponent_command(measures, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["exponent", "--measure", measures["gauss"], "--out", str(out)])
    assert code == 0
    doc = read_report(out)
    assert doc["identity"] == "exponent"
    point = next(p for p in doc["points"] if p["y"] == [2.0])
    assert point["re"] == pytest.approx(-2.0, abs=1e-12)


def test_exponent_rejects_invalid_density(measures, capsys):
    code = main(["exponent", "--measure", measures["bad"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "min(1, r^2)" in err


def test_malformed_json_exit_code(tmp_path, capsys):
    p = tmp_path / "mal.json"
    p.write_text('{"dim": 1,\n "shift": [0.0,]}', encoding="utf-8")
    code = main(["exponent", "--measure", str(p)])
    assert code == 2
    assert "line 2 column" in capsys.readouterr().err


def test_unknown_family_exit_code(tmp_path, capsys):
    p = tmp_path / "unk.json"
    p.write_text('{"family": "weibull"}', encoding="utf-8")
    assert main(["exponent", "--measure", str(p)]) == 2
    assert "unknown family" in capsys.readouterr().err


def _one_density(**fields):
    density = {key: v for key, v in {"lo": 0.0, "hi": 1.0, "kind": "power", "coef": 1.0,
                                     "exponent": -1.5, **fields}.items() if v != "drop"}
    return {"dim": 1, "spectral": {"rays": [{"direction": [1.0], "densities": [density]}]}}


@pytest.mark.parametrize("spec,words", [
    (_one_density(coef="drop"), ("ray 0 density 0", "'coef'")),
    (_one_density(coef=None), ("ray 0 density 0", "'coef'")),
    (_one_density(exponent="nan"), ("ray 0 density 0", "finite")),
    ({"dim": 1, "spectral": {"rays": [{"atoms": [{"r": 1.0, "w": 1.0}]}]}},
     ("ray 0", "'direction'")),
    ({"dim": "x"}, ("'dim'",)),
    ({"dim": 0}, ("'dim'",)),
    (None, ("cannot read",)),
], ids=["no-coef", "null-coef", "nan-exponent", "no-direction", "text-dim", "zero-dim", "no-file"])
def test_malformed_spec_exits_2(spec, words, tmp_path, capsys):
    p = tmp_path / "spec.json"
    if spec is not None:
        p.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["exponent", "--measure", str(p)]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


def test_verify_lemma1e(measures, tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--identity", "lemma1e", "--measure", measures["gauss"],
         "--beta", "1", "--out", str(out)]
    )
    assert code == 0
    doc = read_report(out)
    assert doc["pass"] is True


def test_verify_prop2_with_mc(measures, tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--identity", "prop2", "--measure", measures["poisson"],
         "--beta", "2", "--mc.n", "30000", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = read_report(out)
    assert doc["pass"] is True
    metrics = {d["metric"] for d in doc["reports"]}
    assert metrics == {"abs_diff", "z_score"}


def test_verify_inconclusive_mc_fails_exit_code(measures, tmp_path):
    # too few samples for the statistical band: inconclusive, not a pass
    code = main(
        ["verify", "--identity", "cor3", "--measure", measures["poisson"],
         "--mc.n", "50", "--out", str(tmp_path / "r.json")]
    )
    assert code == 3


def test_verify_without_identity_errors(measures, capsys):
    assert main(["verify", "--measure", measures["gauss"]]) == 2


def test_verify_cor5(measures, tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--identity", "cor5", "--measure", measures["poisson"],
         "--beta", "1", "--out", str(out)]
    )
    assert code == 0
    assert read_report(out)["metric"] == "mass_diff"


def test_map_and_grid_flag(measures, tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        ["map", "--measure", measures["gauss"], "--mapping", "jbeta", "--beta", "2",
         "--grid", "1", "2", "--out", str(out)]
    )
    assert code == 0
    doc = read_report(out)
    assert doc["points"][0]["y"] == [1.0]
    assert doc["points"][0]["re"] == pytest.approx(-0.25, abs=1e-10)


def test_factor_command(measures, tmp_path):
    out = tmp_path / "rep.json"
    csv_path = tmp_path / "rho.csv"
    code = main(
        ["factor", "--measure", measures["gauss"], "--beta", "1",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    doc = read_report(out)
    assert doc["identity"] == "prop1"
    rows = list(csv.reader(open(csv_path, encoding="utf-8")))
    assert rows[0] == ["y", "rho_re", "rho_im"]
    got = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert got[1.0] == pytest.approx(-0.125, abs=1e-10)  # quarter variance
    # the CSV is the factor's exponent the report recorded
    assert [[float(r[1]), float(r[2])] for r in rows[1:]] == [p["rho"] for p in doc["points"]]


def test_simulate_command(measures, tmp_path):
    out = tmp_path / "rep.json"
    s_csv = tmp_path / "samples.csv"
    code = main(
        ["simulate", "--measure", measures["gauss"], "--integral", "jbeta",
         "--beta", "1", "--mc.n", "20000", "--seed", "2",
         "--out", str(out), "--csv", str(s_csv)]
    )
    assert code == 0
    doc = read_report(out)
    assert doc["metric"] == "z_score"
    samples = np.loadtxt(s_csv, delimiter=",")
    assert samples.shape == (20000,)
    assert abs(samples.var() - 1.0 / 3.0) < 0.02


def test_simulate_rejects_a_tail_too_slow_to_sample(tmp_path, capsys):
    # r^-1.1: its mass above the cutoff is a closed form, about 20, but the
    # mass beyond 1e15 is still 0.3
    spec = {"dim": 1, "spectral": {"rays": [{
        "direction": [1.0], "atoms": [{"r": 0.5, "w": 1.0}],
        "densities": [{"lo": 0, "hi": "inf", "kind": "power", "coef": 1.0,
                       "exponent": -1.1}]}]}}
    p = tmp_path / "heavy.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["simulate", "--measure", str(p), "--mc.n", "1000"]) == 2
    assert "segment tail decays too slowly to sample" in capsys.readouterr().err


def test_levy_area_command(tmp_path):
    out = tmp_path / "rep.json"
    a_csv = tmp_path / "area.csv"
    code = main(["levy-area", "--u", "2.0", "--out", str(out), "--csv", str(a_csv)])
    assert code == 0
    doc = read_report(out)
    assert doc["pass"] is True
    rows = list(csv.reader(open(a_csv, encoding="utf-8")))
    assert rows[0] == ["t", "background_exponent", "log_sinh_factor", "mapped", "abs_diff"]
    assert len(rows) == 11
    t, phi_nu, _, _, diff = map(float, rows[1])
    assert t == -5.0
    assert phi_nu == pytest.approx(-(10.0 / math.tanh(10.0) - 1.0), rel=1e-12)
    assert all(float(r[4]) < 1e-8 for r in rows[1:])
    assert diff == doc["points"][0]["abs_diff"]


def test_levy_area_grid_flag(tmp_path):
    out = tmp_path / "rep.json"
    a_csv = tmp_path / "area.csv"
    code = main(["levy-area", "--grid", "1", "2", "--out", str(out), "--csv", str(a_csv)])
    assert code == 0
    assert [p["t"] for p in read_report(out)["points"]] == [1.0, 2.0]
    rows = list(csv.reader(open(a_csv, encoding="utf-8")))
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0]


def test_map_csv(measures, tmp_path):
    m_csv = tmp_path / "map.csv"
    code = main(
        ["map", "--measure", measures["gauss"], "--mapping", "jbeta", "--beta", "2",
         "--grid", "1", "2", "--csv", str(m_csv)]
    )
    assert code == 0
    rows = list(csv.reader(open(m_csv, encoding="utf-8")))
    assert rows[0] == ["y", "re", "im"]
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0]
    assert float(rows[1][1]) == pytest.approx(-0.25, abs=1e-10)


def test_verify_rejects_csv(measures, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "lemma1e", "--measure", measures["gauss"],
              "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_verify_prop2_grid_reaches_mc_report(measures, tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--identity", "prop2", "--measure", measures["gauss"], "--grid", "0.5", "1",
         "--mc.n", "20000", "--out", str(out)]
    )
    assert code == 0
    for doc in read_report(out)["reports"]:
        assert [p["y"] for p in doc["points"]] == [[0.5], [1.0]]


def test_verify_levyarea_grid_flag(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "--identity", "levyarea", "--grid", "1", "2", "--out", str(out)])
    assert code == 0
    assert [p["t"] for p in read_report(out)["points"]] == [1.0, 2.0]


def test_verify_all_rejects_grid(capsys):
    assert main(["verify", "--all", "--grid", "1", "--mc.n", "0"]) == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--beta", "--u"])
def test_verify_all_rejects_identity_flags(flag, capsys):
    assert main(["verify", "--all", flag, "2", "--mc.n", "0"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("identity", ["cor3", "levyarea"])
def test_verify_rejects_beta_the_identity_does_not_read(identity, measures, capsys):
    # both run at index 1 whatever --beta says
    argv = ["verify", "--identity", identity, "--measure", measures["gauss"], "--beta", "2"]
    assert main(argv + ["--mc.n", "50"]) == 2
    assert f"{identity} runs at index 1; it reads no --beta" in capsys.readouterr().err


UNREAD_FLAGS = [
    *((name, ["--u", "3"]) for name in IDENTITIES if name != "levyarea"),
    ("cor5", ["--grid", "1", "2"]),
]


@pytest.mark.parametrize("identity,flag", UNREAD_FLAGS, ids=[n + f[0] for n, f in UNREAD_FLAGS])
def test_verify_rejects_a_flag_the_row_does_not_read(identity, flag, measures, capsys):
    # only levyarea reads --u, and cor5 runs on its own radial mesh
    argv = ["verify", "--identity", identity, "--measure", measures["gauss"], "--mc.n", "0"]
    assert main(argv + flag) == 2
    assert f"{identity} reads no {flag[0]}" in capsys.readouterr().err


def test_verify_cor3_without_monte_carlo_exits_2(measures, capsys):
    argv = ["verify", "--identity", "cor3", "--measure", measures["gauss"], "--mc.n", "0"]
    assert main(argv) == 2
    assert "cor3's only route is Monte Carlo, so --mc.n must be > 0" in capsys.readouterr().err


def test_verify_all_mc_smax_reaches_mc_reports(measures, tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--all", "--measure", measures["shift"], "--mc.n", "200",
         "--mc.smax", "10", "--out", str(out)]
    )
    assert code == 0
    mc = [d for d in read_report(out)["reports"] if d["metric"] == "z_score"]
    assert len(mc) == 3
    assert all(d["extra"]["s_max"] == 10.0 for d in mc)


def test_verify_prop2_on_full_triplet_spec(measures, tmp_path):
    # the mapped measure carries no triplet; the log-moment gate of i_map
    # reads the flag j_beta takes from the source triplet
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--identity", "prop2", "--measure", measures["atom_exp"], "--mc.n", "0",
         "--grid", "1", "--out", str(out)]
    )
    assert code == 0
    assert read_report(out)["pass"] is True


def readme_spec() -> dict:
    """The full triplet spec the README shows: an atom at 2 plus r^-1.5 on (0, 1)."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize(
    "argv", [["factor", "--beta", "1"], ["verify", "--identity", "lemma1e", "--beta", "1"]],
    ids=["factor", "lemma1e"],
)
def test_readme_example_spec_passes(tmp_path, argv):
    spec = tmp_path / "readme.json"
    spec.write_text(json.dumps(readme_spec()), encoding="utf-8")
    out = tmp_path / "rep.json"
    assert main(argv + ["--measure", str(spec), "--out", str(out)]) == 0
    assert read_report(out)["pass"] is True


def test_one_process_runs_commands_as_separate_processes_do(measures, tmp_path):
    # main() parses every call with one parser; a call must not see the
    # options of the call before it
    import os
    import subprocess
    import sys

    commands = [
        ["map", "--measure", measures["gauss"], "--mapping", "jbeta", "--beta", "2",
         "--grid", "1", "2"],
        ["verify", "--identity", "lemma1e", "--measure", measures["poisson"], "--beta", "0.5",
         "--mc.n", "0"],
        ["map", "--measure", measures["gauss"], "--mapping", "cor1a", "--grid", "0.5"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for i, argv in enumerate(commands):
        here, alone = tmp_path / f"here{i}.json", tmp_path / f"alone{i}.json"
        assert main([*argv, "--out", str(here)]) == 0
        run = subprocess.run([sys.executable, "-m", "idcalc.cli", *argv, "--out", str(alone)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert read_report(here) == read_report(alone)
