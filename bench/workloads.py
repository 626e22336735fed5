"""The three workloads: inputs made from a seed, operations, and checks.

Each operation is one call into idcalc's public API, timed by itself;
its check compares the output with a value from ``oracles`` (or
``mccheck``), never with another idcalc result.  The ops ask for their
oracle values through an ``OracleTable`` while they are built; the values
are computed in a child process (``python3 bench/oracles.py``), so the
timed process never imports mpmath.  Only the standard library is
imported at module level, so that a set-up probe can time
``import idcalc`` from a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

WORKLOADS = ("quad-matrix", "mc-sampler", "spec-cli")

# the default 1-d grid, +-{0.1, 0.5, 1, 2, 5}, pinned here so that the
# workloads stay the same if idcalc's default changes
GRID_1D = (-5.0, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 5.0)

# quad-matrix: the run_all(mc_n=0) matrix on run_all's grids
SEED_FAMILIES = {
    "gaussian": {"var": 1.0},
    "shift": {"shift": 1.0},
    "poisson": {"rate": 1.0, "jump": 2.0},
    "gamma": {"shape": 1.0, "rate": 1.0},
}
MATRIX_IDENTITIES = ("lemma1c", "lemma1d", "lemma1e", "prop1", "cor1a", "cor1b", "prop2")
MATRIX_BETAS = (0.5, 1.0, 2.0)
MATRIX_GRIDS = {"cor1b": GRID_1D[::2]}  # run_all thins cor1b's grid; the rest use GRID_1D
# reports verify_identity returns: lemma1c one per beta in the set, lemma1d
# one per scaling; every other identity one
MATRIX_REPORTS = {"lemma1c": 3, "lemma1d": 3}
COR5_MESH_K = (-1, 1)  # radial test intervals (1/2, 1], (1, 2], (2, 4]

# mc-sampler
MC_FAMILIES = ("gamma", "poisson", "gaussian")
MC_KERNELS = ("jbeta", "imap", "clocked", "cor1a")
MC_BETA = 1.0
MC_N = 50_000  # the MC check then rejects gamma jumps scaled by 5% on every kernel
MC_S_MAX = 20.0

# spec-cli
SPEC_MAP_BETA = 2.0
SPEC_BETA = 1.0
SPEC_MAPPINGS = ("jbeta", "jbeta-inv", "imap", "i-of-jbeta", "cor1a")
SPEC_2D_MAP_STRIDE = 4  # check every 4th of the 64 default-grid points of a 2-d map

# agreement required between the program and an oracle value
TOL = 1e-8


def close(got: complex, want: complex, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def cor5_mesh(k_lo: int = -3, k_hi: int = 6) -> list:
    """The dyadic radial test intervals ``(2^-k, 2^(1-k)]``; the defaults
    are the mesh ``verify_corollary5`` uses when given none."""
    return [(2.0**-k, 2.0 ** (1 - k)) for k in range(k_lo, k_hi + 1)]


class OracleTable:
    """Oracle values asked for while the ops are built.

    ``ask`` records a JSON request (see ``oracles.evaluate``) and returns
    its key; ``run.py`` has every request evaluated in one child process
    and fills ``values`` before the first round, and checks look their
    values up by key.
    """

    def __init__(self):
        self.requests: dict[str, list] = {}
        self.values: dict[str, Any] = {}

    def ask(self, *request) -> str:
        key = json.dumps(request)
        self.requests[key] = list(request)
        return key

    def __getitem__(self, key: str):
        return self.values[key]


@dataclass
class Op:
    """One timed call into idcalc and the check of its output."""

    label: str
    kind: str  # identity or CLI command, names the op span
    run: Callable[[], Any]
    check: Callable[[Any], tuple]  # -> (ok, note)
    prepare: Optional[Callable[[], None]] = None
    verdict: Optional[Callable[[Any], bool]] = None  # program's own pass flag
    # counts known when the op is built: "values" (top-level exponent values
    # the op computes), "jumps" and "samples"
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _seed_measures():
    from idcalc import dirac, gamma, gaussian, poisson

    p = SEED_FAMILIES
    return {
        "gaussian": gaussian(var=p["gaussian"]["var"]),
        "shift": dirac([p["shift"]["shift"]]),
        "poisson": poisson(rate=p["poisson"]["rate"], jump=p["poisson"]["jump"]),
        "gamma": gamma(shape=p["gamma"]["shape"], rate=p["gamma"]["rate"]),
    }


def family_spec(family: str) -> dict:
    """The spectral ray of a seed family in spec form, for the cor5 oracle."""
    p = SEED_FAMILIES[family]
    if family == "poisson":
        return {"direction": [1.0], "atoms": [{"r": p["jump"], "w": p["rate"]}]}
    if family == "gamma":
        dens = {"lo": 0.0, "hi": "inf", "kind": "exp", "coef": p["shape"],
                "exponent": -1.0, "rate": p["rate"]}
        return {"direction": [1.0], "densities": [dens]}
    raise ValueError(family)


def make_specs(seed: int) -> dict:
    """Full-triplet specs: two 1-d (bounded power densities; an unbounded
    exp density) and one 2-d.  The seed draws the Gaussian parts and the
    2-d directions.  The shifts and the spectral part are fixed: moving
    radii, supports or exponents by a few percent changed a round's
    quadrature work by up to 15%, and drawing the weights and coefficients
    moved one ``factor`` command between 3.8 and 6.5 s, the shift between
    4.2 and 6.9 s, which would read as noise.  Power exponents stay above -1.5 (see the FOUND line on
    nested maps)."""
    rng = random.Random(seed * 7919 + 17)
    u = rng.uniform
    power = {
        "dim": 1, "shift": [0.25], "cov": [[u(0.2, 0.8)]],
        "spectral": {"rays": [
            {"direction": [1.0],
             "atoms": [{"r": 0.5, "w": 0.6}, {"r": 2.0, "w": 0.5}],
             "densities": [{"lo": 0.0, "hi": 1.5, "kind": "power",
                            "coef": 0.6, "exponent": -1.2}]},
            {"direction": [-1.0],
             "atoms": [{"r": 1.2, "w": 0.8}],
             "densities": [{"lo": 0.2, "hi": 3.0, "kind": "power",
                            "coef": 0.6, "exponent": 0.5}]},
        ]},
    }
    expo = {
        "dim": 1, "shift": [-0.25], "cov": [[u(0.2, 0.8)]],
        "spectral": {"rays": [
            {"direction": [1.0],
             "atoms": [{"r": 0.7, "w": 0.6}],
             "densities": [{"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 0.6,
                            "exponent": -0.5, "rate": 1.5}]},
            {"direction": [-1.0], "atoms": [{"r": 1.6, "w": 0.5}]},
        ]},
    }
    th = u(0.0, 2.0 * math.pi)
    v1, v2, rho = u(0.2, 0.8), u(0.2, 0.8), u(-0.5, 0.5)
    c12 = rho * math.sqrt(v1 * v2)
    plane = {
        "dim": 2, "shift": [0.2, -0.3], "cov": [[v1, c12], [c12, v2]],
        "spectral": {"rays": [
            {"direction": [math.cos(th), math.sin(th)],
             "atoms": [{"r": 0.5, "w": 0.6}, {"r": 1.5, "w": 0.4}],
             "densities": [{"lo": 0.1, "hi": 1.5, "kind": "power",
                            "coef": 0.6, "exponent": -0.5}]},
            {"direction": [math.cos(th + 2.2), math.sin(th + 2.2)],
             "atoms": [{"r": 2.0, "w": 0.5}]},
        ]},
    }
    return {"power1d": power, "exp1d": expo, "plane2d": plane}


def spec_dir(root: Path) -> Path:
    return root / "bench" / "_out" / "work"


def write_specs(seed: int, root: Path) -> None:
    """Write the seed's spec files, which the CLI reads on every command."""
    d = spec_dir(root)
    d.mkdir(parents=True, exist_ok=True)
    for name, spec in make_specs(seed).items():
        (d / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")


def build_inputs(workload: str, seed: int, root: Path):
    """Import idcalc and build the workload's input measures.

    This is the work ``setup_s`` times: for spec-cli, parsing each spec
    file and validating its triplet, as the CLI does on every command.
    """
    import idcalc

    if workload == "quad-matrix":
        return _seed_measures()
    if workload == "mc-sampler":
        measures = _seed_measures()
        return {f: measures[f] for f in MC_FAMILIES}
    if workload == "spec-cli":
        d = spec_dir(root)
        return {name: idcalc.load_measure(d / f"{name}.json") for name in make_specs(seed)}
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# quad-matrix
# ---------------------------------------------------------------------------


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def quad_matrix_ops(seed: int, measures: dict, table: OracleTable) -> list:
    """``verify_identity`` over the ``run_all(mc_n=0)`` matrix, on run_all's
    grids; the seed shuffles the order of the operations."""
    import idcalc
    import numpy as np

    ops = []
    for fam, mu in measures.items():
        params = SEED_FAMILIES[fam]
        for beta in MATRIX_BETAS:
            for name in MATRIX_IDENTITIES:
                ys = MATRIX_GRIDS.get(name, GRID_1D)
                # one oracle value per report at each frequency
                want = {y: table.ask("identity", fam, params, name, beta, y) for y in ys}
                reports = MATRIX_REPORTS.get(name, 1)

                def check(out, want=want, reports=reports):
                    if len(out) != reports:
                        return False, f"{len(out)} reports, expected {reports}"
                    for i, rep in enumerate(out):
                        if len(rep.points) != len(want):
                            return False, f"{len(rep.points)} points, expected {len(want)}"
                        for pt in rep.points:
                            key = want.get(pt["y"][0])
                            if key is None:
                                return False, f"unexpected frequency {pt['y']}"
                            w = _cplx(table[key][i])
                            for side in ("lhs", "rhs"):
                                if not close(_cplx(pt[side]), w):
                                    return False, f"y={pt['y']} {side} {_cplx(pt[side])} vs oracle {w}"
                    return True, ""

                ops.append(Op(
                    label=f"{name}/{fam}/b{beta:g}", kind=name,
                    run=lambda name=name, mu=mu, beta=beta, grid=np.array(ys).reshape(-1, 1):
                        idcalc.verify_identity(name, mu, beta=beta, grid=grid, mc_n=0),
                    check=check,
                    verdict=lambda out: all(r.passed for r in out),
                    extra={"values": 2 * len(ys) * reports},
                ))
    mesh = cor5_mesh(*COR5_MESH_K)
    for fam in ("poisson", "gamma"):
        ray = family_spec(fam)
        for beta in (1.0, 2.0):
            want = [table.ask("cor5", ray, beta, r1, r2) for r1, r2 in mesh]

            def check(rep, want=want):
                if len(rep.points) != len(want):
                    return False, "wrong number of intervals"
                for pt, key in zip(rep.points, want):
                    for side in ("lhs", "rhs"):
                        if not close(pt[side], table[key]):
                            return False, f"{side} {pt[side]} vs oracle {table[key]} on {pt['interval']}"
                return True, ""

            ops.append(Op(
                label=f"cor5/{fam}/b{beta:g}", kind="cor5",
                run=lambda M=measures[fam].triplet.M, beta=beta:
                    idcalc.verify_corollary5(M, beta, mesh=mesh),
                check=check, verdict=lambda rep: rep.passed,
            ))

    # verify_identity("levyarea") runs on idcalc's default grid
    area = {t: table.ask("levyarea", t) for t in GRID_1D}

    def check_area(out):
        pts = out[0].points
        if len(pts) != len(area):
            return False, f"{len(pts)} points, expected {len(area)}"
        for pt in pts:
            key = area.get(pt["t"])
            if key is None:
                return False, f"unexpected frequency t={pt['t']}"
            for side in ("mapped", "log_sinh_factor"):
                if not close(_cplx(pt[side]), table[key]):
                    return False, f"{side} at t={pt['t']}: {pt[side]} vs {table[key]}"
        return True, ""

    ops.append(Op(label="levyarea", kind="levyarea",
                  run=lambda: idcalc.verify_identity("levyarea", u=1.0), check=check_area,
                  verdict=lambda out: all(r.passed for r in out)))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# mc-sampler
# ---------------------------------------------------------------------------


def mc_clock_end(kernel: str, beta: float) -> float:
    if kernel in ("jbeta", "cor1a"):
        return 1.0
    if kernel == "imap":
        return MC_S_MAX
    return MC_S_MAX + math.expm1(-beta * MC_S_MAX) / beta


def mc_ops(seed: int, measures: dict, table: OracleTable) -> list:
    import idcalc
    import numpy as np
    from idcalc.simulate import PathConfig

    import mccheck

    integrals = {
        "jbeta": lambda b: idcalc.jbeta_integral_spec(b),
        "imap": lambda b: idcalc.imap_integral_spec(MC_S_MAX),
        "clocked": lambda b: idcalc.clocked_integral_spec(b, MC_S_MAX),
        "cor1a": lambda b: idcalc.cor1a_integral_spec(b),
    }
    references = {
        "jbeta": lambda mu, b: idcalc.j_beta(mu, b),
        "imap": lambda mu, b: idcalc.i_map(mu),
        "clocked": lambda mu, b: idcalc.i_of_j_beta(mu, b),
        "cor1a": lambda mu, b: idcalc.corollary1a_kernel(mu, b),
    }
    cfg = PathConfig()
    grid = np.array(GRID_1D).reshape(-1, 1)
    sample_seed = random.Random(seed).randrange(1 << 31)
    ops = []
    for fam in MC_FAMILIES:
        mu = measures[fam]
        cutoff_mass = mu.triplet.M.mass_above(cfg.small_jump_cutoff)
        for kernel in MC_KERNELS:
            b = MC_BETA
            # moments "mean", "var", "k4" and the oracle cf on the grid
            want = table.ask("mc", fam, SEED_FAMILIES[fam], kernel, b, list(GRID_1D))

            def run(mu=mu, kernel=kernel, b=b):
                samples = idcalc.sample_integral(
                    mu.triplet, integrals[kernel](b), cfg, MC_N, sample_seed)
                est = idcalc.ecf(samples, grid)
                res = idcalc.cf_distance_test(est, references[kernel](mu, b).exponent)
                return samples, est, res

            def check(out, want=want):
                samples, est, res = out
                if samples.shape != (MC_N, 1):
                    return False, f"sample shape {samples.shape}"
                direct = np.exp(1j * samples @ grid.T).mean(axis=0)
                if np.max(np.abs(est.values - direct)) > 1e-12:
                    return False, "ecf differs from the direct sample mean"
                w = table[want]
                target = [_cplx(v) for v in w["cf"]]
                mc = mccheck.check_sample(samples, w, grid, target, step=cfg.step)
                return mc.ok, mc.describe()

            ops.append(Op(
                label=f"{kernel}/{fam}", kind=f"mc.{kernel}", run=run, check=check,
                verdict=lambda out: out[2].passed,
                extra={"values": len(grid), "samples": MC_N,
                       "jumps": MC_N * cutoff_mass * mc_clock_end(kernel, b)},
            ))
    return ops


# ---------------------------------------------------------------------------
# spec-cli
# ---------------------------------------------------------------------------


def spec_cli_ops(seed: int, specs: dict, table: OracleTable) -> list:
    """``idcalc.cli.main`` in-process, each command writing its report.

    1-d commands get the pinned grid through ``--grid``; 2-d ones run on
    idcalc's 64-point default grid, as ``--grid`` is 1-d only.
    """
    import idcalc.cli
    from idcalc import default_grid

    ops = []
    for name, (path, spec) in specs.items():
        dim = spec["dim"]
        points = [[y] for y in GRID_1D] if dim == 1 else default_grid(dim).tolist()
        grid_args = ["--grid", *[repr(y) for y in GRID_1D]] if dim == 1 else []
        stride = 1 if dim == 1 else SPEC_2D_MAP_STRIDE
        commands = [("exponent", ["exponent"], "exponent", 1.0, 1)]
        commands += [(f"map:{m}", ["map", "--mapping", m, "--beta", repr(SPEC_MAP_BETA)],
                      m, SPEC_MAP_BETA, stride) for m in SPEC_MAPPINGS]
        if dim == 1:
            commands.append(("factor", ["factor", "--beta", repr(SPEC_BETA)], "jbeta", SPEC_BETA, 1))
        commands.append(("cor5", ["verify", "--identity", "cor5", "--beta", repr(SPEC_BETA)],
                         None, SPEC_BETA, 1))
        for kind, cmd, mapping, beta, step in commands:
            out = path.parent / f"{name}-{kind.replace(':', '-')}.out.json"
            argv = cmd + ["--measure", str(path), "--out", str(out)]
            if cmd[0] != "verify":
                argv += grid_args
            if mapping is None:
                rays = spec["spectral"]["rays"]
                want = {(i, r1): table.ask("cor5", ray, beta, r1, r2)
                        for i, ray in enumerate(rays) for r1, r2 in cor5_mesh()}
                sides = ("lhs", "rhs")
            else:
                want = {tuple(p): table.ask("spec", spec, mapping, beta, p) for p in points[::step]}
                sides = ("lhs", "rhs") if kind == "factor" else None

            def run(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = idcalc.cli.main(argv)
                return code

            def check(code, out=out, want=want, sides=sides, kind=kind, points=points):
                if code != 0:
                    return False, f"exit code {code}"
                doc = json.loads(out.read_text(encoding="utf-8"))
                pts = doc["points"]
                if kind == "cor5":
                    if len(pts) != len(want):
                        return False, "wrong number of intervals"
                    for pt in pts:
                        w = table[want[(pt["ray"], pt["interval"][0])]]
                        for side in sides:
                            if not close(pt[side], w):
                                return False, f"{side} {pt[side]} vs oracle {w}"
                    return True, ""
                if len(pts) != len(points):
                    return False, f"{len(pts)} points, expected {len(points)}"
                for pt in pts:
                    key = want.get(tuple(pt["y"]))
                    if key is None:
                        continue
                    w = _cplx(table[key])
                    got = [_cplx(pt[s]) for s in sides] if sides else [complex(pt["re"], pt["im"])]
                    for g in got:
                        if not close(g, w):
                            return False, f"y={pt['y']}: {g} vs oracle {w}"
                return True, ""

            def prepare(out=out):
                out.unlink(missing_ok=True)

            def verdict(code, out=out):
                return code == 0 and bool(json.loads(out.read_text(encoding="utf-8"))["pass"])

            # span names: factor runs verify_prop1, so it is timed as prop1;
            # it evaluates both sides at every point
            span = {"factor": "prop1"}.get(kind, kind.split(":")[0])
            values = {"exponent": 1, "map": 1, "prop1": 2}.get(span, 0) * len(points)
            ops.append(Op(label=f"{name}/{kind}", kind=span, run=run, check=check,
                          prepare=prepare, verdict=verdict, extra={"values": values}))
    random.Random(seed).shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, root: Path, inputs, table: OracleTable) -> list:
    if workload == "quad-matrix":
        return quad_matrix_ops(seed, inputs, table)
    if workload == "mc-sampler":
        return mc_ops(seed, inputs, table)
    if workload == "spec-cli":
        d = spec_dir(root)
        specs = {name: (d / f"{name}.json", spec) for name, spec in make_specs(seed).items()}
        return spec_cli_ops(seed, specs, table)
    raise ValueError(workload)
