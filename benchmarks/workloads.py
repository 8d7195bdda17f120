"""The four benchmark workloads.

A workload generates its inputs from the seed when it is built (that is
the set-up `setup_s` times), then offers a fixed list of operations that
run one at a time, and a check for each operation's outputs.  Checks use
only `checks`, which never calls decolab.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from decolab import cli, hilbert, localization, premeasure, runner
from decolab.scenarios import registry


@dataclass
class Op:
    name: str
    run: Callable[[Path], object]            # gets the round's output directory
    check: Callable[[object, list], None]    # gets the result and the captured scenario returns
    known_fault: bool = False


def _trace(path: Path) -> dict[str, np.ndarray]:
    return checks.read_csv(path)[1]


def _execute_in(cfg: runner.RunConfig, outdir: Path, name: str):
    """`runner.execute` with its CSV at outdir/<name>.csv, one file per operation."""
    cfg.output_path = str(outdir / f"{name}.csv")
    return runner.execute(cfg)


def _captured(captured: list, kind) -> tuple:
    found = [out for cfg, out in captured if isinstance(cfg, kind)]
    checks.require(len(found) == 1, f"expected one captured {kind.__name__} result, got {len(found)}")
    return found[0]


def check_two_slit(trace: dict, captured: list, params: dict) -> None:
    """Any two-slit run: ends at t_final with trace one; the captured final
    state is a valid, edge-free state whose moments (finite mass) or whose
    visibility (infinite mass) match the closed forms."""
    _, final = _captured(captured, registry.TwoSlitConfig)
    checks.check_last_time(trace["time"], params["t_final"])
    checks.close("trace column", trace["trace"], np.ones_like(trace["trace"]), 1e-9)
    n, sep, width = int(params["n_points"]), params["slit_separation"], params["packet_width"]
    psi, x_r, x_l, dx = checks.two_slit_psi(n, sep, width)
    checks.check_grid_state(final.rho, dx)
    mass, lam = params["mass"], params["lambda"]
    if math.isinf(mass):
        checks.check_visibility(trace["time"], trace["visibility"], lam, x_r, x_l)
    else:
        x, _ = checks.grid_points(n, 2.0 * sep)
        m0 = checks.grid_moments(np.outer(psi, psi.conj()), x, dx)
        expected = checks.strang_moments(m0, mass, lam, params["t_final"], params["dt"])
        checks.check_moments(checks.grid_moments(final.rho, x, dx), expected)


# ---------------------------------------------------------------- grid

class Grid:
    """Grid master-equation solver: two two-slit runs and two direct `evolve` calls."""

    name = "grid"
    headline = "two-slit-512"
    EVOLVE_N, EVOLVE_HALF, EVOLVE_T, EVOLVE_DT = 256, 4.0, 0.15, 0.005

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        lam = float(rng.uniform(0.5, 1.5))
        # mass 10, packets at +-1 on [-4, 4): the packets stay ~8 widths clear of the edge;
        # 12 steps, so that a run holds enough rounds for a steady median
        self.finite = runner.parse_config(
            f"[two-slit]\nseed = {seed}\nn_points = 512\nmass = 10\nslit_separation = 2\n"
            f"packet_width = 0.15\nlambda = {lam!r}\nt_final = 0.12\n")[0]
        self.infinite = runner.parse_config(f"[two-slit]\nseed = {seed}\n")[0]

        self.mass = float(rng.uniform(5.0, 20.0))
        self.lam = float(rng.uniform(0.5, 2.0))
        centre, width, kick = rng.uniform(0.8, 1.2), rng.uniform(0.15, 0.25), rng.uniform(1.0, 3.0)
        self.x, self.dx = checks.grid_points(self.EVOLVE_N, self.EVOLVE_HALF)
        psi = sum(np.exp(-((self.x - s * centre) ** 2) / (4.0 * width**2) - 1j * s * kick * self.x)
                  for s in (1.0, -1.0))
        psi = psi / (np.linalg.norm(psi) * math.sqrt(self.dx))
        rho0 = np.outer(psi, psi.conj())
        self.m0 = checks.grid_moments(rho0, self.x, self.dx)
        grid = localization.GridSpec(self.EVOLVE_N, -self.EVOLVE_HALF, self.EVOLVE_HALF)
        self.s0 = localization.GridDensityMatrix(grid, rho0, self.mass, self.lam)

    def ops(self) -> list[Op]:
        steps = round(self.EVOLVE_T / self.EVOLVE_DT)
        return [
            Op("two-slit-512", lambda out: _execute_in(self.finite, out, "two-slit-512"),
               self._check_run(self.finite)),
            Op("two-slit-256-inf-mass", lambda out: _execute_in(self.infinite, out, "two-slit-256-inf-mass"),
               self._check_run(self.infinite)),
            Op("evolve-recorded", lambda out: localization.evolve(
                self.s0, self.EVOLVE_T, self.EVOLVE_DT, recorder=localization.OBSERVABLES, record_stride=1),
               self._check_evolve),
            Op("evolve-bare", lambda out: localization.evolve(
                self.s0, self.EVOLVE_T, self.EVOLVE_DT, recorder=(), record_stride=steps),
               self._check_evolve),
        ]

    @staticmethod
    def _check_run(cfg):
        def check(report, captured):
            check_two_slit(_trace(Path(report.trace_path)), captured, cfg.parameters)
        return check

    def _check_evolve(self, result, captured):
        final, trace = result
        times, records = trace.as_arrays()
        checks.check_last_time(times, self.EVOLVE_T)
        checks.check_grid_state(final.rho, self.dx)
        expected = checks.strang_moments(self.m0, self.mass, self.lam, times, self.EVOLVE_DT)
        checks.check_moments(checks.grid_moments(final.rho, self.x, self.dx), expected[:, -1])
        if records:
            got = np.array([records["var_xx"], records["cov_xp"], records["var_pp"]])
            checks.check_moments(got, expected)
            checks.close("trace observable", records["trace"], np.ones_like(times), 1e-9)


# ---------------------------------------------------------------- few-level

class FewLevel:
    """Chiral and decay scenarios through `runner.execute`, at their registry
    defaults but for a shorter t_final on the two longest, so that a run
    holds enough rounds for a steady best time."""

    name = "few-level"
    headline = "decay-monitored"
    SCENARIOS = {"chiral-sugar": "t_final = 40\n", "chiral-ph3-like": "", "decay-cavity": "",
                 "decay-monitored": "t_final = 8\n"}  # name -> lines that override the defaults

    def __init__(self, seed: int, workdir: Path):
        self.cfgs = {name: runner.parse_config(f"[{name}]\nseed = {seed}\n{extra}")[0]
                     for name, extra in self.SCENARIOS.items()}
        self._oracle = None

    def ops(self) -> list[Op]:
        return [Op(name, (lambda out, c=cfg, n=name: _execute_in(c, out, n)), self._check(name))
                for name, cfg in self.cfgs.items()]

    def _check(self, name):
        cfg = self.cfgs[name]
        p = cfg.parameters

        def check(report, captured):
            trace = _trace(Path(report.trace_path))
            checks.check_last_time(trace["time"], p["t_final"])
            if name.startswith("chiral"):
                checks.close("trace column", trace["trace"], np.ones_like(trace["time"]), 1e-12)
                checks.check_chiral(trace["time"], trace["p_left"], trace["coherence"], p["omega"], p["gamma"], p["dt"])
                return
            h = checks.decay_hamiltonian(int(p["n_modes"]), p["mode_spacing"], p["coupling"])
            if name == "decay-cavity":
                checks.check_decay_unitary(trace["time"], trace["survival"], h)
                return
            if self._oracle is None:  # same inputs every round
                self._oracle = checks.monitored_decay_oracle(
                    h, p["monitor_rate"], p["dt"], round(p["t_final"] / p["dt"]), cfg.stride)
            _, rho = _captured(captured, registry.DecayConfig)
            checks.check_decay_monitored(trace["time"], trace["survival"], rho, self._oracle)
            predicted = checks.band_limited_golden_rule(int(p["n_modes"]), p["mode_spacing"], p["coupling"],
                                                        p["monitor_rate"])
            checks.check_rate(report.summary["fitted_rate"], predicted)
        return check


# ---------------------------------------------------------------- kinematics

@dataclass
class Chain:
    amps: np.ndarray
    readies: list
    pointer_sets: list
    couplings: list
    scatterers: premeasure.ScattererChain


class Kinematics:
    """Premeasurement chains on a qubit (joint dim 2^10) and a qutrit (3 * 2^8)."""

    name = "kinematics"
    headline = "chain-qubit"
    SHAPES = {"chain-qubit": (2, 9), "chain-qutrit": (3, 8)}  # system dim, number of qubit records
    HEADLINE_DIM = SHAPES[headline][0] * 2 ** SHAPES[headline][1]  # joint dimension, 2^10

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.chains = {}
        for name, (dim, records) in self.SHAPES.items():
            amps = checks.random_unit(rng, dim)
            readies = [checks.random_unit(rng, 2) for _ in range(records)]
            pointer_sets = [np.array([checks.random_unit(rng, 2) for _ in range(dim)]) for _ in range(records)]
            couplings = [premeasure.PointerCoupling(r, p) for r, p in zip(readies, pointer_sets)]
            scatterers = premeasure.ScattererChain([checks.gram(p) for p in pointer_sets])
            self.chains[name] = Chain(amps, readies, pointer_sets, couplings, scatterers)

    def ops(self) -> list[Op]:
        return [Op(name, (lambda out, c=chain: self._run(c)), self._check(chain)) for name, chain in self.chains.items()]

    @staticmethod
    def _run(chain: Chain) -> dict:
        dim, records = len(chain.amps), len(chain.couplings)
        psi = hilbert.StateVector(chain.amps, hilbert.SubsystemSplit((dim,)))
        for coupling in chain.couplings:
            psi = premeasure.ideal_premeasure(psi, coupling)
        rho = hilbert.density_of(psi)
        reduced = hilbert.partial_trace(rho, (0,))
        del rho
        schmidt = hilbert.schmidt(psi, (0,))
        factors = {(m, n, k): premeasure.decoherence_factor(chain.scatterers, m, n, k)
                   for m in range(dim) for n in range(dim) if m != n for k in (1, records)}
        return {
            "reduced": reduced.entries,
            "probabilities": schmidt.probabilities,
            "entropy": hilbert.entanglement_entropy(reduced),
            "factors": factors,
            "erased": premeasure.erase(psi, chain.couplings, range(records)).amplitudes,
        }

    @staticmethod
    def _check(chain: Chain):
        expected = checks.reduced_oracle(chain.amps, chain.pointer_sets)
        initial = chain.amps
        for ready in chain.readies:
            initial = np.kron(initial, ready)

        def check(out, captured):
            checks.check_reduced(out["reduced"], expected)
            checks.check_schmidt(out["probabilities"], out["entropy"], expected)
            checks.check_decoherence_factors(out["factors"], chain.pointer_sets)
            checks.check_erased(out["erased"], initial)
        return check


# ---------------------------------------------------------------- batch-io

# Configs that fail on the code as it stands; each must end in exit 0, 2 or 3,
# with outputs passing the checks on exit 0.  Inputs do not depend on the seed.
KNOWN_FAULTS = {
    "F1-n-points-300": "[two-slit]\nn_points = 300\n",
    "F2-slit-0.05": "[two-slit]\nslit_separation = 0.05\n",
    "F3-dt-0.3": "[two-slit]\nt_final = 1.0\ndt = 0.3\n",
    "F4-decay-t64": "[decay-cavity]\nt_final = 64\n",
    "F5-wrapping-packets": "[two-slit]\nmass = 1\nn_points = 256\nt_final = 0.1\ndt = 0.001\n",
    "F6-charge-underflow": "[charge-shells]\nrecord_stride = 1\nshells = 500\nn_charges = 3\noverlap = 0.9\n",
}


class BatchIO:
    """Short `decolab run` calls in process through `cli.main`, then `decolab summarize`."""

    name = "batch-io"
    headline = "run-charge-shells"
    SHELLS, RUNS = 4000, 400_000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.overlap = float(rng.uniform(0.998, 0.9995))
        amplitude_seed = int(rng.integers(0, 2**31))
        self.born_probs = checks.born_probabilities(amplitude_seed, 4)
        texts = {
            "charge-shells": f"[charge-shells]\nseed = {seed}\nrecord_stride = 1\nshells = {self.SHELLS}\n"
                             f"n_charges = 3\noverlap = {self.overlap!r}\n",
            "born-chain": f"[born-chain]\nseed = {seed}\nn_outcomes = 4\nruns = {self.RUNS}\n"
                          f"amplitude_seed = {amplitude_seed}\n",
            "decay-cavity": f"[decay-cavity]\nseed = {seed}\n",
            "decay-cavity-rerun": f"[decay-cavity]\nseed = {seed}\n",
            **KNOWN_FAULTS,
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for name, text in texts.items():
            section, body = text.split("\n", 1)
            path = workdir / f"{name}.cfg"
            path.write_text(f"{section}\noutput = {name}.csv\n{body}")
            self.configs[name] = path
        self.parsed = {name: runner.parse_config(path.read_text())[0] for name, path in self.configs.items()}

    def ops(self) -> list[Op]:
        ops = [Op(f"run-{name}", self._runner(path), self._check_run(name), known_fault=name in KNOWN_FAULTS)
               for name, path in self.configs.items()]
        for scenario in ("charge-shells", "born-chain", "decay-cavity", "two-slit"):
            ops.append(Op(f"summarize-{scenario}", self._summarizer(scenario), self._check_summary(scenario)))
        return ops

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def _runner(self, path: Path):
        def run(outdir):
            os.environ[runner.OUTPUT_DIR_ENV] = str(outdir)
            code, _ = self._cli(["run", str(path)])
            return code, outdir
        return run

    def _csvs(self, outdir: Path, scenario: str) -> list[Path]:
        return [outdir / f"{name}.csv" for name, cfg in self.parsed.items()
                if cfg.scenario == scenario and (outdir / f"{name}.csv").exists()]

    def _summarizer(self, scenario: str):
        def run(outdir):
            files = self._csvs(outdir, scenario)
            code, table = self._cli(["summarize", *map(str, files)])
            return code, table, files
        return run

    def _check_run(self, name: str):
        cfg = self.parsed[name]
        p = cfg.parameters

        def check(result, captured):
            code, outdir = result
            checks.require(code in (0, 2, 3), f"exit code {code}")
            if code != 0:
                return
            path = outdir / f"{name}.csv"
            trace = _trace(path)
            if cfg.scenario == "two-slit":
                check_two_slit(trace, captured, p)
            elif cfg.scenario == "charge-shells":
                checks.check_last_time(trace["shell"], p["shells"])
                checks.check_charge(trace["shell"], trace["offdiagonal_sum"], int(p["n_charges"]), p["overlap"])
            elif cfg.scenario == "born-chain":
                checks.check_last_time(trace["runs"], p["runs"])
                freqs = np.array([trace[f"f_{k}"][-1] for k in range(int(p["n_outcomes"]))])
                checks.check_born(freqs, self.born_probs, int(p["runs"]))
            elif cfg.scenario == "decay-cavity":
                checks.check_last_time(trace["time"], p["t_final"])
                h = checks.decay_hamiltonian(int(p["n_modes"]), p["mode_spacing"], p["coupling"])
                checks.check_decay_unitary(trace["time"], trace["survival"], h)
                if name == "decay-cavity-rerun":
                    checks.check_identical((outdir / "decay-cavity.csv").read_bytes(), path.read_bytes())
        return check

    def _check_summary(self, scenario: str):
        def check(result, captured):
            code, table, files = result
            checks.require(code == 0, f"summarize exit code {code}")
            if not files:  # every run of this scenario ended without a trace
                checks.require(table == "no traces\n", f"summary of no traces: {table!r}")
                return
            rows = {line.split()[0]: line.split() for line in table.splitlines()[1:]}
            checks.require(len(rows) == len(files), f"{len(rows)} summary rows for {len(files)} traces")
            if scenario == "charge-shells":
                checks.check_exponent(float(rows["charge-shells.csv"][2]), -math.log(self.overlap))
        return check


WORKLOADS = {cls.name: cls for cls in (Grid, FewLevel, Kinematics, BatchIO)}
