"""Sampling at exact levels, experiment reports, config round trips, CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lunarbound.core import MassParams, angular_momentum, energy_split, moment_of_inertia
from lunarbound.harness import (
    APPENDIX_H,
    APPENDIX_J,
    APPENDIX_MASSES,
    SCHEMA,
    ScenarioConfig,
    canonical_json,
    run_appendix_scenario,
    run_sandwich_experiment,
    run_theorem_experiment,
    sample_initial_conditions,
)
from lunarbound import cli, harness
from lunarbound.bounds import compute_chain
from lunarbound.integrate import integrate
from lunarbound import kepler as kp


# inner eccentricities this close to 1 underflow the step size in the
# backward direction of sample 2
SINGULAR = {
    "masses": [1, 1, 1], "H": -0.5, "J": [0, 0, 0.1], "level": 60.0, "max_steps": 20000,
    "sampler": {"count": 4, "seed": 3, "inner": {"e1": [0.99999999, 0.999999999]}},
}


def appendix_cfg(**kw):
    base = dict(
        masses=APPENDIX_MASSES,
        H=APPENDIX_H,
        J=(0.0, 0.0, APPENDIX_J),
        count=4,
        seed=123,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestSampler:
    def test_levels_exact(self, appendix_chain):
        cfg = appendix_cfg(count=25, level=appendix_chain.R,
                           i_lo_factor=1.0, i_hi_factor=4.0)
        states = sample_initial_conditions(cfg, appendix_chain)
        assert len(states) == 25
        mp = cfg.mp
        for st in states:
            H, _, _, _ = energy_split(st, mp)
            J, _, _ = angular_momentum(st, mp)
            assert abs(H - cfg.H) <= 1e-12 * abs(cfg.H)
            assert np.linalg.norm(J - np.array(cfg.J)) <= 1e-12 * cfg.J_mag
            I = moment_of_inertia(st, mp)
            assert cfg.i_lo_factor * appendix_chain.R <= I
            assert I <= cfg.i_hi_factor * appendix_chain.R * (1 + 1e-12)

    @pytest.mark.parametrize("level", ["R", "3R_bar"])
    def test_theorem_samples_hit_the_levels(self, appendix_chain, level):
        # the report's dH and dJ, as the benchmark checks them, at the level
        # where entry is integrated and at one where it is certified
        bs = appendix_chain
        cfg = appendix_cfg(count=8, seed=1, level=bs.R if level == "R" else 3.0 * bs.R_bar)
        rep = run_theorem_experiment(cfg, bs=bs)
        assert len(rep["samples"]) == 8
        for s in rep["samples"]:
            assert s["dH"] <= 1e-12 and s["dJ"] <= 1e-12

    def test_deterministic(self, appendix_chain):
        cfg = appendix_cfg(count=6, level=appendix_chain.R)
        a = sample_initial_conditions(cfg, appendix_chain)
        b = sample_initial_conditions(cfg, appendix_chain)
        for s, t in zip(a, b):
            assert np.array_equal(s.as_vector(), t.as_vector())

    def test_planar_zero_J(self, mp_equal):
        bs_level = 30.0
        cfg = ScenarioConfig(
            masses=APPENDIX_MASSES, H=APPENDIX_H, J=(0.0, 0.0, 0.0),
            count=10, seed=3, planar=True, level=bs_level,
        )
        states = sample_initial_conditions(cfg)
        for st in states:
            assert abs(st.xi1[2]) < 1e-15 and abs(st.xi2[2]) < 1e-15
            assert abs(st.dxi1[2]) < 1e-15 and abs(st.dxi2[2]) < 1e-15
            J, _, _ = angular_momentum(st, mp_equal)
            assert np.linalg.norm(J) <= 1e-12

    def test_inner_elements_in_range(self, appendix_chain):
        cfg = appendix_cfg(count=20, level=appendix_chain.R)
        states = sample_initial_conditions(cfg, appendix_chain)
        lo, hi = cfg.a1_frac
        for st in states:
            # apocenter of the drawn binary stays under c_r
            assert st.r <= appendix_chain.c_r * hi * (1 + cfg.e1[1]) * (1 + 1e-9)


class TestTheoremExperiment:
    def test_all_enter_at_reachable_level(self, appendix_chain):
        cfg = appendix_cfg(count=6, seed=77, level=appendix_chain.R,
                           i_lo_factor=1.0, i_hi_factor=4.0)
        rep = run_theorem_experiment(cfg, bs=appendix_chain)
        assert rep["aggregate"]["passed"] == rep["aggregate"]["count"] == 6
        assert rep["level"] == appendix_chain.R
        entries = [
            d["t_entry"]
            for s in rep["samples"]
            for d in (s["forward"], s["backward"])
            if d["entered"]
        ]
        assert all(abs(t) <= rep["time_budget"] for t in entries)
        # at R the deviation bound A1 eps dwarfs rho_bar: entry is integrated
        assert all(s[d]["status"] != "certified_entry"
                   for s in rep["samples"] for d in ("forward", "backward"))

    def test_certified_entry_at_computed_I0(self, appendix_i0):
        I0_val, bs = appendix_i0
        cfg = appendix_cfg(count=1, seed=808080, level=I0_val, max_steps=50)
        rep = run_theorem_experiment(cfg, bs=bs)
        sample = rep["samples"][0]
        assert sample["passed"]
        certified = [(sign, sample[d]) for sign, d in ((+1, "forward"), (-1, "backward"))
                     if sample[d]["status"] == "certified_entry"]
        assert len(certified) == 1
        sign, res = certified[0]
        eps = bs.epsilon(I0_val)
        horizon = bs.B1 * eps**-1.5
        t = res["t_entry"]
        assert res["entered"] and res["n_steps"] == 0 and res["min_I"] == I0_val
        assert 0.0 < sign * t <= min(horizon, rep["time_budget"])
        # the osculating outer orbit has fallen A1 eps below rho_bar by t
        state = sample_initial_conditions(cfg, bs)[0]
        osc = kp.propagate(kp.TwoBodyState(state.xi2, state.dxi2, cfg.mp.M), t)
        assert osc.r <= bs.rho_bar(I0_val) - bs.A1 * eps

    def test_budget_doubling_changes_nothing(self, appendix_chain):
        cfg1 = appendix_cfg(count=4, seed=21, level=appendix_chain.R)
        cfg2 = appendix_cfg(count=4, seed=21, level=appendix_chain.R, budget_factor=8.0)
        r1 = run_theorem_experiment(cfg1, bs=appendix_chain)
        r2 = run_theorem_experiment(cfg2, bs=appendix_chain)
        assert r1["aggregate"]["passed"] == r2["aggregate"]["passed"]
        for a, b in zip(r1["samples"], r2["samples"]):
            for side in ("forward", "backward"):
                if a[side]["entered"]:
                    assert b[side]["t_entry"] == pytest.approx(a[side]["t_entry"], rel=1e-9)

    def test_negative_control_level(self, appendix_chain):
        cfg = appendix_cfg(count=4, seed=5, level=1e-3, i_range=(4.0, 30.0),
                           max_steps=40_000, lazy_directions=False)
        rep = run_theorem_experiment(cfg, bs=appendix_chain)
        assert rep["aggregate"]["passed"] < rep["aggregate"]["count"]
        assert all(s["forward"]["min_I"] > 1e-3 for s in rep["samples"])
        # 1e-3 lies below R_bar, where the deviation estimate does not apply
        assert all(s[d]["status"] != "certified_entry"
                   for s in rep["samples"] for d in ("forward", "backward"))

    def test_report_bytes_deterministic(self, appendix_chain):
        cfg = appendix_cfg(count=3, seed=9, level=appendix_chain.R)
        r1 = canonical_json(run_theorem_experiment(cfg, bs=appendix_chain))
        r2 = canonical_json(run_theorem_experiment(cfg, bs=appendix_chain))
        assert r1 == r2

    @pytest.mark.parametrize("batch", ["theorem", "sandwich"])
    def test_report_bytes_deterministic_across_jobs(self, appendix_chain, batch):
        # both batches run on the same runner: serial at jobs 1, a pool at 2
        if batch == "theorem":
            run, kw = run_theorem_experiment, dict(count=4, seed=13, level=appendix_chain.R)
        else:
            run, kw = run_sandwich_experiment, dict(count=2, seed=13)
        r1 = run(appendix_cfg(jobs=1, **kw), bs=appendix_chain)
        r2 = run(appendix_cfg(jobs=2, **kw), bs=appendix_chain)
        assert canonical_json(r1) == canonical_json(r2)

    def test_every_sample_accounted_once(self, appendix_chain):
        cfg = appendix_cfg(count=5, seed=31, level=appendix_chain.R)
        rep = run_theorem_experiment(cfg, bs=appendix_chain)
        assert [s["index"] for s in rep["samples"]] == list(range(5))
        agg = rep["aggregate"]
        assert agg["passed"] + agg["failed"] == agg["count"] == 5

    def test_far_body_samples_in_its_own_labeling(self):
        # far body 1 of masses (1, 2, 3) is far body 3 of (2, 3, 1): the same
        # problem, so the same samples and verdicts (sampling in the input
        # labeling raised SampleError here)
        from lunarbound.bounds import compute_chain

        level = 3.0 * compute_chain(MassParams(1.0, 2.0, 3.0), -0.5, 0.2, far_body=1).R_bar
        reports = [
            run_theorem_experiment(ScenarioConfig(masses=m, H=-0.5, J=0.2, far_body=k,
                                                  level=level, count=4, seed=1))
            for m, k in (((1.0, 2.0, 3.0), 1), ((2.0, 3.0, 1.0), 3))
        ]
        assert reports[0]["samples"] == reports[1]["samples"]
        assert reports[0]["time_budget"] == reports[1]["time_budget"]

    def test_config_hash_embedded(self, appendix_chain):
        cfg = appendix_cfg(count=2, seed=1, level=appendix_chain.R)
        rep = run_theorem_experiment(cfg, bs=appendix_chain)
        assert rep["config_hash"] == cfg.config_hash()
        assert rep["bound_set"]["I0"] == appendix_chain.i0


class TestConfigRoundTrip:
    def test_json_round_trip(self):
        cfg = appendix_cfg(count=7, seed=99, level=12.5, planar=True,
                           i_range=(3.0, 9.0), regularize=True)
        text = canonical_json(cfg.to_dict())
        cfg2 = ScenarioConfig.from_json(text)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.config_hash() == cfg.config_hash()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("path", [
        ("budget_factr",), ("jobs",), ("sampler", "cout"), ("sampler", "inner", "a1"),
        ("sampler", "outer", "i_hi"),
    ])
    def test_rejects_unknown_keys(self, path):
        d = appendix_cfg().to_dict()
        node = d
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = 1.0
        with pytest.raises(ValueError, match=path[-1]):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("path, value", [
        (("sampler", "count"), 0), (("sampler", "count"), -3), (("sampler", "count"), 2.5),
        (("max_steps",), 0), (("tol",), 0.0), (("budget_factor",), -1.0),
        (("far_body",), 0), (("far_body",), 4), (("H",), -math.inf), (("level",), math.nan),
        (("J",), [0.0, 0.0, math.inf]), (("sampler", "inner", "e1"), [0.0, math.nan]),
    ])
    def test_rejects_bad_values(self, path, value):
        d = appendix_cfg().to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict(d)

    def test_accepts_benchmark_configs(self, tmp_path):
        # the scenario configs perfbench/run.py writes stay valid
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        theorem = run.TheoremStrip(seed=1, work=tmp_path)
        theorem.R = 17.281577670534876
        sandwich = run.SandwichStrip(seed=1, work=tmp_path)
        sandwich.shift = [0.25, 0.75]
        for k in range(4):
            ScenarioConfig.from_dict(json.loads(json.dumps(theorem.config(k))))
            argv, _, _ = sandwich.batch(k)
            ScenarioConfig.from_json(Path(argv[1]).read_text())

    def test_scalar_J_becomes_z_vector(self):
        cfg = ScenarioConfig(masses=(1, 1, 1), H=-0.5, J=0.3)
        assert cfg.J == (0.0, 0.0, 0.3)

    def test_rejects_nonnegative_H(self):
        with pytest.raises(ValueError):
            ScenarioConfig(masses=(1, 1, 1), H=0.5, J=0.0)

    def test_canonical_float_digits(self):
        s = canonical_json({"x": 1.0 / 3.0})
        assert s == '{"x":0.33333333333333331}'

    def test_canonical_json_numpy_values(self):
        # np.float64 is a float and keeps its bytes; every other value of no
        # Python JSON type, numpy's among them, is refused
        obj = {"a": [np.float64(0.1), np.float64("nan"), np.float64("-inf"), np.float64(-0.0)]}
        assert canonical_json(obj) == '{"a":[0.10000000000000001,NaN,-Infinity,-0]}'
        for bad in ({1: 2.0}, {"x": object()}, 1j, np.complex128(1j), np.bool_(True),
                    np.int64(3), np.float32(0.5), np.arange(3.0), [np.array([1.0])]):
            with pytest.raises(TypeError):
                canonical_json(bad)

    def test_J_mag_is_numpy_norm(self):
        # the fused dot product of bounds._dot3 and its square root, bit for
        # bit numpy's norm; inf where |J|^2 leaves the double range
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(5000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(5000, 1))
        vecs[::7, :2] = 0.0
        for J in vecs.tolist() + [[0.0, 0.0, 1e200], [1e305, -1e305, 0.0], [0.0, 0.0, 0.0]]:
            cfg = ScenarioConfig(masses=(1, 1, 1), H=-0.5, J=tuple(J))
            with np.errstate(over="ignore"):
                assert cfg.J_mag == float(np.linalg.norm(np.array(cfg.J))), J


class TestSandwichExperimentReport:
    def test_small_batch_ok(self, appendix_chain):
        cfg = appendix_cfg(count=2, seed=55)
        rep = run_sandwich_experiment(cfg, bs=appendix_chain)
        assert rep["aggregate"]["ok"] == rep["aggregate"]["count"] == 2
        assert rep["aggregate"]["violations"] == 0
        assert rep["schema"] == "lunar-bound/3"
        # serializes canonically
        text1 = canonical_json(rep)
        rep2 = run_sandwich_experiment(cfg, bs=appendix_chain)
        assert canonical_json(rep2) == text1


class TestUnequalMassGrid:
    """Both batches on unequal masses at H = -0.5, J = 0.1, all three far
    bodies: at R every sample enters, and at R_bar every deviation sample
    is ok.  The sandwich window ends where the pair falls to max(floor,
    rho_bar): below rho_bar, omega = k eps^3 is no Lipschitz constant of
    the radial field, and a window cut only at the monotonicity floor
    failed eta_bound_ok on the reproducer and on 4 of the 9 grid points."""

    TRIPLES = np.random.default_rng(11).uniform(0.5, 2.0, size=(3, 3)).tolist()

    @staticmethod
    def cfg(masses, far_body, count, seed, level=None):
        return ScenarioConfig(masses=tuple(masses), H=-0.5, J=(0, 0, 0.1), far_body=far_body,
                              count=count, seed=seed, level=level)

    def assert_sandwich_ok(self, masses, far_body, count, seed):
        samples = run_sandwich_experiment(self.cfg(masses, far_body, count, seed))["samples"]
        assert len(samples) == count
        for s in samples:
            assert s["ok"], (masses, far_body, s)
            assert s["sandwich_t_valid"] > 0.0

    def test_sandwich_reproducer(self):
        masses = (1.6118777843022354, 1.5071172130543888, 0.596047157340496)
        self.assert_sandwich_ok(masses, far_body=1, count=2, seed=5)

    def test_sandwich_grid_at_R_bar(self):
        for masses in self.TRIPLES:
            for far_body in (1, 2, 3):
                self.assert_sandwich_ok(masses, far_body, count=1, seed=11)

    def test_theorem_grid_at_R(self):
        for masses in self.TRIPLES:
            for far_body in (1, 2, 3):
                bs = compute_chain(MassParams(*masses), -0.5, 0.1, far_body=far_body)
                rep = run_theorem_experiment(self.cfg(masses, far_body, 2, 11, level=bs.R), bs=bs)
                assert rep["aggregate"]["count"] == 2
                for s in rep["samples"]:
                    assert s["passed"], s


class TestAppendixScenario:
    def test_checks_and_annotations(self):
        rep = run_appendix_scenario(count=3, seed=11)
        checks = rep["checks"]
        assert checks["I_star_ok"]
        assert checks["ordering_I_star2_lt_I_M"]
        assert checks["ordering_chain"]
        ann = rep["annotations"]
        assert ann["marchal_equal_mass_I_M"] == pytest.approx(2.447363, abs=1e-4)
        assert ann["henon_broucke_min_I"] == pytest.approx(2.402035, abs=1e-6)
        assert rep["experiment"]["aggregate"]["passed"] == 3


class TestCli:
    def run_cli(self, *args):
        return cli.main(list(args))

    def test_shared_parser_keeps_no_state(self, tmp_path, capsys, monkeypatch):
        # main reuses one parser; each call in a row must write the bytes a
        # fresh process writes for it alone
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(canonical_json(appendix_cfg(count=2, seed=5).to_dict()))
        calls = [
            ["--masses", "1", "2", "3", "--H", "-0.5", "--J", "0.1", "bounds"],
            ["--masses", "1", "2", "3", "--H", "-0.5", "--J", "0.1", "--bogus", "bounds"],
            ["--help"],
            ["--config", str(cfg), "sample"],
            ["--masses", "0.5", "1.7", "2.0", "--H", "-0.5", "--J", "0.1", "--out", "{out}",
             "bounds"],
        ]
        codes = []
        for k, argv in enumerate(calls):
            here = [a.format(out=tmp_path / f"here{k}") for a in argv]
            fresh = [a.format(out=tmp_path / f"fresh{k}") for a in argv]
            codes.append(cli.main(here))
            got = capsys.readouterr()
            ref = subprocess.run([sys.executable, "-m", "lunarbound.cli", *fresh],
                                 capture_output=True, text=True, env=env)
            assert (codes[-1], got.out, got.err) == (ref.returncode, ref.stdout, ref.stderr), argv
        assert codes == [0, 2, 0, 0, 0]
        written = tmp_path / "here4" / "bounds.json"
        assert written.read_bytes() == (tmp_path / "fresh4" / "bounds.json").read_bytes()

    def test_appendix_exit_zero(self, capsys):
        assert self.run_cli("appendix", "--count", "2") == 0
        out = capsys.readouterr().out
        assert "I*" in out and "32/27" in out

    @pytest.mark.parametrize("flags", [
        ["--jobs", "0"], ["--tol", "-1"], ["--regularize", "on"], ["--config", "cfg.json"],
        ["--masses", "1", "1", "1"], ["--H", "-0.5"], ["--J", "0.1"],
    ])
    def test_appendix_rejects_ignored_flags(self, capsys, flags):
        # the appendix fixes its own scenario, so these flags would be ignored
        assert self.run_cli(*flags, "appendix", "--count", "1") == 2
        assert flags[0] in capsys.readouterr().err

    def test_appendix_writes_report(self, tmp_path, capsys):
        # the checks are numpy booleans; the report used to fail to serialize
        assert self.run_cli("--out", str(tmp_path), "appendix", "--count", "1") == 0
        report = json.loads((tmp_path / "appendix_report.json").read_text())
        assert report["checks"]["I_star_ok"] is True

    def test_bounds_rejects_bad_H(self, capsys):
        code = self.run_cli("--masses", "1", "1", "1", "--H", "0.2", "--J", "0.1", "bounds")
        assert code == 2
        assert "H must be negative" in capsys.readouterr().err

    def test_bounds_overflow_exit_two(self, capsys):
        code = self.run_cli("--masses", "0.4", "2.9", "1.7", "--H", "-0.1", "--J", "0.3", "bounds")
        assert code == 2
        assert "R_lambda overflows a double" in capsys.readouterr().err

    @pytest.mark.parametrize("masses, stage", [
        # rho^3 underflows to 0 in rho_min's budget
        (("1e-200", "1", "1"), "region_constants"),
        # rho^3 exceeds the double range in the same budget
        (("1e200", "1", "1"), "region_constants"),
        # c_J2^4 in the osculating-pericenter threshold
        (("1e-100", "1", "1"), "i_star_star"),
        # the two light bodies of a collinear configuration round to one point
        (("1e100", "1", "1"), "euler_configuration"),
        # alpha2 A1 and alpha1 c_r^2 both round to 0 in lambda*
        (("1", "1", "1e-300"), "strip_and_main"),
    ])
    def test_bounds_extreme_mass_ratio_exit_two(self, capsys, masses, stage):
        code = self.run_cli("--masses", *masses, "--H", "-0.5", "--J", "0.1", "bounds")
        got = capsys.readouterr()
        assert code == 2
        assert got.out == ""
        (line,) = got.err.splitlines()
        assert line.startswith(f"error: {stage} overflows a double: ")

    @pytest.mark.parametrize("masses, H, J, stage", [
        # the collinear quintic's root lies below 1e-12 (about 4e-14), then A1 overflows
        (("1e40", "1", "1"), "-0.5", "0.1", "A1"),
        # beta2 overflows, so rho_min's budget reads NaN at its bracket's end
        (("2.6836480892621846e+153", "2.365073503925093e+156", "0.0014077474916581322"),
         "-570.1294354197473", "0.07198977505908566", "rho_min"),
        # lambda* = C/(R - K) underflows to 0
        (("7.660618203825278e+35", "0.0014482375223957983", "2.517067116236017e-46"),
         "-1.1481034240420356", "0.36808904676717447", "1/lambda*"),
        # the quintic's root (about 8e-43) is found; 1 + x then rounds to 1
        (("2.7099615157752534e-116", "9.05418751324633e+58", "1.8664054018017289e-96"),
         "-33516.47966742155", "6.943074438333156e-284", "euler_configuration"),
        # the quintic's root lies past where p(x) can be evaluated
        (("5.288463524567019e+192", "4.757386759809729e-137", "6.277736346985956e-207"),
         "-5.141020562549081", "1.0909786609141408e+116", "euler_configuration"),
    ])
    def test_bounds_extreme_inputs_name_a_stage(self, capsys, masses, H, J, stage):
        code = self.run_cli("--masses", *masses, "--H", H, "--J", J, "bounds")
        got = capsys.readouterr()
        assert code == 2
        assert got.out == ""
        (line,) = got.err.splitlines()
        assert line.startswith(f"error: {stage} overflows a double: ")

    @pytest.mark.parametrize("masses, H, J, reason", [
        # lam_edge is 1.5e-5: 200,000 boxes do not close the gap to DELTA_TOL
        (("349452848.9925322", "82934.93573038766", "2620.9273645541043"),
         "-4.567082352781989e+29", "9.406593708195317e-15", "phi minimum not enclosed"),
        # mu1 rounds to 1 and lam_edge is one ulp past 1/2, so D's lower end reaches 0
        (("14155559155.586231", "1.3485203216989944e-14", "6.209298102674932e-26"),
         "-3.123098435943326e+17", "1.8009252871211814e-30", "D = 1 + 2 a c + a^2 is not"),
    ])
    def test_bounds_marchal_failure_names_its_stage(self, capsys, masses, H, J, reason):
        code = self.run_cli("--masses", *masses, "--H", H, "--J", J, "bounds")
        got = capsys.readouterr()
        assert code == 2
        assert got.out == ""
        (line,) = got.err.splitlines()
        assert line.startswith(f"error: marchal_comparison: {reason}")

    def test_negative_values_in_exponent_form(self, tmp_path, capsys):
        # argparse's own negative-number pattern has no exponent
        assert self.run_cli("--masses", "1", "2", "3", "--H", "-0.5", "--J", "0.1", "bounds") == 0
        plain = capsys.readouterr().out
        assert self.run_cli("--masses", "1", "2", "3", "--H", "-5e-1", "--J", "1e-1", "bounds") == 0
        assert capsys.readouterr().out == plain
        # each float flag takes such a value; the run then checks its range
        for flags, expected in ((["--tol", "-1E-3", "bounds"], 2),
                                (["verify-theorem", "--level", "-2.5e+1"], 2),
                                (["--out", str(tmp_path), "simulate", "--t1", "-.5e0"], 0)):
            code = self.run_cli("--masses", "1", "2", "3", "--H", "-5e-1", *flags)
            err = capsys.readouterr().err
            assert code == expected and "expected one argument" not in err, (flags, err)

    def test_verify_theorem_overflow_exit_two(self, capsys):
        code = self.run_cli("--masses", "2.9", "1.7", "0.4", "--H", "-0.1", "--J", "0.3",
                            "verify-theorem", "--count", "1")
        assert code == 2
        assert "overflows a double" in capsys.readouterr().err

    def test_verify_theorem_unsamplable_level_exit_two(self, capsys):
        # the level lies below the inner binary's own share of I, and no
        # i_range widens the sampling window: sampling fails, a usage error
        code = self.run_cli("--masses", "1", "1", "1", "--H", "-0.5", "--J", "0.1",
                            "verify-theorem", "--level", "0.001", "--count", "2")
        assert code == 2
        assert "error: sampling failed" in capsys.readouterr().err

    def test_bounds_emits_named_constants(self, capsys):
        code = self.run_cli("--masses", "1", "1", "1", "--H", "-0.5", "--J", "0.2", "bounds")
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "schema", "far_body", "masses", "H", "J", "sigma", "c_r", "c_J2", "c_g", "c_g2",
            "rho_min", "I_star", "I_star_eff", "I_star2", "A", "a", "b", "A1", "B1", "R_bar",
            "R", "lambda", "lambda_prime", "R_bar_lambda", "R_lambda", "I0", "marchal",
            "I0_max_over_far_bodies",
        }
        assert set(data["marchal"]) == {"delta", "delta_upper", "boxes", "rho_M", "I_M", "lam_max"}
        assert data["schema"] == SCHEMA
        assert "c_g1" not in data

    def test_sample_subcommand(self, tmp_path, capsys):
        cfg = appendix_cfg(count=3, seed=2, level=18.0)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        code = self.run_cli("--config", str(p), "sample")
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["samples"]) == 3

    @pytest.mark.parametrize("typo", ["budget_factr", "sampler.cout"])
    def test_config_typo_exit_two(self, tmp_path, capsys, typo):
        d = appendix_cfg(count=1, level=18.0).to_dict()
        if typo == "sampler.cout":
            d["sampler"]["cout"] = 3
        else:
            d[typo] = 2.0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert self.run_cli("--config", str(p), "verify-theorem") == 2
        assert typo.split(".")[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("regularize",), "no"), (("sampler", "planar"), "false"), (("sampler", "seed"), 1.5),
        (("sampler", "seed"), -1), (("inbound_only",), 1), (("lazy_directions",), None),
        (("jobs",), 0), (("tol",), None), (("H",), None), (("masses",), 5),
        (("i_range",), [5]), (("i_range",), [1, 2, 3]), (("i_range",), [8, 4]),
        (("sampler", "outer", "i_lo_factor"), 20.0), (("sampler", "inner", "a1_frac"), [0.2]),
        (("sampler", "inner", "a1_frac"), [-0.5, 0.2]), (("sampler", "inner", "e1"), [0.5, 1.5]),
        (("sampler", "inner", "e1"), [-0.5, 0.2]),
    ])
    def test_config_bad_type_exit_two(self, tmp_path, capsys, path, value):
        d = appendix_cfg(count=1, level=18.0).to_dict()
        flags = []
        if path == ("jobs",):
            # jobs is no config key: it comes from the command line
            flags = ["--jobs", str(value)]
        else:
            node = d
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert self.run_cli("--config", str(p), *flags, "verify-theorem") == 2
        assert path[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("level",), -25.0), (("level",), 0.0), (("i_range",), [0, 4]), (("i_range",), [-2, 4]),
        (("sampler", "outer", "i_lo_factor"), 0.0), (("sampler", "outer", "i_lo_factor"), -1.0),
    ])
    def test_nonpositive_level_or_window_exit_two(self, tmp_path, capsys, path, value):
        # an inertia level or sampling window at or below 0 names its key,
        # in one error line, before any chain or sampler runs
        d = appendix_cfg(count=1, level=18.0).to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert self.run_cli("--config", str(p), "sample") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and path[-1] in err

    def test_negative_level_flag_exit_two(self, capsys):
        code = self.run_cli("--masses", "1", "2", "3", "--H", "-0.5", "--J", "0.1",
                            "verify-theorem", "--level=-25", "--count", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: level must be positive, got -25.0\n"

    def test_window_below_binary_named_in_sampling_error(self, tmp_path, capsys):
        # a positive i_range that lies below the binary's own share of I
        d = appendix_cfg(count=1, level=18.0).to_dict()
        d["i_range"] = [0.001, 0.002]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert self.run_cli("--config", str(p), "sample") == 2
        assert capsys.readouterr().err == (
            "error: sampling failed after 64 retries: target inertia in [0.001, 0.002]"
            " below the binary's own contribution\n")

    def test_unknown_command_exit_two(self):
        assert self.run_cli("frobnicate") == 2

    def test_verify_theorem_cli(self, tmp_path, capsys):
        cfg = appendix_cfg(count=2, seed=8, level=17.281577670534876)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        out_dir = tmp_path / "out"
        code = self.run_cli("--config", str(p), "--out", str(out_dir), "verify-theorem")
        assert code == 0
        report = json.loads((out_dir / "theorem_report.json").read_text())
        assert report["aggregate"]["passed"] == 2

    def test_simulate_writes_csvs(self, tmp_path):
        cfg = appendix_cfg(count=1, seed=4, level=18.0)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        out_dir = tmp_path / "sim"
        code = self.run_cli("--config", str(p), "--out", str(out_dir), "simulate", "--t1", "5.0")
        assert code == 0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "events.csv").exists()

    def test_simulate_keeps_the_step_budget(self, tmp_path, capsys):
        cfg = appendix_cfg(count=1, seed=4, level=18.0, max_steps=50)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        out_dir = tmp_path / "sim"
        code = self.run_cli("--config", str(p), "--out", str(out_dir), "simulate", "--t1", "5.0")
        assert code == 0
        assert "(51 nodes, status step_budget_exhausted)" in capsys.readouterr().out

    @pytest.mark.parametrize("index", ["2", "-1"])
    def test_simulate_index_out_of_range_exit_two(self, tmp_path, capsys, index):
        cfg = appendix_cfg(count=2, seed=4, level=18.0)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        code = self.run_cli("--config", str(p), "--out", str(tmp_path / "sim"),
                            "simulate", "--t1", "1.0", "--index", index)
        assert code == 2
        assert "--index must lie in [0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_simulate_index_draws_the_batch_state(self, tmp_path, capsys):
        # one state drawn alone equals the same index of the full batch
        cfg = appendix_cfg(count=3, seed=4, level=18.0)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        code = self.run_cli("--config", str(p), "--out", str(tmp_path / "sim"),
                            "simulate", "--t1", "2.0", "--index", "2")
        assert code == 0
        st = sample_initial_conditions(cfg)[2]
        integrate(st, cfg.far_mp, (0.0, 2.0), tol=cfg.tol).to_csv(tmp_path / "ref.csv")
        assert (tmp_path / "sim" / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_verify_sandwich_cli(self, tmp_path, capsys):
        cfg = appendix_cfg(count=1, seed=6)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        code = self.run_cli("--config", str(p), "verify-sandwich")
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["aggregate"]["ok"] == 1

    def test_verify_theorem_exit_one_on_failures(self, tmp_path, capsys):
        cfg = appendix_cfg(count=1, seed=3, level=1e-3, i_range=(4.0, 8.0),
                           max_steps=20_000, lazy_directions=False)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        code = self.run_cli("--config", str(p), "verify-theorem")
        capsys.readouterr()
        assert code == 1

    def test_format_flag_is_gone(self, capsys):
        # sample writes samples.json only; there is no CSV form to choose
        code = self.run_cli("--masses", "1", "1", "1", "--H", "-0.5", "--J", "0.1",
                            "--format", "csv", "sample")
        assert code == 2

    def test_singular_integration_is_reported_per_sample(self, tmp_path, capsys):
        # inner eccentricities this close to 1 underflow the step size in one
        # direction of sample 2: that direction fails, the batch still reports
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(SINGULAR))
        out_dir = tmp_path / "out"
        code = self.run_cli("--config", str(p), "--out", str(out_dir), "verify-theorem")
        capsys.readouterr()
        assert code == 1
        report = json.loads((out_dir / "theorem_report.json").read_text())
        assert report["aggregate"]["passed"] == 3
        failed = [(s["index"], key) for s in report["samples"] for key in ("forward", "backward")
                  if s[key]["status"] == "failed"]
        assert failed == [(2, "backward")]
        d = report["samples"][2]["backward"]
        assert d["entered"] is False and d["t_entry"] is None
        assert d["n_steps"] > 0 and d["min_I"] > report["level"]

    def test_regularized_sandwich_sample_passes_the_collision(self):
        # with regularize set, the side that fails above passes its inner
        # collisions in KS stints, and the sample is ok
        cfg = ScenarioConfig.from_dict({**SINGULAR, "regularize": True})
        bs = compute_chain(cfg.mp, cfg.H, cfg.J_mag)
        I_bar = bs.R_bar
        res = harness._sandwich_sample(cfg, bs, I_bar, bs.i_plus(I_bar), bs.horizon(I_bar), 2)
        assert "status" not in res and res["ok"] and res["violations"] == 0

    def test_singular_sandwich_side_is_reported_per_sample(self, tmp_path, monkeypatch, capsys):
        # the same sample 2 in the deviation batch: its backward side fails,
        # and the sample says so in place of the deviation checks
        cfg = ScenarioConfig.from_dict(SINGULAR)
        bs = compute_chain(cfg.mp, cfg.H, cfg.J_mag)
        I_bar = bs.R_bar
        failed = harness._sandwich_sample(cfg, bs, I_bar, bs.i_plus(I_bar), bs.horizon(I_bar), 2)
        assert failed == {"index": 2, "I_initial": failed["I_initial"], "ok": False,
                          "violations": 0, "status": "failed", "side": "backward",
                          "n_steps": failed["n_steps"]}
        assert failed["n_steps"] > 0 and failed["I_initial"] >= I_bar
        # in a batch that sample is not ok, and the worst deviation is the
        # other samples' worst; the report is written and the command exits 1
        real = harness._sandwich_sample
        monkeypatch.setattr(harness, "_sandwich_sample", lambda *a: (
            {**failed, "index": 1} if a[-1] == 1 else real(*a)))
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(appendix_cfg(count=2, seed=6).to_dict()))
        out_dir = tmp_path / "out"
        code = self.run_cli("--config", str(p), "--out", str(out_dir), "verify-sandwich")
        capsys.readouterr()
        assert code == 1
        report = json.loads((out_dir / "sandwich_report.json").read_text())
        s0, s1 = report["samples"]
        assert s0["ok"] and s1["status"] == "failed"
        agg = report["aggregate"]
        assert (agg["ok"], agg["violations"]) == (1, 0)
        assert agg["worst_deviation_fraction"] == s0["max_deviation"] / s0["bound"]


BOUNDS_ARGV = ["--masses", "1", "2", "3", "--H", "-0.5", "--J", "0.1", "bounds"]


class TestImportGraph:
    """The bounds command loads the chain and the config module only, and
    kepler runs without numpy."""

    def run_python(self, code, *args):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, check=True).stdout

    def test_package_root_imports_nothing(self):
        code = (
            "import sys, lunarbound\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'lunarbound')))\n"
        )
        assert self.run_python(code).split() == ["lunarbound"]

    def test_bounds_loads_no_numpy(self):
        code = (
            "import contextlib, io, sys\n"
            "from lunarbound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'lunarbound')))\n"
        )
        loaded = self.run_python(code, *BOUNDS_ARGV).split()
        assert "lunarbound.bounds" in loaded and "lunarbound.config" in loaded
        for name in ("numpy", "lunarbound.harness", "lunarbound.integrate",
                     "lunarbound.osculate", "lunarbound.kepler"):
            assert name not in loaded

    def test_bounds_without_numpy_writes_the_same_bytes(self, capsys):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from lunarbound.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        assert cli.main(BOUNDS_ARGV) == 0
        assert self.run_python(code, *BOUNDS_ARGV) == capsys.readouterr().out

    def test_kepler_propagates_without_numpy(self):
        # kepler runs on float tuples: with numpy blocked it imports and
        # propagates to the same bits
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from lunarbound import kepler\n"
            "s = kepler.TwoBodyState(xi=(1.0, 0.2, 0.0), dxi=(-0.1, 0.9, 0.3), kappa=1.0)\n"
            "print(repr(kepler.propagate(s, 2.5)))\n"
        )
        s = kp.TwoBodyState(xi=(1.0, 0.2, 0.0), dxi=(-0.1, 0.9, 0.3), kappa=1.0)
        assert self.run_python(code) == repr(kp.propagate(s, 2.5)) + "\n"
