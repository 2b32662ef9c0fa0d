"""Sampling at exact levels, experiment reports, config round trips, CLI."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lunarbound.core import MassParams, angular_momentum, energy_split, moment_of_inertia
from lunarbound.harness import (
    APPENDIX_H,
    APPENDIX_J,
    APPENDIX_MASSES,
    SCHEMA,
    SamplerRanges,
    ScenarioConfig,
    canonical_json,
    run_appendix_scenario,
    run_sandwich_experiment,
    run_theorem_experiment,
    sample_initial_conditions,
)
from lunarbound import cli
from lunarbound.integrate import integrate
from lunarbound import kepler as kp


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
                           ranges=SamplerRanges(i_lo_factor=1.0, i_hi_factor=4.0))
        states = sample_initial_conditions(cfg, appendix_chain)
        assert len(states) == 25
        mp = cfg.mp
        for st in states:
            H, _, _, _ = energy_split(st, mp)
            J, _, _ = angular_momentum(st, mp)
            assert abs(H - cfg.H) <= 1e-12 * abs(cfg.H)
            assert np.linalg.norm(J - cfg.J_vec) <= 1e-12 * cfg.J_mag
            I = moment_of_inertia(st, mp)
            assert cfg.ranges.i_lo_factor * appendix_chain.R <= I
            assert I <= cfg.ranges.i_hi_factor * appendix_chain.R * (1 + 1e-12)

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
        lo, hi = cfg.ranges.a1_frac
        for st in states:
            # apocenter of the drawn binary stays under c_r
            assert st.r <= appendix_chain.c_r * hi * (1 + cfg.ranges.e1[1]) * (1 + 1e-9)


class TestTheoremExperiment:
    def test_all_enter_at_reachable_level(self, appendix_chain):
        cfg = appendix_cfg(count=6, seed=77, level=appendix_chain.R,
                           ranges=SamplerRanges(i_lo_factor=1.0, i_hi_factor=4.0))
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
        integrate(st, cfg.far_mp, (0.0, 2.0), rtol=cfg.tol, atol=cfg.tol).to_csv(tmp_path / "ref.csv")
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

    def test_sample_csv_format(self, tmp_path):
        cfg = appendix_cfg(count=2, seed=12, level=18.0)
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(cfg.to_dict()))
        out_dir = tmp_path / "s"
        code = self.run_cli("--config", str(p), "--out", str(out_dir), "--format", "csv", "sample")
        assert code == 0
        lines = (out_dir / "samples.csv").read_text().splitlines()
        assert lines[0].startswith("# lunar-bound/1")
        assert len(lines) == 4
