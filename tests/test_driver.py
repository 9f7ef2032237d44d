"""Configuration parsing, test map families, and the full iteration driver."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from kamconj import (
    ConfigError,
    EmptyWindow,
    ExperimentConfig,
    InfeasibleParams,
    OutOfRegime,
    PeriodicField,
    ResidualTooLarge,
    RunStatus,
    SmallnessViolated,
    TorusMapLift,
    compose_chain,
    conjugacy_verification,
    deviation_norm,
    eval_at_points,
    make_test_map,
    rebase,
    run_scheme,
)
from kamconj import driver, spectral
from kamconj import kamstep as kstep
from kamconj.cli import main
from kamconj.io import load_map, map_to_doc, save_map
from kamconj.spectral import sampling_grid

from conftest import GOLDEN, MALFORMED_CONFIGS, PAIR_2D


CONJ_PARAMS = {"amplitude": 0.005}

# a 2D conjugate that converges in two steps, at cutoffs 8 and 23
TWO_STEP_2D = {
    "alpha": ["sqrt2-1", "sqrt3-1"],
    "initial_map": {
        "kind": "conjugate",
        "params": {"degree": 2, "amplitude": 0.005, "target_degree": 8},
    },
    "tolerances": {"eps_stop": 1e-6},
    "smallness_c": 1e-16,
    "seed": 11,
}

# functions that sample a field on a grid to check a result
_CHECKS = {"cs_norm", "jacobian_sup", "_drift_check", "_composition_defect"}


def minimal_config(**overrides) -> dict:
    raw = {
        "alpha": "golden",
        "initial_map": {"kind": "conjugate", "params": CONJ_PARAMS},
        "seed": 5,
        "smallness_c": 1e-6,
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_defaults_1d(self):
        cfg = ExperimentConfig.from_dict(minimal_config())
        assert cfg.alpha[0] == pytest.approx(GOLDEN)
        p = cfg.params
        assert p.tau == 1.0
        assert cfg.gamma is None
        assert cfg.eps_stop == 1e-9
        assert cfg.max_iters == 12
        assert p.start_cutoff == 8
        assert p.sigma == 0.5 and p.lambda_ == 3.0 and p.mu == 7.5 and p.nu == 2.0
        step_defaults = kstep.StepConfig()
        assert cfg.step.c_post == step_defaults.c_post
        assert cfg.step.drift_tol_abs == step_defaults.drift_tol_abs
        assert cfg.max_degree == 2048 and cfg.dc_radius is None and cfg.residual_tol is None

    def test_defaults_2d(self):
        cfg = ExperimentConfig.from_dict(minimal_config(alpha=["sqrt2-1", "sqrt3-1"]))
        assert cfg.params.tau == 2.0
        assert np.allclose(cfg.alpha, PAIR_2D)

    def test_alpha_forms(self):
        assert ExperimentConfig.from_dict(minimal_config(alpha=0.37)).alpha[0] == 0.37
        assert ExperimentConfig.from_dict(minimal_config(alpha=[0.37])).alpha[0] == 0.37
        mixed = ExperimentConfig.from_dict(minimal_config(alpha=["golden", 0.25]))
        assert mixed.alpha[0] == pytest.approx(GOLDEN) and mixed.alpha[1] == 0.25

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError, match="tag"):
            ExperimentConfig.from_dict(minimal_config(alpha="platinum"))

    def test_dimension_limit(self):
        with pytest.raises(ConfigError, match="components"):
            ExperimentConfig.from_dict(minimal_config(alpha=[0.1, 0.2, 0.3]))

    def test_non_finite_alpha_rejected(self):
        for alpha in (math.nan, [0.3, math.inf]):
            with pytest.raises(ConfigError, match="finite"):
                ExperimentConfig.from_dict(minimal_config(alpha=alpha))

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError, match="unknown keys in config"):
            ExperimentConfig.from_dict(minimal_config(typo=1))
        with pytest.raises(ConfigError, match="unknown keys in scheduler"):
            ExperimentConfig.from_dict(minimal_config(scheduler={"sigm": 0.5}))
        with pytest.raises(ConfigError, match="unknown keys in tolerances"):
            ExperimentConfig.from_dict(minimal_config(tolerances={"eps": 1.0}))
        with pytest.raises(ConfigError, match="unknown keys in initial_map"):
            ExperimentConfig.from_dict(
                minimal_config(initial_map={"kind": "conjugate", "path": "x"})
            )
        with pytest.raises(ConfigError, match="unknown keys in output"):
            ExperimentConfig.from_dict(minimal_config(output={"log": "x"}))

    def test_required_keys(self):
        for key in ("alpha", "initial_map", "seed"):
            raw = minimal_config()
            del raw[key]
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict(raw)

    def test_gamma_validation(self):
        assert ExperimentConfig.from_dict(minimal_config(gamma="auto")).gamma is None
        assert ExperimentConfig.from_dict(minimal_config(gamma=3.5)).gamma == 3.5
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig.from_dict(minimal_config(gamma=-1.0))

    def test_initial_map_needs_source(self):
        with pytest.raises(ConfigError, match="file.*kind|kind.*file"):
            ExperimentConfig.from_dict(minimal_config(initial_map={}))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            ExperimentConfig.from_dict([1, 2, 3])

    @pytest.mark.parametrize("overrides, message", MALFORMED_CONFIGS)
    def test_malformed_values_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(minimal_config(**overrides))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "path",
        [
            "tau", "gamma", "dc_radius", "max_degree", "seed", "smallness_c", "c_post",
            "drift_tol_abs", "scheduler.sigma", "scheduler.lambda", "scheduler.mu", "scheduler.nu",
            "scheduler.start_cutoff", "tolerances.eps_stop", "tolerances.max_iters",
            "tolerances.residual_tol",
        ],
    )
    @pytest.mark.parametrize("value", ["x", [1.0]])
    def test_unconvertible_value_names_its_key(self, path, value):
        section, _, key = path.rpartition(".")
        overrides = {section: {key: value}} if section else {key: value}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(minimal_config(**overrides))
        message = str(info.value)
        assert message.startswith("invalid config document: ") and message.endswith(f" in {path}")

    @pytest.mark.parametrize(
        "path, value",
        [
            ("tolerances.max_iters", 2.7), ("scheduler.start_cutoff", 8.9), ("seed", 1.9),
            ("max_degree", 40.5), ("dc_radius", True), ("tolerances.max_iters", math.inf),
            ("scheduler.sigma", False),
        ],
    )
    def test_non_integral_or_bool_value_names_its_key(self, path, value):
        section, _, key = path.rpartition(".")
        overrides = {section: {key: value}} if section else {key: value}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(minimal_config(**overrides))
        message = str(info.value)
        assert message.startswith("invalid config document: expected ") and message.endswith(f" in {path}")

    def test_integral_float_reads_as_int(self):
        cfg = ExperimentConfig.from_dict(
            minimal_config(scheduler={"start_cutoff": 8.0}, tolerances={"max_iters": 3.0}, seed=5.0, smallness_c=1)
        )
        assert (cfg.params.start_cutoff, cfg.max_iters, cfg.seed) == (8, 3, 5)
        assert all(type(v) is int for v in (cfg.params.start_cutoff, cfg.max_iters, cfg.seed))
        # and an int reads as a float
        assert cfg.step.smallness_c == 1.0 and type(cfg.step.smallness_c) is float

    @pytest.mark.parametrize(
        "scheduler, error, message",
        [
            ({"sigma": 0.99}, InfeasibleParams, "constraints violated: decay_outruns_refinement"),
            ({"mu": 9.0}, InfeasibleParams, "mu=9.0 outside the admissible window (7.0, 8.0)"),
            # feasible finite ratios leave a window; (1 + sigma) * lambda past the float maximum shuts it
            ({"lambda": 1.5e308}, EmptyWindow, "no admissible mu: lower bound inf meets upper bound inf"),
            # a finite window whose upper bound, or whose exponents, pass the float maximum
            ({"lambda": 1e308}, InfeasibleParams, "mu window (1.5e+308, inf) is past the float range"),
            ({"nu": 1e308}, InfeasibleParams, "s0=inf is past the float range"),
        ],
    )
    def test_infeasible_scheduler_is_refused_at_load(self, scheduler, error, message):
        with pytest.raises(error) as info:
            ExperimentConfig.from_dict(minimal_config(scheduler=scheduler))
        assert str(info.value) == message

    def test_tau_past_the_float_range_is_refused_at_load(self):
        # a = 2 * tau + d + 2 overflows; such a run once loaded and wrote eps_s0 = nan
        with pytest.raises(InfeasibleParams) as info:
            ExperimentConfig.from_dict(minimal_config(tau=1e308))
        assert str(info.value) == "a=inf is past the float range"

    def test_absent_mu_is_the_middle_of_its_window(self, capsys):
        cfg = ExperimentConfig.from_dict(minimal_config(scheduler={"lambda": 4}))
        assert cfg.params.mu == 9.25  # the window is (8.5, 10)
        assert main(["params", "--lambda", "4"]) == 0
        assert "using mu=9.25" in capsys.readouterr().out

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config file", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        cfg = ExperimentConfig.from_dict(example)
        assert cfg.alpha.size == 2 and cfg.params.mu == example["scheduler"]["mu"]
        assert cfg.step.smallness_c == example["smallness_c"]

    def test_generator_is_checked_at_load(self):
        with pytest.raises(ConfigError, match="unknown test map kind 'bogus'"):
            ExperimentConfig.from_dict(minimal_config(initial_map={"kind": "bogus"}))
        with pytest.raises(ConfigError, match="in initial_map.params.degree$"):
            ExperimentConfig.from_dict(
                minimal_config(initial_map={"kind": "random-decay", "params": {"degree": "x"}})
            )

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
        for key in driver.CONFIG_KEYS:
            path = ".".join(filter(None, key))
            assert f"`{path}`" in section, path


class TestMakeTestMap:
    def test_conjugate_is_near_rotation(self):
        f = make_test_map("conjugate", {}, [GOLDEN], seed=9)
        assert deviation_norm(f, [GOLDEN]) < 0.2
        assert abs(f.rho[0] - GOLDEN) < 0.01

    def test_reproducible_across_calls(self):
        a = make_test_map("conjugate", {}, [GOLDEN], seed=9)
        b = make_test_map("conjugate", {}, [GOLDEN], seed=9)
        assert np.array_equal(a.rho, b.rho)
        for ua, ub in zip(a.displacement, b.displacement):
            assert np.array_equal(ua.coeffs, ub.coeffs)

    def test_seed_changes_map(self):
        a = make_test_map("conjugate", {}, [GOLDEN], seed=9)
        b = make_test_map("conjugate", {}, [GOLDEN], seed=10)
        assert not np.array_equal(a.displacement[0].coeffs, b.displacement[0].coeffs)

    def test_drifted_offsets_translation(self):
        base = make_test_map("conjugate", {}, [GOLDEN], seed=9)
        drifted = make_test_map("drifted", {"delta": [0.01]}, [GOLDEN], seed=9)
        assert drifted.rho[0] == pytest.approx(base.rho[0] + 0.01, abs=1e-15)

    def test_conjugate_takes_no_delta(self):
        # only drifted reads delta; conjugate took it and gave no drift
        with pytest.raises(ConfigError, match="unknown keys in params for 'conjugate': delta"):
            make_test_map("conjugate", {"delta": [0.5]}, [GOLDEN], seed=9)

    @pytest.mark.parametrize("seed", [-3, True, 2.5])
    def test_bad_seed_names_its_key(self, seed):
        with pytest.raises(ConfigError) as info:
            make_test_map("conjugate", {}, [GOLDEN], seed=seed)
        assert str(info.value).endswith(" in seed")

    def test_drifted_delta_dimension(self):
        with pytest.raises(ConfigError, match="delta"):
            make_test_map("drifted", {"delta": [0.01, 0.02]}, [GOLDEN], seed=9)
        with pytest.raises(ConfigError, match="finite"):
            make_test_map("drifted", {"delta": [math.nan]}, [GOLDEN], seed=9)

    def test_single_mode_1d(self):
        f = make_test_map("single-mode", {"modes": [[1, 0.0, -5e-4]]}, [GOLDEN], seed=0)
        assert f.rho[0] == pytest.approx(GOLDEN)
        assert f.displacement[0].coefficient((1,)) == pytest.approx(-5e-4j)

    def test_single_mode_2d(self):
        modes = [[[(1, 0), 1e-4, 0.0]], [[(0, 1), 0.0, 1e-4]]]
        f = make_test_map("single-mode", {"modes": modes}, PAIR_2D, seed=0)
        assert f.displacement[0].coefficient((1, 0)) == pytest.approx(1e-4)
        assert f.displacement[1].coefficient((0, 1)) == pytest.approx(1e-4j)

    def test_single_mode_needs_modes(self):
        with pytest.raises(ConfigError, match="modes"):
            make_test_map("single-mode", {}, [GOLDEN], seed=0)

    def test_random_decay_keeps_alpha(self):
        f = make_test_map("random-decay", {"degree": 4, "amplitude": 0.005}, [GOLDEN], seed=3)
        assert f.rho[0] == pytest.approx(GOLDEN, abs=1e-15)
        assert f.degree == 4

    @pytest.mark.parametrize("kind", ["random-decay", "conjugate"])
    @pytest.mark.parametrize("alpha", [[GOLDEN], PAIR_2D])
    def test_degree_zero_is_the_rotation(self, kind, alpha):
        f = make_test_map(kind, {"degree": 0}, alpha, seed=4)
        assert np.allclose(f.rho, alpha, rtol=0.0, atol=1e-15)
        assert deviation_norm(f, alpha) == 0.0

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            make_test_map("random-decay", {"amplitude": 0.5}, [GOLDEN], seed=3)

    def test_too_steep_change_is_out_of_regime(self):
        with pytest.raises(OutOfRegime, match="^generated change of variables is too steep; lower the amplitude$"):
            make_test_map("conjugate", {"amplitude": 0.5}, [GOLDEN], seed=0)

    @pytest.mark.parametrize("alpha", [[GOLDEN], PAIR_2D])
    def test_nan_jacobian_is_out_of_regime(self, alpha):
        # modes k = 1..8 (k = (1..8, 0) in 2D) at 2e306: the Jacobian's transform overflows to nan
        dim = len(alpha)
        modes = [[k if dim == 1 else [k, 0], 2e306, 0.0] for k in range(1, 9)]
        params = {"modes": modes if dim == 1 else [modes, modes]}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OutOfRegime, match="Jacobian"):
            make_test_map("single-mode", params, alpha, seed=0)

    @pytest.mark.parametrize("kind", ["conjugate", "drifted"])
    def test_each_jacobian_is_read_once(self, kind, monkeypatch):
        # the change's by conjugate's gate, then the generated map's
        calls = []
        jacobian_sup = TorusMapLift.jacobian_sup
        monkeypatch.setattr(TorusMapLift, "jacobian_sup", lambda p: calls.append(p) or jacobian_sup(p))
        f = make_test_map(kind, {}, [GOLDEN], seed=9)
        assert len(calls) == 2 and calls[1] is f

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            make_test_map("bogus", {}, [GOLDEN], seed=0)

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            make_test_map("conjugate", {"amp": 1.0}, [GOLDEN], seed=0)

    @pytest.mark.parametrize(
        "kind, params, key, alpha",
        [
            ("conjugate", {"degree": "x"}, "degree", [GOLDEN]),
            ("conjugate", {"degree": 2.5}, "degree", [GOLDEN]),
            ("conjugate", {"target_degree": -4}, "target_degree", [GOLDEN]),
            ("random-decay", {"amplitude": True}, "amplitude", [GOLDEN]),
            ("random-decay", {"decay": math.nan}, "decay", [GOLDEN]),
            ("drifted", {"delta": ["x"]}, "delta", [GOLDEN]),
            ("single-mode", {"modes": []}, "modes", [GOLDEN]),
            ("single-mode", {"modes": [["x", 0.0, 1e-4]]}, "modes", [GOLDEN]),
            ("single-mode", {"modes": [[1, "re", 1e-4]]}, "modes", [GOLDEN]),
            ("single-mode", {"modes": [[1.5, 0.0, 1e-4]]}, "modes", [GOLDEN]),
            ("single-mode", {"modes": [5, 6]}, "modes", PAIR_2D),
            ("single-mode", {"modes": [[[(1, 0), 1e-4, 0.0]], []]}, "modes", PAIR_2D),
        ],
    )
    def test_bad_param_names_its_key(self, kind, params, key, alpha):
        with pytest.raises(ConfigError) as info:
            make_test_map(kind, params, alpha, seed=0)
        assert str(info.value).endswith(f" in initial_map.params.{key}")

    # the spellings the number rule accepts: an integral float for an int, an int for a float
    @pytest.mark.parametrize(
        "kind, params, canonical",
        [
            ("conjugate", {"degree": 2.0, "amplitude": 0}, {"degree": 2, "amplitude": 0.0}),
            ("drifted", {"delta": [0]}, {"delta": [0.0]}),
            ("single-mode", {"modes": [[1.0, 0, 1e-4]]}, {"modes": [[1, 0.0, 1e-4]]}),
        ],
    )
    def test_number_spellings_read_alike(self, kind, params, canonical):
        a, b = (make_test_map(kind, p, [GOLDEN], seed=9) for p in (params, canonical))
        assert map_to_doc(a) == map_to_doc(b)

    @pytest.mark.parametrize("kind", ["random-decay", "conjugate", "drifted"])
    def test_negative_degree_rejected(self, kind):
        with pytest.raises(ConfigError, match="degree must be at least 0, got -1"):
            make_test_map(kind, {"degree": -1}, [GOLDEN], seed=0)


class TestChainHelpers:
    def test_compose_chain_empty(self):
        with pytest.raises(ValueError, match="empty"):
            compose_chain([])

    def test_compose_chain_single(self):
        phi = TorusMapLift(np.zeros(1), (PeriodicField.from_entries(1, 1, [((1,), -0.005j)]),))
        total = compose_chain([phi])
        assert total is phi

    @pytest.mark.parametrize("max_degree", [None, 4])
    def test_compose_chain_is_one_walk(self, max_degree):
        chain = [
            TorusMapLift(np.array([0.1 * j]), (PeriodicField.from_entries(1, j, [((j,), 0.004j)]),))
            for j in (1, 2, 3)
        ]
        total = compose_chain(chain, max_degree)
        assert total.degree == (6 if max_degree is None else 4)
        # the walk chain[2](chain[1](chain[0](x))) sampled pointwise and projected once
        m = 64
        x = np.arange(m) / m
        rho = sum(phi.rho for phi in chain)
        v = chain[2](chain[1](chain[0](x))) - x - rho
        walk = spectral._project(np.fft.fftn(v) / v.size, total.degree)
        want = TorusMapLift(rho, (walk,))
        assert np.max(np.abs(total.rho - want.rho)) <= 2e-16
        # at cap 4 the chain stops at its 20-point ceiling, which aliases modes from 16 on
        tol = 1e-15 if max_degree is None else 1e-12
        assert np.max(np.abs(total.displacement[0].coeffs - want.displacement[0].coeffs)) <= tol

    def test_conjugacy_verification_exact_for_rotation(self):
        h = TorusMapLift.rotation(np.zeros(1))
        f = TorusMapLift.rotation([GOLDEN])
        assert conjugacy_verification(h, f, [GOLDEN]) < 1e-15

    @pytest.mark.parametrize("alpha", [[0.1], [0.1, 0.2, 0.3], []])
    def test_conjugacy_verification_refuses_an_alpha_of_another_dimension(self, alpha):
        # a 1-vector against a 2D map measured 0.4993 against the wrong rotation
        f = make_test_map("conjugate", {"degree": 2, "amplitude": 0.01}, PAIR_2D, seed=3)
        h = TorusMapLift.rotation(np.zeros(2))
        with pytest.raises(ValueError, match="^alpha does not match the map dimension$"):
            conjugacy_verification(h, f, alpha)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_conjugacy_verification_keeps_a_nan_defect(self, order):
        # 2 * 0.9e308 overflows on the grid, so that component's defect is inf - inf = nan;
        # the other component's is 0.0, and the sup is nan whichever comes first
        steep = PeriodicField.from_entries(2, 1, [((1, 0), 0.9e308)])
        fields = (PeriodicField.zeros(2, 1), steep)
        h = TorusMapLift(np.zeros(2), tuple(fields[i] for i in order))
        with np.errstate(over="ignore", invalid="ignore"):
            residual = conjugacy_verification(h, TorusMapLift.rotation(np.zeros(2)), np.zeros(2))
        assert math.isnan(residual)


class TestRunScheme:
    def test_pure_rotation_converges_without_steps(self, tmp_path):
        path = tmp_path / "rot.json"
        save_map(TorusMapLift.rotation([GOLDEN]), path)
        cfg = ExperimentConfig.from_dict(minimal_config(initial_map={"file": str(path)}))
        res = run_scheme(cfg)
        assert res.status is RunStatus.CONVERGED
        assert res.exit_code == 0
        assert res.n_steps == 0
        assert res.trace == []
        assert res.final_eps0 == 0.0
        assert res.composed is None and res.verification_residual is None

    def test_nan_map_file_is_config_error(self, tmp_path):
        # one nan coefficient used to run 0 steps and report converged at eps0 0.0
        path = tmp_path / "nan.json"
        save_map(make_test_map("conjugate", CONJ_PARAMS, [GOLDEN], 3), path)
        doc = json.loads(path.read_text())
        doc["coeffs"][0][1][1] = math.nan
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_dict(minimal_config(initial_map={"file": str(path)}))
        with pytest.raises(ConfigError, match="finite"):
            run_scheme(cfg)

    def test_non_finite_value_inside_a_step_diverges(self, tmp_path, monkeypatch):
        def nan_pushforward(phi, f, target_degree=None):
            return TorusMapLift(f.rho, tuple(u * math.nan for u in f.displacement))

        monkeypatch.setattr(kstep, "conjugate", nan_pushforward)
        output = {"trace": str(tmp_path / "trace.csv"), "final_map": str(tmp_path / "final.json")}
        res = run_scheme(ExperimentConfig.from_dict(minimal_config(output=output)))
        assert res.status is RunStatus.DIVERGED and res.exit_code == 3
        assert res.messages == ["step 1: coefficients must be finite"]
        assert [row[9] for row in res.trace] == [0]
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2
        assert np.array_equal(load_map(tmp_path / "final.json").rho, res.final_map.rho)

    def test_map_with_overflowing_values_diverges(self, tmp_path):
        # finite coefficients whose grid values overflow: eps0 reads inf (it read nan, which passed smallness)
        path = tmp_path / "huge.json"
        u = PeriodicField.from_entries(1, 8, [((k,), 4e307) for k in range(1, 9)])
        save_map(TorusMapLift(np.array([GOLDEN]), (u,)), path)
        cfg = ExperimentConfig.from_dict(minimal_config(initial_map={"file": str(path)}))
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_scheme(cfg)
        assert res.status is RunStatus.DIVERGED and res.exit_code == 3
        assert res.messages == ["step 1: deviation eps0 = inf is not finite"]

    def test_exact_conjugate_converges(self):
        cfg = ExperimentConfig.from_dict(minimal_config())
        res = run_scheme(cfg)
        assert res.status is RunStatus.CONVERGED
        assert res.final_eps0 <= 1e-9
        assert res.n_steps <= 8
        assert res.verification_residual is not None
        assert res.verification_residual <= 1e-8
        # schedule follows N_{n+1} = N_n^(1+sigma) from the start cutoff
        assert [row[1] for row in res.trace] == [8, 23, 108][: res.n_steps]
        assert all(row[9] == 1 for row in res.trace)

    def test_composed_map_satisfies_conjugacy_pointwise(self):
        cfg = ExperimentConfig.from_dict(minimal_config())
        res = run_scheme(cfg)
        h = res.composed
        f0 = make_test_map("conjugate", CONJ_PARAMS, [GOLDEN], seed=5)
        xs = np.random.default_rng(1).random(25)
        hx = xs + eval_at_points(h.displacement[0], xs) + h.rho[0]
        fx = f0(xs)
        hfx = fx + eval_at_points(h.displacement[0], fx) + h.rho[0]
        assert np.max(np.abs(hfx - hx - GOLDEN)) < 1e-8

    def test_drifted_map_obstructs_at_first_step(self):
        cfg = ExperimentConfig.from_dict(
            minimal_config(initial_map={"kind": "drifted", "params": {"delta": [0.01]}})
        )
        res = run_scheme(cfg)
        assert res.status is RunStatus.DRIFT_OBSTRUCTION
        assert res.exit_code == 4
        assert res.n_steps == 1

    def test_superlinear_contraction_on_single_mode(self):
        cfg = ExperimentConfig.from_dict(
            minimal_config(
                initial_map={"kind": "single-mode", "params": {"modes": [[1, 0.0, -5e-5]]}},
                tolerances={"eps_stop": 1e-13, "max_iters": 3},
            )
        )
        res = run_scheme(cfg)
        eps_values = [row[2] for row in res.trace]
        for before, after in zip(eps_values, eps_values[1:]):
            assert after <= before ** 1.5

    def test_max_iters_classification(self):
        cfg = ExperimentConfig.from_dict(
            minimal_config(tolerances={"eps_stop": 1e-9, "max_iters": 1})
        )
        res = run_scheme(cfg)
        assert res.status is RunStatus.MAX_ITERS
        assert res.exit_code == 2
        assert res.n_steps == 1

    def test_diverged_when_smallness_never_holds(self):
        cfg = ExperimentConfig.from_dict(minimal_config(smallness_c=1e6))
        res = run_scheme(cfg)
        assert res.status is RunStatus.DIVERGED
        assert res.exit_code == 3
        assert res.trace[-1][9] == 0

    def test_smallness_retry_keeps_halving_while_converging(self):
        # the step-4 cutoff 1116 and its first halving 558 both fail smallness
        cfg = ExperimentConfig.from_dict(
            minimal_config(
                tau=1.0,
                seed=26,
                initial_map={"kind": "conjugate", "params": {"amplitude": 0.01}},
            )
        )
        res = run_scheme(cfg)
        assert res.status is RunStatus.CONVERGED
        assert [row[1] for row in res.trace] == [8, 23, 108, 279]
        assert [row[9] for row in res.trace] == [1, 1, 1, 1]
        assert res.messages == [
            "step 4: retrying at cutoff 558",
            "step 4: retrying at cutoff 279",
        ]

    def test_smallness_retry_stops_at_the_last_accepted_cutoff(self, monkeypatch):
        tried = []

        def step_failing_after_two(f, vec, cutoff, config):
            tried.append(cutoff)
            if len(tried) > 2:
                raise SmallnessViolated(f"at cutoff {cutoff}")
            return step(f, vec, cutoff, config)

        step = driver.step
        monkeypatch.setattr(driver, "step", step_failing_after_two)
        res = run_scheme(
            ExperimentConfig.from_dict(minimal_config(tolerances={"eps_stop": 1e-30}))
        )
        assert res.status is RunStatus.DIVERGED
        assert tried == [8, 23, 108, 54, 27, 23]
        assert [(row[1], row[9]) for row in res.trace] == [(8, 1), (23, 1), (23, 0)]
        assert [m for m in res.messages if "retrying" in m] == [
            f"step 3: retrying at cutoff {c}" for c in (54, 27, 23)
        ]

    def test_smallness_retry_floor_before_any_accepted_step(self):
        res = run_scheme(ExperimentConfig.from_dict(minimal_config(smallness_c=1e6)))
        assert res.status is RunStatus.DIVERGED
        assert [(row[1], row[9]) for row in res.trace] == [(2, 0)]
        assert res.messages[:2] == ["step 1: retrying at cutoff 4", "step 1: retrying at cutoff 2"]

    @pytest.mark.parametrize(
        "overrides, status",
        [
            ({}, RunStatus.CONVERGED),
            ({"smallness_c": 1e6}, RunStatus.DIVERGED),
            ({"tolerances": {"max_iters": 1}}, RunStatus.MAX_ITERS),
            (
                {"initial_map": {"kind": "drifted", "params": {"delta": [0.01]}}},
                RunStatus.DRIFT_OBSTRUCTION,
            ),
        ],
        ids=["converged", "diverged", "max-iters", "drift-obstruction"],
    )
    def test_eps0_carried_from_the_accepted_step(self, overrides, status):
        raw = minimal_config(**overrides)
        res = run_scheme(ExperimentConfig.from_dict(raw))
        assert res.status is status
        imap = raw["initial_map"]
        f0 = make_test_map(imap["kind"], imap["params"], [GOLDEN], raw["seed"])
        eps0 = deviation_norm(rebase(f0, [GOLDEN]), [GOLDEN])
        accepted = iter(res.diagnostics)
        for row in res.trace:
            assert row[2] == eps0
            if row[9]:
                eps0 = next(accepted).eps0_after
        assert res.final_eps0 == eps0
        assert res.final_eps0 == deviation_norm(res.final_map, [GOLDEN])

    def test_residual_tolerance_enforced(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        cfg = ExperimentConfig.from_dict(
            minimal_config(
                tolerances={"residual_tol": 1e-18}, output={"trace": str(trace_path)}
            )
        )
        with pytest.raises(ResidualTooLarge):
            run_scheme(cfg)
        # the failing run still leaves its trace: header plus one row per step
        attempted = run_scheme(ExperimentConfig.from_dict(minimal_config())).trace
        text = trace_path.read_text().splitlines()
        assert text[0] == "n,N,eps0,eps_s0,drift,drift_bound,env_eps0,env_eps_s0,phi_norm0,accepted"
        assert len(attempted) >= 1 and len(text) == 1 + len(attempted)

    def test_nan_residual_fails_verification(self, tmp_path, monkeypatch):
        # a nan residual is not within the tolerance; the outputs are still written
        monkeypatch.setattr(driver, "conjugacy_verification", lambda h, f, alpha: math.nan)
        trace_path = tmp_path / "trace.csv"
        cfg = ExperimentConfig.from_dict(minimal_config(output={"trace": str(trace_path)}))
        with pytest.raises(ResidualTooLarge, match="^composed conjugacy residual nan exceeds"):
            run_scheme(cfg)
        assert trace_path.read_text().startswith("n,N,eps0")

    def test_outputs_written(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        map_path = tmp_path / "final.json"
        chain_path = tmp_path / "chain.json"
        cfg = ExperimentConfig.from_dict(
            minimal_config(
                output={
                    "trace": str(trace_path),
                    "final_map": str(map_path),
                    "chain": str(chain_path),
                }
            )
        )
        res = run_scheme(cfg)
        text = trace_path.read_text().splitlines()
        assert text[0] == "n,N,eps0,eps_s0,drift,drift_bound,env_eps0,env_eps_s0,phi_norm0,accepted"
        assert len(text) == 1 + len(res.trace)
        restored = load_map(map_path)
        assert np.array_equal(restored.rho, res.final_map.rho)
        assert chain_path.exists()

    def test_schedule_clamped_at_max_degree(self):
        res = run_scheme(
            ExperimentConfig.from_dict(minimal_config(max_degree=256, tolerances={"max_iters": 12}))
        )
        assert [row[1] for row in res.trace] == [8, 23, 108][: len(res.trace)]
        assert res.vector.verified_up_to == 256  # the largest cutoff is the cap

    def test_long_budget_does_not_overflow_the_schedule(self):
        res = run_scheme(
            ExperimentConfig.from_dict(
                minimal_config(max_degree=2048, tolerances={"max_iters": 40})
            )
        )
        assert res.status is RunStatus.CONVERGED
        assert res.vector.verified_up_to == 2048

    def test_huge_budget_builds_no_schedule_of_its_length(self):
        # the schedule ends at the degree cap, so the budget needs no upper bound
        res = run_scheme(ExperimentConfig.from_dict(minimal_config(tolerances={"max_iters": 2 ** 62})))
        assert res.status is RunStatus.CONVERGED and res.exit_code == 0
        assert [row[1] for row in res.trace] == [8, 23, 108][: res.n_steps]
        assert res.vector.verified_up_to == 2048

    def test_slow_schedule_reads_its_entries_one_at_a_time(self):
        # sigma = 1e-10 steps at 8 for about 1e10 steps before the cap, so a list of
        # every allowed step would have 2**62 entries; the run reads only the ones it uses
        slow = {"scheduler": {"sigma": 1e-10, "nu": 1e10}}
        results = [
            run_scheme(ExperimentConfig.from_dict(minimal_config(**slow, tolerances={"max_iters": count})))
            for count in (12, 2 ** 62)
        ]
        short, huge = ([r.status, r.exit_code, r.n_steps, [row[1] for row in r.trace]] for r in results)
        assert huge == short and short[0] is RunStatus.CONVERGED and short[2] > 0
        assert results[1].vector.verified_up_to == 2048  # the budget's last cutoff reads as the cap
        assert results[0].vector.verified_up_to == 8

    def test_initial_map_dimension_mismatch(self, tmp_path):
        path = tmp_path / "rot2.json"
        save_map(TorusMapLift.rotation(PAIR_2D), path)
        cfg = ExperimentConfig.from_dict(minimal_config(initial_map={"file": str(path)}))
        with pytest.raises(ConfigError, match="dimension"):
            run_scheme(cfg)

    def test_2d_conjugate_converges(self):
        # two quadratic steps reach 1e-6; the tight-tolerance 2D run lives in
        # the acceptance suite
        cfg = ExperimentConfig.from_dict(minimal_config(**TWO_STEP_2D))
        res = run_scheme(cfg)
        assert res.status is RunStatus.CONVERGED
        assert res.final_eps0 <= 1e-6
        assert res.n_steps <= 2

    def test_check_grids_follow_the_box(self, monkeypatch):
        """Each check samples on the grid its box degree sets, never on a live-degree grid.

        A grid sup is a lower bound, so no check may get coarser when the
        kernels and the chain and sweep grids follow the live degree.  The
        final verification walks on the grid its band needs; the values its
        sup reads come from `value_grid` on its box grid.
        """
        grids, defects, walks = [], [], []
        value_grid, composition_defect, walk = spectral.value_grid, spectral._composition_defect, spectral._walk

        def recorded_grid(f, m=None):
            frame, walked = sys._getframe(1), False
            while frame is not None and frame.f_code.co_name not in _CHECKS:
                walked = walked or frame.f_code.co_name == "_walk"
                frame = frame.f_back
            if frame is not None and not walked:  # a kernel, chain, sweep or walk grid otherwise
                name, local, outer = frame.f_code.co_name, frame.f_locals, frame.f_back
                if name == "cs_norm":
                    box = local["f"].degree
                elif name == "_composition_defect":  # called through recorded_defect
                    name = outer.f_back.f_code.co_name
                    box = max(local[k].degree for k in "abcd")
                else:
                    box = local["self" if name == "jacobian_sup" else "f_next"].degree
                used = sampling_grid(f.degree) if m is None else m
                # the verification reads the defect projected at its band, whose
                # live shell is below the box it is read on
                below = f.live_degree < (box if name == "conjugacy_verification" else f.degree)
                grids.append((name, used, box, below))
            return value_grid(f, m)

        def recorded_defect(a, b, c, d):
            defects.append((sys._getframe(1).f_code.co_name, a))
            walks.append([])
            return composition_defect(a, b, c, d)

        def recorded_walk(maps, m, invert=False):
            if walks:
                walks[-1].append(m)
            return walk(maps, m, invert)

        monkeypatch.setattr(spectral, "value_grid", recorded_grid)
        monkeypatch.setattr(spectral, "_composition_defect", recorded_defect)
        monkeypatch.setattr(driver, "_composition_defect", recorded_defect)
        monkeypatch.setattr(spectral, "_walk", recorded_walk)
        res = run_scheme(ExperimentConfig.from_dict(minimal_config(**TWO_STEP_2D)))
        assert res.status is RunStatus.CONVERGED and res.n_steps == 2

        # _drift_check: the stepped map's grids, shared by its deviations and its hull
        names = {"cs_norm", "jacobian_sup", "_drift_check", "conjugacy_verification"}
        assert {g[0] for g in grids} == names
        # every kind of check samples a field whose box reaches past its live shell
        assert {g[0] for g in grids if g[3]} == names
        for name, used, box, _ in grids:
            assert used == sampling_grid(box), name
        # a run builds no inverse field: the final verification is its one composition check
        assert defects == [("conjugacy_verification", res.composed)]
        # its walks, both sides on each grid, stop below the box grid its sup reads
        (read,) = {used for name, used, _, _ in grids if name == "conjugacy_verification"}
        assert walks[0] and max(walks[0]) < read
        # the composition is checked at its nominal band, the sum of the correctors' boxes
        assert res.composed.degree == sum(phi.degree for phi in res.chain)
        assert res.composed.live_degree < res.composed.degree
