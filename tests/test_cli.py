"""End-to-end command line coverage for every subcommand."""

import json
import math
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from kamconj import driver
from kamconj.cli import _parse_alpha, main
from kamconj.io import load_map

from conftest import GOLDEN, MALFORMED_CONFIGS, suite_env

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DC_CHECK_ARGS = ["dc-check", "--alpha", "golden", "--tau", "1", "--K", "64"]
MAKE_MAP_ARGS = ["make-map", "--kind", "conjugate", "--alpha", "golden", "--seed", "0", "--out", "{out}"]


def write_config(path, **overrides):
    raw = {
        "alpha": "golden",
        "initial_map": {"kind": "conjugate", "params": {"amplitude": 0.005}},
        "seed": 5,
        "smallness_c": 1e-6,
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path


class TestRun:
    def test_converged_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        trace = tmp_path / "trace.csv"
        code = main(["run", "--config", str(cfg), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged" in out
        assert "conjugacy residual" in out
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("n,N,eps0")
        assert len(lines) >= 2

    def test_quiet_suppresses_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["run", "--config", str(cfg), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_drift_obstruction_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            initial_map={"kind": "drifted", "params": {"delta": [0.01]}},
        )
        assert main(["run", "--config", str(cfg)]) == 4
        out = capsys.readouterr().out
        assert re.search(r"^step 1: drift \S+ fails its bound \S+ \(hull_ok=False\)$", out, re.M)
        assert out.index("fails its bound") < out.index("status: drift-obstruction")

    @pytest.mark.parametrize("tau, last", [(400, "retrying at cutoff 2"), (600, "= inf >= 1 at cutoff 2")])
    def test_huge_tau_ends_diverged(self, tmp_path, capsys, tau, last):
        # N^(2 tau + 3) passes the float maximum at cutoffs 8 and 4, and at 2 for tau = 600: the margin reads inf
        cfg, trace = write_config(tmp_path / "cfg.json", tau=tau), tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--trace", str(trace)]) == 3
        out = capsys.readouterr().out
        assert last in out and "status: diverged after 0 accepted steps" in out
        assert trace.read_text().splitlines()[1].endswith(",0")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tau": 1e308}, "a=inf is past the float range"),
            ({"scheduler": {"nu": 1e308}}, "s0=inf is past the float range"),
            ({"scheduler": {"lambda": 1e308}}, "mu window (1.5e+308, inf) is past the float range"),
        ],
    )
    def test_exponent_past_the_float_range_is_usage_error(self, tmp_path, capsys, overrides, message):
        # a tau of 1e308 once ran, wrote eps_s0 = nan into its trace and ended diverged
        cfg, trace = write_config(tmp_path / "cfg.json", **overrides), tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n" and not trace.exists()

    def test_outputs_and_overrides(self, tmp_path, capsys):
        final = tmp_path / "final.json"
        chain = tmp_path / "chain.json"
        cfg = write_config(tmp_path / "cfg.json")
        code = main(
            ["run", "--config", str(cfg), "--final-map", str(final), "--chain", str(chain), "--quiet"]
        )
        assert code == 0
        restored = load_map(final)
        assert abs(restored.rho[0] - GOLDEN) < 1e-9
        assert chain.exists()

    def test_failed_residual_bound_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tolerances={"residual_tol": 1e-18})
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--trace", str(trace)]) == 3
        assert "error:" in capsys.readouterr().err
        assert trace.read_text().startswith("n,N,eps0")

    def test_nan_residual_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(driver, "conjugacy_verification", lambda h, f, alpha: math.nan)
        cfg, trace = write_config(tmp_path / "cfg.json"), tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--trace", str(trace), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("error: composed conjugacy residual nan exceeds")
        assert trace.read_text().startswith("n,N,eps0")

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", typo=1)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_map_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(
            {"schema_version": 1, "kind": "torus_map", "dim": 1, "degree": 1,
             "rho": [GOLDEN], "coeffs": [[[[1], math.nan, 0.0], [[-1], math.nan, 0.0]]]}
        ))
        cfg = write_config(tmp_path / "cfg.json", initial_map={"file": str(path)})
        assert main(["run", "--config", str(cfg)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_malformed_map_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "norho.json"
        path.write_text(json.dumps(
            {"schema_version": 1, "kind": "torus_map", "dim": 1, "degree": 1,
             "coeffs": [[[[1], 0.0, -0.005]]]}
        ))
        cfg = write_config(tmp_path / "cfg.json", initial_map={"file": str(path)})
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error: invalid map document: missing key 'rho'" in capsys.readouterr().err

    def test_non_integral_frequency_is_usage_error(self, tmp_path, capsys):
        # read as k = 1, this map ran to a drift obstruction (exit 4)
        path = tmp_path / "k15.json"
        path.write_text(json.dumps(
            {"schema_version": 1, "kind": "torus_map", "dim": 1, "degree": 2,
             "rho": [GOLDEN], "coeffs": [[[[1.5], 0.0, -0.005]]]}
        ))
        cfg = write_config(tmp_path / "cfg.json", initial_map={"file": str(path)})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error: invalid map document: frequency component 1.5 is not an integer" in err

    def test_oversized_map_box_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"schema_version": 1, "kind": "torus_map", "dim": 2, "degree": 1000000,
             "rho": [0.4, 0.7], "coeffs": [[[[0, 1], 0.0, -0.005]], [[[1, 0], 0.0, -0.005]]]}
        ))
        cfg = write_config(
            tmp_path / "cfg.json", alpha=["sqrt2-1", "sqrt3-1"], initial_map={"file": str(path)}
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error: invalid map document: degree 1000000" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "document, message",
        [
            ([1, 2], "configuration must be a JSON object"),
            ("x", "configuration must be a JSON object"),
            ({"alpha": "golden", "initial_map": {"kind": "conjugate"}, "seed": 5, "output": [1]},
             "output must be an object"),
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--trace", "t.csv"]])
    def test_malformed_document_is_usage_error(self, tmp_path, capsys, document, message, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        assert main(["run", "--config", str(cfg), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_flags_override_the_document_outputs(self, tmp_path, capsys):
        kept, moved = tmp_path / "chain.json", tmp_path / "trace.csv"
        cfg = write_config(tmp_path / "cfg.json", output={"trace": str(tmp_path / "unused.csv"), "chain": str(kept)})
        assert main(["run", "--config", str(cfg), "--trace", str(moved), "--quiet"]) == 0
        assert moved.read_text().startswith("n,N,eps0") and kept.exists()
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("overrides, message", MALFORMED_CONFIGS)
    def test_bad_value_is_usage_error(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestParams:
    def test_default_report(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "mu window: (7, 8)" in out
        assert "a=8 gamma0=24 s0=60 b=16" in out
        assert "omega0 bound" in out
        assert "VIOLATED" not in out

    def test_schedule_and_replay(self, capsys):
        # a 2D run at its default max_degree of 256 steps at 8, 23, 108 and then 256
        assert main(["params", "--schedule", "4", "--replay", "10", "--N1", "8"]) == 0
        out = capsys.readouterr().out
        assert "schedule: [8, 23, 108, 256]" in out
        assert "replay: ok=True steps=10" in out

    @pytest.mark.parametrize(
        "dim, count, schedule",
        [("2", "5", "[8, 23, 108, 256]"), ("1", "5", "[8, 23, 108, 1117, 2048]"), ("1", "4", "[8, 23, 108, 1117]")],
    )
    def test_schedule_ends_at_the_default_degree_cap(self, capsys, dim, count, schedule):
        # at most the requested count, and none past the cap a run at --dim's defaults steps at
        assert main(["params", "--dim", dim, "--schedule", count]) == 0
        assert f"schedule: {schedule}\n" in capsys.readouterr().out

    def test_replay_past_the_float_range_prints_only_its_error(self, capsys):
        # the margins of step 1740 read (inf, nan); they once printed as ok=True
        assert main(["params", "--replay", "2000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: replay margins at step 1740 are past the float range: (inf, nan)\n"

    def test_start_cutoff_long_flag(self, capsys):
        assert main(["params", "--start-cutoff", "10", "--schedule", "3"]) == 0
        assert "schedule: [10, 32, 178]" in capsys.readouterr().out

    def test_infeasible_exit_code(self, capsys):
        assert main(["params", "--sigma", "0.2"]) == 3
        assert "infeasible:" in capsys.readouterr().out

    def test_explicit_mu_outside_window(self, capsys):
        assert main(["params", "--mu", "9.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_default_tau_follows_the_dimension(self, capsys):
        # a 1D run defaults to tau = 1, so a = 2 * 1 + 1 + 2
        assert main(["params", "--dim", "1"]) == 0
        assert "a=5 gamma0=15 s0=37.5 b=10" in capsys.readouterr().out
        assert main(["params", "--dim", "1", "--tau", "2"]) == 0
        assert "a=7 gamma0=21 s0=52.5 b=14" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--tau", "nan"], ["--mu", "nan"], ["--replay", "-2"], ["--schedule", "-1"]])
    def test_bad_input_prints_no_report(self, capsys, flags):
        assert main(["params", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--nu", "s0=inf is past the float range"),
            ("--lambda", "mu window (1.5e+308, inf) is past the float range"),
            ("--tau", "a=inf is past the float range"),
        ],
    )
    def test_exponent_past_the_float_range_is_named(self, capsys, flag, message):
        # --nu once blamed an infinite mu for a finite window, and --tau printed inf exponents with exit 0
        assert main(["params", flag, "1e308"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_dimension_is_one_or_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["params", "--dim", "3"])
        assert info.value.code == 1
        assert "invalid choice: 3" in capsys.readouterr().err


class TestDcCheck:
    def test_reports_best_gamma_and_worst_mode(self, capsys):
        code = main(["dc-check", "--alpha", "golden", "--tau", "1", "--radius", "256"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst-case gamma over |k|_1 <= 256: 2.6180339887498953" in out
        assert "worst mode: k=" in out

    def test_claim_held(self, capsys):
        code = main(["dc-check", "--alpha", "golden", "--tau", "1", "--K", "64", "--gamma", "3.0"])
        assert code == 0
        assert "holds" in capsys.readouterr().out

    def test_claim_failed(self, capsys):
        code = main(["dc-check", "--alpha", "golden", "--tau", "1", "--K", "64", "--gamma", "2.0"])
        assert code == 3
        assert "FAILS" in capsys.readouterr().out

    def test_two_component_alpha(self, capsys):
        code = main(["dc-check", "--alpha", "0.414213,0.732050", "--tau", "2", "--K", "32"])
        assert code == 0

    def test_huge_tau_prints_no_warning(self, capsys):
        # |k|_1^tau overflows for every |k|_1 >= 2; inf is the ratio's exact limit there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dc-check", "--alpha", "golden", "--tau", "1e308", "--radius", "8"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert "worst-case gamma over |k|_1 <= 8: 2.6180339887498953" in out.out
        assert "worst mode: k=(1,)" in out.out

    def test_resonance_behind_an_overflow_is_named(self, capsys):
        # |2|^2000 overflows at the resonance k = (2,): no warning, and gamma is not blamed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dc-check", "--alpha", "0.5", "--tau", "2000", "--radius", "8"])
        err = capsys.readouterr().err
        assert code == 1 and err == "error: resonance at k=(2,): k.alpha is an integer to roundoff\n"

    def test_resonant_alpha_is_error(self, capsys):
        assert main(["dc-check", "--alpha", "0.5", "--tau", "1", "--K", "8"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_alpha(self, capsys):
        assert main(["dc-check", "--alpha", "gold", "--tau", "1", "--K", "8"]) == 1

    # 0.41 is rational: k = (0, 100) is an exact resonance, so its ball stays below 100
    @pytest.mark.parametrize("alpha, radius", [("sqrt2-1,sqrt3-1", "256"), ("sqrt2-1,0.41", "64")])
    def test_tag_lists_and_mixtures(self, alpha, radius, capsys):
        assert main(["dc-check", "--alpha", alpha, "--tau", "2", "--K", radius]) == 0
        assert f"worst-case gamma over |k|_1 <= {radius}" in capsys.readouterr().out

    def test_mixture_components(self):
        assert _parse_alpha("sqrt2-1,0.41").tolist() == [math.sqrt(2.0) - 1.0, 0.41]
        assert _parse_alpha("golden").tolist() == [GOLDEN]

    def test_three_components_is_error(self, capsys):
        assert main(["dc-check", "--alpha", "0.1,0.2,0.3", "--tau", "2", "--K", "8"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCohomologyCommand:
    def test_solve_and_write(self, tmp_path, capsys):
        src = tmp_path / "map.json"
        out = tmp_path / "phi.json"
        assert (
            main(
                [
                    "make-map", "--kind", "single-mode", "--alpha", "golden",
                    "--seed", "0", "--modes", "[[1, 0.0, -0.0005]]", "--out", str(src),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "cohomology", "--map", str(src), "--alpha", "golden",
                "--tau", "1", "--cutoff", "8", "--out", str(out),
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "component 0:" in text
        phi = load_map(out)  # a map, not a chain
        assert phi.dim == 1
        assert phi.displacement[0].coefficient((1,)) != 0

    def test_verifies_only_the_solved_band(self, tmp_path, capsys, monkeypatch):
        # a degree-16 2D map: solve reads |k|_1 <= 16 whatever the cutoff, so the
        # Diophantine bound is checked that far and no (2 * 1200 + 1)^2 ball is built
        from kamconj import cli

        src = tmp_path / "map.json"
        main([
            "make-map", "--kind", "conjugate", "--alpha", "sqrt2-1,sqrt3-1", "--seed", "3",
            "--degree", "2", "--amplitude", "0.005", "--out", str(src),
        ])
        assert load_map(src).degree == 16
        radii, real = [], cli.verified_vector

        def recording(alpha, tau, radius, gamma=None):
            radii.append(radius)
            return real(alpha, tau, radius, gamma)

        monkeypatch.setattr(cli, "verified_vector", recording)
        capsys.readouterr()
        reports = []
        for cutoff in ("12", "16", "1200"):
            args = ["--alpha", "sqrt2-1,sqrt3-1", "--tau", "2", "--cutoff", cutoff]
            assert main(["cohomology", "--map", str(src), *args]) == 0
            reports.append(capsys.readouterr().out)
        assert radii == [12, 16, 16]
        assert reports[1] == reports[2]

    def test_unreadable_gamma_names_its_flag(self, tmp_path, capsys):
        src = tmp_path / "map.json"
        main(["make-map", "--kind", "conjugate", "--alpha", "golden", "--seed", "0", "--out", str(src)])
        capsys.readouterr()
        args = ["cohomology", "--map", str(src), "--alpha", "golden", "--tau", "1", "--cutoff", "8"]
        assert main([*args, "--gamma", "abc"]) == 1
        assert capsys.readouterr().err == "error: could not convert string to float: 'abc' in --gamma\n"

    def test_dimension_mismatch(self, tmp_path, capsys):
        src = tmp_path / "map.json"
        main(
            [
                "make-map", "--kind", "random-decay", "--alpha", "golden",
                "--seed", "1", "--amplitude", "0.001", "--out", str(src),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "cohomology", "--map", str(src), "--alpha", "0.1,0.2",
                "--tau", "2", "--cutoff", "8",
            ]
        )
        assert code == 1


class TestRotationCommand:
    def test_rigid_rotation_hull(self, tmp_path, capsys):
        src = tmp_path / "map.json"
        main(
            [
                "make-map", "--kind", "single-mode", "--alpha", "golden",
                "--seed", "0", "--modes", "[[1, 0.0, -1e-12]]", "--out", str(src),
            ]
        )
        capsys.readouterr()
        hull_csv = tmp_path / "hull.csv"
        code = main(
            [
                "rotation", "--map", str(src), "--samples", "8",
                "--iters", "200", "--hull-out", str(hull_csv),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rotation hull diameter" in out
        assert hull_csv.read_text().startswith("x1\n")


    @pytest.mark.parametrize("flags", [
        ["--samples", "0"], ["--samples", "-2"], ["--iters", "0"], ["--resolution", "0"], ["--resolution", "-1"],
    ])
    def test_bad_counts_are_usage_errors(self, tmp_path, capsys, flags):
        src = tmp_path / "map.json"
        main(["make-map", "--kind", "conjugate", "--alpha", "sqrt2-1,sqrt3-1", "--seed", "0", "--out", str(src)])
        capsys.readouterr()
        assert main(["rotation", "--map", str(src), *flags]) == 1
        assert "error:" in capsys.readouterr().err


# out-of-range arguments that numeric code rejects with a ValueError; "{map}" is a 1D map file
@pytest.mark.parametrize(
    "argv, message",
    [
        (["dc-check", "--alpha", "golden", "--tau", "1", "--radius", "0"], "radius must be at least 1"),
        (["dc-check", "--alpha", "golden", "--tau", "0", "--radius", "8"], "tau must be positive and finite, got 0.0"),
        (DC_CHECK_ARGS + ["--gamma", "-1"], "gamma must be positive and finite, got -1.0"),
        (["cohomology", "--map", "{map}", "--alpha", "golden", "--tau", "1", "--cutoff", "0"],
         "radius must be at least 1"),
        (["cohomology", "--map", "{map}", "--alpha", "golden", "--tau", "1", "--cutoff", "8", "--gamma", "x"],
         "could not convert string to float: 'x'"),
        (["params", "--start-cutoff", "1", "--schedule", "3"], "start cutoff must be at least 2"),
        (["params", "--replay", "-1"], "replay needs at least one step, got -1"),
        (["make-map", "--kind", "single-mode", "--alpha", "golden", "--seed", "0", "--out", "{out}",
          "--modes", "[[1, 0.1]]"],
         "invalid config document: each coefficient entry must be [k, re, im] in initial_map.params.modes"),
        (["params", "--start-cutoff", "1"], "start cutoff must be at least 2"),
        (["params", "--schedule", "-2"], "schedule length must be at least 0, got -2"),
        # a flag read as its row's kind still meets the row's bound
        (MAKE_MAP_ARGS + ["--degree", "-1"], "degree must be at least 0, got -1 in initial_map.params.degree"),
        (MAKE_MAP_ARGS + ["--decay", "nan"],
         "invalid config document: expected a finite number, got nan in initial_map.params.decay"),
        (MAKE_MAP_ARGS + ["--target-degree", "-4"],
         "target_degree must be at least 0, got -4 in initial_map.params.target_degree"),
        (MAKE_MAP_ARGS + ["--amplitude", "inf"],
         "invalid config document: expected a finite number, got inf in initial_map.params.amplitude"),
        (["make-map", "--kind", "single-mode", "--alpha", "golden", "--seed", "0", "--out", "{out}",
          "--modes", "[]"],
         "single-mode needs one nonempty mode list per component in initial_map.params.modes"),
        (["make-map", "--kind", "single-mode", "--alpha", "golden", "--seed", "0", "--out", "{out}",
          "--modes", '[["a", 0.0, 0.1]]'],
         "invalid config document: frequencies must be integer tuples matching dimension 1"
         " in initial_map.params.modes"),
        (DC_CHECK_ARGS + ["--gamma", "inf"], "gamma must be positive and finite, got inf"),
        (["dc-check", "--alpha", "golden", "--tau", "inf", "--radius", "8"], "tau must be positive and finite, got inf"),
        (["cohomology", "--map", "{map}", "--alpha", "golden", "--tau", "1", "--cutoff", "8", "--gamma", "inf"],
         "gamma must be positive and finite, got inf"),
        (["cohomology", "--map", "{map}", "--alpha", "golden", "--tau", "inf", "--cutoff", "8"],
         "tau must be positive and finite, got inf"),
        (["params", "--tau", "nan"], "tau must be positive and finite, got nan"),
        (["make-map", "--kind", "conjugate", "--alpha", "golden", "--seed", "-3", "--out", "{out}"],
         "seed must be at least 0, got -3 in seed"),
        (["make-map", "--kind", "drifted", "--alpha", "golden", "--seed", "0", "--out", "{out}", "--delta", "nan"],
         "invalid config document: expected a finite number, got nan in initial_map.params.delta"),
        (MAKE_MAP_ARGS + ["--delta", "0.5"], "unknown keys in params for 'conjugate': delta"),
        # a bad tau is named whether or not a gamma is claimed beside it
        (["dc-check", "--alpha", "golden", "--tau", "0", "--radius", "8", "--gamma", "3"],
         "tau must be positive and finite, got 0.0"),
        (["dc-check", "--alpha", "golden", "--tau", "nan", "--radius", "8", "--gamma", "3"],
         "tau must be positive and finite, got nan"),
        (["dc-check", "--alpha", "golden", "--tau", "1", "--radius", "8", "--gamma", "0"],
         "gamma must be positive and finite, got 0.0"),
        # a cutoff below 1 is refused with a given gamma as without one
        (["cohomology", "--map", "{map}", "--alpha", "golden", "--tau", "1", "--cutoff", "0", "--gamma", "3"],
         "radius must be at least 1"),
    ],
)
def test_bad_argument_is_usage_error(tmp_path, capsys, argv, message):
    src, out = tmp_path / "map.json", tmp_path / "out.json"
    main(["make-map", "--kind", "conjugate", "--alpha", "golden", "--seed", "0", "--out", str(src)])
    capsys.readouterr()
    assert main([a.format(map=src, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


# make-map flags that do not parse as their kind (CONFIG_KEYS's row, a list of floats for --delta)
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--degree", "x"], "argument --degree: invalid int value: 'x'"),
        (["--degree", "2.5"], "argument --degree: invalid int value: '2.5'"),
        (["--target-degree", "8.0"], "argument --target-degree: invalid int value: '8.0'"),
        (["--seed", "2.5"], "argument --seed: invalid int value: '2.5'"),
        (["--amplitude", "x"], "argument --amplitude: invalid float value: 'x'"),
        (["--delta", "0.01,x"], "argument --delta: expected comma-separated numbers, got '0.01,x'"),
    ],
)
def test_unparsed_flag_is_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as info:
        main([a.format(out=out) for a in MAKE_MAP_ARGS] + flags)
    assert info.value.code == 1
    assert capsys.readouterr().err.endswith(f"kamconj make-map: error: {message}\n")
    assert not out.exists()


class TestMakeMap:
    def test_conjugate_kind(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(
            [
                "make-map", "--kind", "conjugate", "--alpha", "golden", "--seed", "7",
                "--amplitude", "0.01", "--degree", "2", "--out", str(out),
            ]
        )
        assert code == 0
        assert "wrote conjugate map" in capsys.readouterr().out
        f = load_map(out)
        assert f.dim == 1

    def test_drifted_kind_with_delta(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(
            [
                "make-map", "--kind", "drifted", "--alpha", "golden", "--seed", "7",
                "--amplitude", "0.0", "--delta", "0.01", "--out", str(out),
            ]
        )
        assert code == 0
        f = load_map(out)
        assert f.rho[0] == pytest.approx(GOLDEN + 0.01, abs=1e-12)

    def test_unknown_kind_is_error(self, tmp_path, capsys):
        code = main(
            ["make-map", "--kind", "bogus", "--alpha", "golden", "--seed", "0", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    @pytest.mark.parametrize("delta", ["abc", "0.01,x", "nan"])
    def test_bad_delta_is_usage_error(self, tmp_path, capsys, delta):
        out = tmp_path / "x.json"
        argv = [
            "make-map", "--kind", "drifted", "--alpha", "golden", "--seed", "0",
            "--delta", delta, "--out", str(out),
        ]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a list that does not parse
            code = exc.code
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_2d_alpha(self, tmp_path, capsys):
        out = tmp_path / "f2.json"
        code = main(
            [
                "make-map", "--kind", "random-decay", "--alpha", "0.414,0.732",
                "--seed", "3", "--amplitude", "0.001", "--degree", "2", "--out", str(out),
            ]
        )
        assert code == 0
        assert load_map(out).dim == 2


@pytest.mark.parametrize("keep", [False, True], ids=["options dropped", "options kept"])
def test_readme_commands_run(tmp_path, monkeypatch, capsys, keep):
    # each `kamconj` line of the README's command block, in a directory that holds
    # the Config file example as experiment.json; the make-map lines write the maps the others read
    readme = (PYPROJECT.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = sorted((line for line in block.splitlines() if line.startswith("kamconj ")),
                   key=lambda line: not line.startswith("kamconj make-map"))
    config = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "experiment.json").write_text(config)
    assert {line.split()[1] for line in lines} == {"run", "params", "dc-check", "cohomology", "rotation", "make-map"}
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(re.sub(r"\[([^]]*)\]", r"\1" if keep else "", line))[1:]
        assert main(argv) == 0, line


def test_console_script_installed():
    """The declared ``kamconj`` script resolves and runs, as an install would.

    Checks the entry point rather than PATH, so it holds for an uninstalled
    checkout too; ``test_console_script_on_path`` covers the installed
    executable itself.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "kamconj" in scripts
    ep = EntryPoint(name="kamconj", value=scripts["kamconj"], group="console_scripts")
    assert callable(ep.load())
    # The same call that the wrapper pip generates for a console script makes.
    wrapper = (
        f"import sys; from {ep.module} import {ep.attr}; "
        f"sys.argv[0] = {ep.name!r}; sys.exit({ep.attr}())"
    )
    for args in (["-c", wrapper], ["-m", "kamconj"]):
        proc = subprocess.run(
            [sys.executable, *args, *DC_CHECK_ARGS], capture_output=True, text=True, env=suite_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert "worst-case gamma" in proc.stdout


def test_numpy_floor_has_the_matrix_vector_gufuncs():
    # the pointwise evaluator contracts through np.vecmat and np.matvec, new in numpy 2.2
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    (floor,) = [m.group(1) for m in (re.fullmatch(r"numpy\s*>=\s*([\d.]+)", d) for d in deps) if m]
    assert tuple(int(part) for part in floor.split(".")) >= (2, 2)
    assert callable(np.vecmat) and callable(np.matvec)


@pytest.mark.skipif(shutil.which("kamconj") is None, reason="kamconj not installed on PATH")
def test_console_script_on_path():
    proc = subprocess.run(
        [shutil.which("kamconj"), *DC_CHECK_ARGS], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "worst-case gamma" in proc.stdout
