"""Config validation, subcommand behavior, and byte-level reproducibility."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from sgdm.analysis import _lp_differences
from sgdm.cli import (
    ConfigError, build_flux, build_levels, build_noise_model, build_u0, config_hash, load_config, main,
)
from sgdm.scheme import run_trajectory


def write_config(tmp_path, **overrides):
    cfg = {
        "mesh": {"kind": "interval", "n_cells": 8},
        "gd": "p1",
        "levels": 2,
        "p": 2.0,
        "flux": {"kind": "linear"},
        "time": {"T": 0.25, "n_steps": 8},
        "noise": {"k_max": 4, "f0": "tanh"},
        "u0": "sine",
        "n_samples": 12,
        "master_seed": 42,
        "estimators": {"translate_ells": [1, 2], "dual_ells": [1, 2]},
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        # a mesh override replaces the section: each mesh kind has its own keys
        if isinstance(value, dict) and isinstance(cfg.get(key), dict) and key != "mesh":
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# Mesh and noise values a config must reject, naming the key: (id, section, value, key).
BAD_MESH_AND_NOISE = [
    ("interval-a-not-below-b", "mesh", {"kind": "interval", "n_cells": 8, "a": 1.0, "b": 1.0}, "mesh.a"),
    ("rect-x0-not-below-x1", "mesh", {"kind": "rectangle", "nx": 2, "ny": 2, "rect": [[1, 0], [0, 1]]}, "mesh.rect"),
    ("rect-y0-not-below-y1", "mesh", {"kind": "rectangle", "nx": 2, "ny": 2, "rect": [[0, 2], [1, 2]]}, "mesh.rect"),
    ("spectrum_s-str", "noise", {"spectrum_s": "1.5"}, "noise.spectrum_s"),
    ("f0-unknown", "noise", {"f0": "tan"}, "noise.f0"),
    ("f0-table-decreasing", "noise", {"f0": [[1.0, 0.5], [0.0, 0.5]]}, "noise.f0"),
    ("f0_constant-str", "noise", {"f0": "constant", "f0_constant": "2"}, "noise.f0_constant"),
    ("F1-negative", "noise", {"F1": -1.0}, "noise.F1"),
    ("F2-str", "noise", {"F2": "1"}, "noise.F2"),
]


class TestConfig:
    def test_minimal_valid(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg["mesh"]["n_cells"] == 8
        assert cfg["solver"]["newton_tol"] == 1e-10  # defaults merged

    def test_zero_samples_names_key(self, tmp_path):
        path, _ = write_config(tmp_path, n_samples=0)
        with pytest.raises(ConfigError, match="n_samples"):
            load_config(path)

    def test_missing_mesh_kind(self, tmp_path):
        path, _ = write_config(tmp_path, mesh={"kind": "polar"})
        with pytest.raises(ConfigError, match="mesh.kind"):
            load_config(path)

    def test_missing_file_rejected_at_parse_time(self, tmp_path):
        path, cfg = write_config(tmp_path)
        cfg["mesh"] = {"kind": "file", "path": str(tmp_path / "nope.txt")}  # not merged into the interval's keys
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"n_sample": 3}, "n_sample"),
            ({"time": {"n_step": 4}}, "time.n_step"),
            ({"noise": {"kmax": 4}}, "noise.kmax"),
            ({"solver": {"newton_tolerance": 1e-8}}, "solver.newton_tolerance"),
            ({"estimators": {"moment_q": [2]}}, "estimators.moment_q"),
            ({"solver": {"line_search_shrink": 0.5}}, "solver.line_search_shrink"),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, overrides, key):
        path, _ = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=f"unknown key {key}$"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("mesh", {"kind": "rectangle", "nx": 4, "ny": 4, "rec": [[0, 0], [2, 1]]}, "mesh.rec"),
            ("mesh", {"kind": "interval", "n_cells": 8, "nx": 4}, "mesh.nx"),
            ("mesh", {"kind": "file", "path": "{file}", "n_cells": 8}, "mesh.n_cells"),
            ("flux", {"kind": "p_laplace", "epsilonn": 0.1}, "flux.epsilonn"),
            ("flux", {"kind": "regularized_p_laplace", "c1": 2.0}, "flux.c1"),
            ("flux", {"kind": "custom", "callable": "math:hypot", "c3": 1.0}, "flux.c3"),
            ("u0", {"file": "{file}", "scale": 2.0}, "u0.scale"),
        ],
        ids=["mesh-rect-misspelt", "mesh-interval-nx", "mesh-file-n_cells", "flux-epsilon-misspelt",
             "flux-c1-not-custom", "flux-custom-c3", "u0-scale"],
    )
    def test_unknown_key_of_a_kind_is_named(self, tmp_path, section, value, key):
        existing = tmp_path / "exists.txt"
        existing.write_text("0\n")
        path, cfg = write_config(tmp_path, levels=1)
        cfg[section] = {k: str(existing) if v == "{file}" else v for k, v in value.items()}
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=f"unknown key {key}$"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("mesh", {"kind": "interval", "n_cells": 8, "a": "0"}, "mesh.a"),
            ("mesh", {"kind": "rectangle", "nx": 4, "ny": 4, "rect": [[0, 0]]}, "mesh.rect"),
            ("mesh", {"kind": "rectangle", "nx": 4, "ny": 4, "rect": [[0, 0], [1, "1"]]}, "mesh.rect"),
            ("flux", "p_laplace", "flux"),
            ("flux", {"kind": "p_laplace", "epsilon": "0.1"}, "flux.epsilon"),
            ("flux", {"kind": "p_laplace", "epsilon": -1e-6}, "flux.epsilon"),
            ("flux", {"kind": "custom", "callable": "math:hypot", "c1": 0}, "flux.c1"),
            ("flux", {"kind": "custom", "callable": "math:hypot", "c2": True}, "flux.c2"),
        ],
        ids=["a-str", "rect-one-corner", "rect-str", "flux-str", "epsilon-str",
             "epsilon-negative", "c1-zero", "c2-bool"],
    )
    def test_bad_mesh_or_flux_value_is_named(self, tmp_path, section, value, key):
        path, cfg = write_config(tmp_path, p=3.0)
        cfg[section] = value
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("section, value, key", [case[1:] for case in BAD_MESH_AND_NOISE],
                             ids=[case[0] for case in BAD_MESH_AND_NOISE])
    def test_bad_mesh_or_noise_value_is_named(self, tmp_path, section, value, key):
        path, _ = write_config(tmp_path, **{section: value})
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_loaded_config_shares_nothing_with_the_defaults(self, tmp_path):
        # the config has no solver section and takes moments_q by default
        path, _ = write_config(tmp_path)
        first = load_config(path)
        first["solver"]["max_newton"] = 0
        first["estimators"]["moments_q"].append(4)
        again = load_config(path)
        assert again["solver"]["max_newton"] == 30
        assert again["estimators"]["moments_q"] == [1, 2, 3]

    def test_hash_stable_under_key_order(self, tmp_path):
        path, cfg = write_config(tmp_path)
        shuffled = dict(reversed(list(load_config(path).items())))
        assert config_hash(load_config(path)) == config_hash(shuffled)


class TestCommands:
    def test_run_writes_reports_and_manifest(self, tmp_path):
        path, _ = write_config(tmp_path, n_samples=6, levels=1)
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "estimators.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"]
        manifest = json.loads((out / "manifest.json").read_text())
        # echoed config reparses to an equal config
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(manifest["config"]))
        assert load_config(echo) == manifest["config"]
        assert manifest["config_sha256"] == config_hash(manifest["config"])
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["threads"] == {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }

    def test_run_byte_identical_across_reruns_and_workers(self, tmp_path):
        path, _ = write_config(tmp_path, n_samples=10, levels=1)
        outs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out), "--workers", str(workers)]) == 0
            outs.append((out / "estimators.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_override_changes_output(self, tmp_path):
        path, _ = write_config(tmp_path, n_samples=6, levels=1)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2), "--seed", "777"])
        assert (out1 / "estimators.csv").read_bytes() != (out2 / "estimators.csv").read_bytes()

    def test_indicators_conforming(self, tmp_path):
        path, _ = write_config(tmp_path, levels=3, n_samples=1)
        out = tmp_path / "ind"
        assert main(["indicators", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "indicators.csv").read_text().splitlines()
        s_rows = [r for r in rows if r.split(",")[2] == "S"]
        assert len(s_rows) == 9  # 3 battery functions x 3 levels
        w_vals = [float(r.split(",")[4]) for r in rows if r.split(",")[2] == "W"]
        assert all(v <= 1e-10 for v in w_vals)

    def test_indicators_record_a_failed_evaluation(self, tmp_path, monkeypatch):
        from sgdm import cli

        def failing_T(gd, xi, p):
            raise ValueError("overlap weights over-count")

        monkeypatch.setattr(cli, "indicator_T", failing_T)
        path, _ = write_config(tmp_path, levels=1, n_samples=1)
        out = tmp_path / "ind_fail"
        assert main(["indicators", "--config", str(path), "--out", str(out)]) == 1
        rows = [r.split(",") for r in (out / "indicators.csv").read_text().splitlines()[1:]]
        assert len(rows) == 8  # 3 S, 2 W, 2 T, 1 C_p
        assert [r[4] for r in rows if r[2] == "T"] == ["nan", "nan"]
        assert all(np.isfinite(float(r[4])) for r in rows if r[2] != "T")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] is False and all(summary["checks"].values())
        assert summary["failures"] == [
            {"level": 0, "indicator": "T", "name": name, "error": "ValueError: overlap weights over-count"}
            for name in ("xi=0.5h0", "xi=0.25h0")
        ]

    def test_probe_builtin_passes(self, tmp_path):
        path, _ = write_config(tmp_path, flux={"kind": "p_laplace"}, p=3.0)
        out = tmp_path / "probe"
        assert main(["probe", "--config", str(path), "--out", str(out)]) == 0

    def test_probe_detects_bad_growth_constants(self, tmp_path):
        # identity multiplier with an impossible operator bound must fail
        path, _ = write_config(tmp_path, noise={"k_max": 4, "f0": "identity", "F1": 0.0, "F2": 0.0})
        out = tmp_path / "probe_bad"
        assert main(["probe", "--config", str(path), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["noise"]["violations"] > 0

    def test_probe_detects_anti_monotone_custom_flux(self, tmp_path):
        path, _ = write_config(
            tmp_path, flux={"kind": "custom", "callable": "flux_fixtures:anti_monotone"}
        )
        out = tmp_path / "probe_anti"
        assert main(["probe", "--config", str(path), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flux"]["monotonicity_violations"] > 0

    def test_custom_flux_requires_module_colon_attr(self, tmp_path):
        path, _ = write_config(tmp_path, flux={"kind": "custom", "callable": "nocolon"})
        with pytest.raises(ConfigError, match="flux.callable"):
            load_config(path)

    def test_table_multiplier_config_runs(self, tmp_path):
        table = [[-2.0, 0.1], [0.0, 0.5], [2.0, 0.1]]
        path, _ = write_config(tmp_path, n_samples=4, levels=1, noise={"k_max": 2, "f0": table})
        out = tmp_path / "table"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0

    def test_oracle_passes(self, tmp_path):
        path, _ = write_config(tmp_path, n_samples=4000, time={"T": 0.25, "n_steps": 8})
        out = tmp_path / "oracle"
        assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0

    def test_convergence_stochastic_decreasing(self, tmp_path):
        path, _ = write_config(
            tmp_path, levels=3, n_samples=24,
            flux={"kind": "p_laplace"}, p=3.0,
            mesh={"kind": "interval", "n_cells": 4}, time={"T": 0.25, "n_steps": 4},
        )
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        d = summary["differences"]
        assert len(d) == 2 and d[0] > d[1]

    def test_convergence_noise_free_is_one_path_per_level(self, tmp_path):
        path, _ = write_config(
            tmp_path, levels=3, flux={"kind": "p_laplace"}, p=3.0,
            mesh={"kind": "interval", "n_cells": 4}, time={"T": 0.25, "n_steps": 4},
            noise={"k_max": 4, "f0": "zero"},
        )
        out = tmp_path / "conv0"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["orders"]) == 1
        # each difference against two paths of the noise-free scheme
        cfg = load_config(path)
        levels = build_levels(cfg)
        trajs = [
            run_trajectory(sgd, build_flux(cfg), build_noise_model(cfg, mesh), build_u0(cfg, mesh, gd), 42, 0)
            for mesh, gd, sgd in levels
        ]
        assert len(rows) == 2
        for i, row in enumerate(rows):
            coarse, fine = trajs[i], trajs[i + 1]
            E = coarse.sgd.gd.reconstruction_matrix(fine.sgd.gd.quad_x)
            want = _lp_differences(E, fine.sgd, coarse.u[None], fine.u[None], 3.0)[0]
            assert row[0] == str(i) and float(row[1]) == levels[i][0].h and row[3:] == ["0", "1"]
            assert abs(float(row[2]) - want) <= 1e-13 * want
            assert summary["differences"][i] == float(row[2])

    def test_convergence_records_a_failed_step(self, tmp_path):
        path, _ = write_config(
            tmp_path, n_samples=4, flux={"kind": "p_laplace"}, p=3.0,
            solver={"max_newton": 1, "max_fixed_point": 1},
        )
        for workers in (1, 2):
            out = tmp_path / f"fail{workers}"
            assert main(["convergence", "--config", str(path), "--out", str(out), "--workers", str(workers)]) == 1
            summary = json.loads((out / "summary.json").read_text())
            assert summary["ok"] is False
            (failure,) = summary["failures"]
            assert (failure["pair"], failure["sample"], failure["step"]) == (0, 0, 0)
            assert failure["residual"] > 0.0
            assert (out / "convergence.csv").read_text().splitlines() == ["pair,h_coarse,mean_diff,se,n_samples"]
            assert (out / "manifest.json").exists()

    def test_convergence_byte_identical_across_workers(self, tmp_path):
        path, _ = write_config(
            tmp_path, levels=3, n_samples=20, flux={"kind": "p_laplace"}, p=3.0,
            mesh={"kind": "interval", "n_cells": 4}, time={"T": 0.25, "n_steps": 4},
        )
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main(["convergence", "--config", str(path), "--out", str(out), "--workers", str(workers)]) == 0
            outs.append((out / "convergence.csv").read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 3

    def test_bad_config_exit_code(self, tmp_path):
        path, _ = write_config(tmp_path, n_samples=0)
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "overrides, argv",
        [
            pytest.param({"n_samples": "10"}, [], id="n_samples-str"),
            pytest.param({"p": "3"}, [], id="p-str"),
            pytest.param({"levels": 1.5}, [], id="levels-float"),
            pytest.param({"levels": True}, [], id="levels-bool"),
            pytest.param({"time": {"n_steps": 4.5}}, [], id="n_steps-float"),
            pytest.param({"noise": {"k_max": 2.0}}, [], id="k_max-float"),
            pytest.param({"master_seed": -1}, [], id="master_seed-negative"),
            pytest.param({}, ["--seed", "-1"], id="seed_flag-negative"),
            pytest.param({"estimators": {"dual_r": 3}}, [], id="dual_r-not-power-of-two"),
            pytest.param({"estimators": {"beta": 0.7}}, [], id="beta-too-large"),
            pytest.param({"solver": {"max_newton": -1}}, [], id="max_newton-negative"),
            pytest.param({"estimators": {"moments_q": [1.5]}}, [], id="moments_q-float"),
            pytest.param({"estimators": {"translate_ells": ["2"]}}, [], id="translate_ells-str"),
            pytest.param({"estimators": {"dual_ells": [0]}}, [], id="dual_ells-zero"),
            pytest.param({"estimators": {"dual_ells": [True]}}, [], id="dual_ells-bool"),
            pytest.param({"estimators": {"moments_q": 2}}, [], id="moments_q-not-a-list"),
            pytest.param({"p": 3.0, "flux": {"kind": "p_laplace", "epsilon": "0.1"}}, [], id="epsilon-str"),
            *(pytest.param({section: value}, [], id=name) for name, section, value, _ in BAD_MESH_AND_NOISE),
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, overrides, argv):
        # a wrong type or range is reported as a config error, not a traceback
        path, _ = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), *argv]) == 2
