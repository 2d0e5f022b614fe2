"""Command-line tests: formats, exit codes, manifests, reproducibility."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from hejdstep import ConfigError, PathConfig, mc_euro_step_price, price_summary, pricing
from hejdstep.cli import main
from hejdstep.config import config_values, parse_config, parse_config_text

KOU_CONFIG = """\
# lambda-ladder market, step contract
r = 0.05
delta = 0.07
sigma = 0.2
lambda = 1.0
p = 0.7
xi = 25.0
q = 0.3
eta = 50.0
K = 100
L = 95
rho_L = -26.34
gamma_L = 0
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "kou.cfg"
    path.write_text(KOU_CONFIG)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _library_euro(config_path: str) -> float:
    from hejdstep import price_time_domain
    from hejdstep.config import parse_config

    model, spec = parse_config(config_path)
    return price_time_domain(model, spec, 1.0, 100.0, "euro")


class TestPrice:
    def test_text_three_decimals(self, capsys, config_path):
        code, out = run_cli(capsys, "price", config_path, "--t", "1", "--x", "100",
                            "--quantity", "euro")
        assert code == 0
        assert out.strip() == "euro  4.597"

    def test_all_quantities_layout(self, capsys, config_path):
        code, out = run_cli(capsys, "price", config_path, "--t", "1", "--x", "100",
                            "--quantity", "all")
        assert code == 0
        lines = dict(l.split() for l in out.strip().splitlines())
        assert float(lines["euro"]) == pytest.approx(4.597, abs=5e-4)
        assert float(lines["amer"]) == pytest.approx(4.789, abs=5e-4)
        assert float(lines["dc%"]) == pytest.approx(91.71, abs=0.01)

    def test_json_embeds_manifest_and_full_precision(self, capsys, config_path):
        code, out = run_cli(capsys, "price", config_path, "--t", "1", "--x", "100",
                            "--quantity", "euro", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["quantity"] == "euro"
        assert doc["value"] == _library_euro(config_path)  # lossless, not 3 decimals
        assert doc["manifest"]["model"]["lambda"] == 1.0
        assert doc["manifest"]["contract"]["rho_L"] == -26.34
        assert doc["manifest"]["gs_order"] == 7

    def test_csv_roundtrip(self, capsys, config_path):
        code, out = run_cli(capsys, "price", config_path, "--t", "1", "--x", "100",
                            "--quantity", "euro", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["value"]) == _library_euro(config_path)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_all_reports_the_whole_summary(self, capsys, config_path, fmt):
        # the premium split (diffusion and jump parts) is printed with the rest
        code, out = run_cli(capsys, "price", config_path, "--t", "1", "--x", "100",
                            "--quantity", "all", "--format", fmt)
        assert code == 0
        model, spec = parse_config(config_path)
        want = price_summary(model, spec, 1.0, 100.0)
        if fmt == "text":
            lines = dict(l.split() for l in out.strip().splitlines())
            assert list(lines) == ["euro", "amer", "eep", "eep_diffusion", "eep_jump", "eep%", "dc%"]
            assert lines["eep_diffusion"] == f"{want['eep_diffusion']:.3f}"
            assert lines["eep_jump"] == f"{want['eep_jump']:.3f}"
            return
        if fmt == "json":
            got = json.loads(out)
            got.pop("manifest")
        else:
            (got,) = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out))]
        assert got == want

    def test_zero_spot_zero_everywhere(self, capsys, config_path):
        code, out = run_cli(capsys, "price", config_path, "--t", "1", "--x", "0",
                            "--quantity", "all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["euro"] == 0.0 and doc["amer"] == 0.0 and doc["eep"] == 0.0

    def test_manifest_written_next_to_out(self, capsys, config_path, tmp_path):
        out_file = tmp_path / "price.csv"
        code, _ = run_cli(capsys, "price", config_path, "--t", "1", "--x", "100",
                          "--format", "csv", "--out", str(out_file))
        assert code == 0
        manifest = json.loads((tmp_path / "price.csv.manifest.json").read_text())
        assert manifest["command"] == "price"
        assert manifest["parameters"]["x"] == 100.0

    def test_rerun_bit_identical(self, capsys, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "price", config_path, "--t", "1", "--x", "100", "--format", "csv", "--out", str(a))
        run_cli(capsys, "price", config_path, "--t", "1", "--x", "100", "--format", "csv", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_config_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("r = 0.05\nunknown_key = 3\n")
        code = main(["price", str(bad), "--t", "1", "--x", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown key" in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["price", "/nonexistent.cfg", "--t", "1", "--x", "100"]) == 2

    def test_numerical_error_exit_3(self, capsys, tmp_path):
        # zero dividend yield: the American boundary search must fail
        cfg = tmp_path / "nodiv.cfg"
        cfg.write_text(KOU_CONFIG.replace("delta = 0.07", "delta = 0.0"))
        code = main(["price", str(cfg), "--t", "1", "--x", "100", "--quantity", "amer"])
        assert code == 3

    def test_non_finite_spot_exit_2(self, capsys, config_path):
        code = main(["price", config_path, "--t", "1", "--x", "nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: spot must be finite")

    @pytest.mark.parametrize("argv, message", [
        (["price", "--t", "1", "--x", "-1"], "spot must be finite and non-negative, got -1.0"),
        (["price", "--t", "-1", "--x", "100"], "t must be finite and strictly positive, got -1.0"),
        (["price", "--t", "nan", "--x", "100"], "t must be finite and strictly positive, got nan"),
        (["price", "--t", "1", "--x", "100", "--gs-order", "11"], "order must lie in [1, 10], got 11"),
        (["price", "--t", "1", "--x", "100", "--gs-order", "0"], "order must lie in [1, 10], got 0"),
        (["roots", "--alpha", "-1"], "alpha must be strictly positive"),
        # at x = 0 the price is zero, but only once every input is checked
        (["price", "--t", "-1", "--x", "0", "--quantity", "all"], "t must be finite and strictly positive, got -1.0"),
        (["price", "--t", "nan", "--x", "0"], "t must be finite and strictly positive, got nan"),
        (["price", "--t", "1", "--x", "0", "--gs-order", "11"], "order must lie in [1, 10], got 11"),
    ])
    def test_invalid_argument_exit_2(self, capsys, config_path, argv, message):
        # an invalid value on the command line is an input error, not a numerical one
        code = main([argv[0], config_path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["roots", "--alpha", "1"], ["price", "--t", "1", "--x", "100"]])
    def test_underflowing_sigma_exit_2(self, capsys, tmp_path, argv):
        tiny = tmp_path / "tiny.cfg"
        tiny.write_text("r = 0.05\ndelta = 0.07\nsigma = 1e-200\nlambda = 0\nK = 100\n")
        code = main([argv[0], str(tiny), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {tiny}: sigma**2 underflows to zero at sigma = 1e-200\n"

    @pytest.mark.parametrize("bump", ["0", "-1e-3", "inf", "nan"])
    def test_bump_must_be_finite_and_positive(self, capsys, config_path, bump):
        code = main(["greeks", config_path, "--t", "1", "--x-lo", "98", "--x-hi", "102",
                     "--n", "3", f"--bump={bump}"])
        assert code == 2
        assert "bump" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unwritable_out_exit_2(self, capsys, config_path, tmp_path, fmt):
        out_file = tmp_path / "missing" / "x.txt"
        code = main(["price", config_path, "--t", "1", "--x", "100", "--format", fmt, "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        if fmt == "json":
            error = json.loads(captured.out)["error"]
            assert error["type"] == "ConfigError" and error["exit_code"] == 2
            message = error["message"]
        else:
            assert captured.out == "" and captured.err.count("\n") == 1
            message = captured.err
        assert f"cannot write output {out_file}" in message

    def test_negative_seed_named(self, capsys, config_path):
        # invalid simulation settings are configuration errors
        for setting, message in (
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["--paths", "5000"], "n_paths must be at least 10_000"),
            (["--dt", "0.01"], "dt must lie in (0, 1e-3] years"),
        ):
            code = main(["verify", config_path, "--t", "0.05", "--x", "100", "--paths", "10000", *setting])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("grid, message", [
        (["--x-lo", "102", "--x-hi", "98", "--n", "3"], "need x_lo < x_hi"),
        (["--x-lo", "98", "--x-hi", "98", "--n", "3"], "need x_lo < x_hi"),
        (["--x-lo", "98", "--x-hi", "102", "--n", "2"], "need at least 3 grid points"),
        # a zero spot has a zero bump: no central difference
        (["--x-lo", "0", "--x-hi", "10", "--n", "3"], "need a positive x_lo, got 0.0"),
        (["--x-lo", "-5", "--x-hi", "10", "--n", "3"], "need a positive x_lo, got -5.0"),
    ])
    def test_greeks_grid_must_be_valid(self, capsys, config_path, grid, message):
        assert main(["greeks", config_path, "--t", "1", *grid]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_json_error_field(self, capsys, tmp_path):
        cfg = tmp_path / "nodiv.cfg"
        cfg.write_text(KOU_CONFIG.replace("delta = 0.07", "delta = 0.0"))
        code = main(["price", str(cfg), "--t", "1", "--x", "100",
                     "--quantity", "amer", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["error"]["exit_code"] == 3
        assert doc["error"]["type"] == "NoBoundaryError"

    def test_engine_error_reads_as_one_sentence(self, capsys, monkeypatch, config_path):
        # a European system with an infinite entry fails its solve check at
        # the first abscissa, and the message names that abscissa
        assemble = pricing._assemble

        def poisoned(sol, u):
            Q, q, q0, qJ, cols = assemble(sol, u)
            if sol.coef is None:  # the European system
                Q[:, 1, 2] = math.inf
            return Q, q, q0, qJ, cols

        monkeypatch.setattr(pricing, "_assemble", poisoned)
        pricing.solve_european_mr.cache_clear()
        pricing.solve_american_mr.cache_clear()
        argv = ["price", config_path, "--t", "1", "--x", "100"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "('" not in err and "theta=" in err
        assert main(argv + ["--format", "json"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "SingularSystemError"
        assert "('" not in error["message"] and "theta=" in error["message"]

    def test_boundary_search_cap_exit_3(self, capsys, monkeypatch, config_path):
        # Brent's method stopped at its step cap: a typed error and exit 3
        monkeypatch.setattr(pricing, "_BRENT_MAXITER", 1)
        pricing.solve_american_mr.cache_clear()
        argv = ["price", config_path, "--t", "1", "--x", "100", "--quantity", "amer", "--format", "json"]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConvergenceError"
        assert error["message"].startswith("american boundary search: ")
        assert "log-boundary bracket [" in error["message"] and "theta=" in error["message"]


class TestConfigFile:
    @pytest.mark.parametrize("edit, message", [
        (("r = 0.05", "r = abc"), "cannot parse numeric value(s) from ' abc'"),
        (("r = 0.05", "r 0.05"), "<config>:2: expected 'key = value', got 'r 0.05'"),
        (("r = 0.05", "r = 0.05\nr = 0.06"), "<config>:3: duplicate key 'r'"),
        (("K = 100", ""), "<config>: missing required key 'K'"),
        (("sigma = 0.2", "sigma = 0.2 0.3"), "<config>: key 'sigma' must hold a single value"),
        (("sigma = 0.2", "sigma = 0"), "<config>: sigma must be strictly positive"),
        (("L = 95", "L = 110"), "<config>: need 0 <= barrier <= strike < inf"),
    ])
    def test_faults_raise_config_error(self, edit, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(KOU_CONFIG.replace(*edit))
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        pytest.param(KOU_CONFIG, id="kou"),
        pytest.param("r = 0.05\ndelta = 0.07\nsigma = 0.2\nlambda = 10\np[] = 0.2, 0.15, 0.1\nxi = 10 25 50\n"
                     "q = 0.25 0.2 0.1\neta = 8 20 45\nK = 100\nL = 95\nrho_L = -26.34\ngamma_L = 0.05\n", id="m3n3"),
        # L, rho_L and gamma_L left out: a zero barrier, no knock rate, no seasoning
        pytest.param("r = 0.05\ndelta = 0.07\nsigma = 0.2\nlambda = 0\nK = 100\n", id="zero-barrier"),
    ])
    def test_config_values_round_trip(self, capsys, tmp_path, text):
        model, spec = parse_config_text(text)
        written = "".join(f"{key} = {' '.join(map(repr, v)) if isinstance(v, list) else repr(v)}\n"
                          for obj in (model, spec) for key, v in config_values(obj).items())
        assert parse_config_text(written) == (model, spec)
        path = tmp_path / "market.cfg"
        path.write_text(text)
        assert main(["price", str(path), "--t", "1", "--x", "100", "--format", "json"]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert (manifest["model"], manifest["contract"]) == (config_values(model), config_values(spec))
        assert config_values(None) == {}

    @pytest.mark.parametrize("edits, key", [
        ((("sigma = 0.2", "sigma = 0.2 0.3"), ("r = 0.05", "r = 0.05 0.06")), "r"),
        ((("gamma_L = 0", "gamma_L = 0 1"), ("K = 100", "K = 100 110")), "K"),
    ])
    def test_single_value_check_runs_in_key_order(self, edits, key):
        # the first offending key in the order r, delta, sigma, lambda, K, L,
        # rho_L, gamma_L is named, wherever the file puts it
        text = KOU_CONFIG
        for edit in edits:
            text = text.replace(*edit)
        with pytest.raises(ConfigError, match=f"key '{key}' must hold a single value"):
            parse_config_text(text)


class TestJson:
    @pytest.mark.parametrize("argv, undefined", [
        pytest.param(["price", "CFG", "--t", "1", "--x", "0", "--quantity", "all"], ("eep_pct", "dc_pct"),
                     id="price"),
        # every payoff of both sides is zero, and so are both standard errors
        pytest.param(["verify", "CFG", "--t", "0.05", "--x", "0.001", "--paths", "10000"],
                     ("z_engine_vs_mc", "z_duality"), id="verify"),
    ])
    def test_non_finite_values_are_null(self, capsys, config_path, argv, undefined):
        argv = [config_path if a == "CFG" else a for a in argv]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert all(doc[key] is None for key in undefined)


class TestOutputFiles:
    """csv/text written to --out get a sibling <out>.manifest.json; JSON
    embeds the manifest and gets none."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["table", "1"], id="table"),
        pytest.param(["greeks", "CFG", "--t", "1", "--x-lo", "98", "--x-hi", "102", "--n", "3"], id="greeks"),
        pytest.param(["roots", "CFG", "--alpha", "5.05"], id="roots-text"),
        pytest.param(["verify", "CFG", "--t", "0.05", "--x", "100", "--paths", "10000"], id="verify-text"),
        pytest.param(["verify", "CFG", "--t", "0.05", "--x", "100", "--paths", "10000", "--format", "csv"],
                     id="verify-csv"),
    ])
    def test_sibling_manifest(self, capsys, config_path, tmp_path, argv):
        out_file = tmp_path / "result"
        argv = [config_path if a == "CFG" else a for a in argv] + ["--out", str(out_file)]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        body = out_file.read_text()
        assert body.strip() and "created_utc" not in body
        manifest = json.loads((tmp_path / "result.manifest.json").read_text())
        assert manifest["command"] == argv[0]

    @pytest.mark.parametrize("argv, gs_order, parameters", [
        pytest.param(["table", "1"], 7, {"table_id": 1}, id="table"),
        pytest.param(["greeks", "CFG", "--t", "1", "--x-lo", "98", "--x-hi", "102", "--n", "3"], 7,
                     {"t": 1.0, "x_lo": 98.0, "x_hi": 102.0, "n": 3, "quantity": "euro", "bump": 1e-3,
                      "diff_against": None}, id="greeks"),
        pytest.param(["roots", "CFG", "--alpha", "5.05"], None, {"alpha": 5.05, "format": "text"}, id="roots"),
        pytest.param(["verify", "CFG", "--t", "0.05", "--x", "100", "--paths", "10000", "--gs-order", "6"], 6,
                     {"t": 0.05, "x": 100.0, "paths": 10_000, "dt": 1e-3, "seed": 0, "format": "text"},
                     id="verify"),
    ])
    def test_manifest_holds_every_parsed_argument(self, capsys, config_path, tmp_path, argv, gs_order,
                                                  parameters):
        # roots has no inversion order: its manifest says so with null
        out_file = tmp_path / "result"
        argv = [config_path if a == "CFG" else a for a in argv] + ["--out", str(out_file)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "result.manifest.json").read_text())
        assert manifest["gs_order"] == gs_order
        assert manifest["parameters"] == parameters

    def test_json_embeds_manifest_without_sibling(self, capsys, config_path, tmp_path):
        out_file = tmp_path / "roots.json"
        assert main(["roots", config_path, "--alpha", "5.05", "--format", "json", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["manifest"]["command"] == "roots"
        assert len(doc["roots"]) == 4
        assert not (tmp_path / "roots.json.manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["roots", "CFG", "--alpha", "5.05", "--format", "json"], id="roots-json"),
        pytest.param(["price", "CFG", "--t", "1", "--x", "100", "--quantity", "euro", "--format", "json"],
                     id="price-json"),
        pytest.param(["price", "CFG", "--t", "1", "--x", "100", "--quantity", "euro", "--format", "csv"],
                     id="price-csv"),
        pytest.param(["roots", "CFG", "--alpha", "5.05"], id="roots-text"),
    ])
    def test_files_end_in_newline_like_stdout(self, capsys, config_path, tmp_path, argv):
        argv = [config_path if a == "CFG" else a for a in argv]
        fmt = argv[-1] if "--format" in argv else "text"
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out_file = tmp_path / "roots.out"
        assert main(argv + ["--out", str(out_file)]) == 0
        body = out_file.read_text()
        assert body.endswith("\n") and not body.endswith("\n\n")
        if fmt == "json":
            drop = lambda doc: {**doc, "manifest": None}  # timestamps differ
            assert drop(json.loads(body)) == drop(json.loads(stdout))
        else:
            assert body == stdout
            assert (tmp_path / "roots.out.manifest.json").read_text().endswith("}\n")


class TestRoots:
    def test_text_lists_all_roots(self, capsys, config_path):
        code, out = run_cli(capsys, "roots", config_path, "--alpha", "5.05")
        assert code == 0
        assert out.count("beta[") == 2 and out.count("gamma[") == 2

    def test_json_brackets(self, capsys, config_path):
        code, out = run_cli(capsys, "roots", config_path, "--alpha", "5.05", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["roots"]) == 4
        betas = [r for r in doc["roots"] if r["kind"] == "beta"]
        assert betas[0]["bracket_hi"] == 25.0


class TestTable:
    def test_table1_lambda_ladder(self, capsys):
        code, out = run_cli(capsys, "table", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        last = rows[-1]  # lambda = 1e-4
        assert float(last["step_euro"]) == pytest.approx(4.510, abs=2e-3)
        assert float(last["standard_euro"]) == pytest.approx(6.598, abs=2e-3)
        first = rows[0]  # lambda = 1
        assert float(first["step_euro"]) == pytest.approx(4.596, abs=2e-3)
        assert float(first["step_dc_pct"]) == pytest.approx(91.71, abs=0.05)

    def test_invalid_table_id(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestGreeks:
    def test_gamma_consistent_with_emitted_prices(self, capsys, config_path):
        code, out = run_cli(capsys, "greeks", config_path, "--t", "1",
                            "--x-lo", "98", "--x-hi", "102", "--n", "3",
                            "--quantity", "euro", "--bump", "1e-3")
        assert code == 0
        rows = [dict((k, float(v)) for k, v in r.items()) for r in csv.DictReader(io.StringIO(out))]
        for row in rows:
            assert 0.0 <= row["delta"] <= 1.05
            assert math.isfinite(row["gamma"])
        # definition check at the middle node with its own bump
        x = rows[1]["x"]
        h = 1e-3 * x
        from hejdstep import DownOutStepSpec, HejdModel, price_time_domain
        from hejdstep.config import parse_config

        model, spec = parse_config(config_path)
        fp = price_time_domain(model, spec, 1.0, x + h, "euro")
        fm = price_time_domain(model, spec, 1.0, x - h, "euro")
        f0 = price_time_domain(model, spec, 1.0, x, "euro")
        assert rows[1]["gamma"] == pytest.approx((fp - 2 * f0 + fm) / (h * h), rel=1e-9)
        assert rows[1]["delta"] == pytest.approx((fp - fm) / (2 * h), rel=1e-9)

    def test_diff_against_vanishing_jumps(self, capsys, tmp_path):
        tiny = tmp_path / "tiny.cfg"
        tiny.write_text(KOU_CONFIG.replace("lambda = 1.0", "lambda = 1e-12"))
        none = tmp_path / "none.cfg"
        none.write_text(
            "r = 0.05\ndelta = 0.07\nsigma = 0.2\nlambda = 0\nK = 100\nL = 95\nrho_L = -26.34\n"
        )
        code, out = run_cli(capsys, "greeks", str(tiny), "--t", "1",
                            "--x-lo", "85", "--x-hi", "115", "--n", "5",
                            "--quantity", "euro", "--diff-against", str(none))
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            assert abs(float(row["value"])) < 1e-3
            assert abs(float(row["delta"])) < 1e-3


class TestDiffusionLimitConsistency:
    def test_eep_matches_no_jump_premium(self, capsys, tmp_path):
        # vanishing jumps with an inert knock rate: the premium must agree
        # with the American-minus-European of the pure-diffusion model
        tiny = tmp_path / "tiny.cfg"
        tiny.write_text(
            "r = 0.05\ndelta = 0.07\nsigma = 0.2\nlambda = 1e-12\n"
            "p = 0.7\nxi = 25\nq = 0.3\neta = 50\nK = 100\nL = 95\nrho_L = 0\n"
        )
        code, out = run_cli(capsys, "price", str(tiny), "--t", "1", "--x", "100",
                            "--quantity", "eep", "--format", "json")
        assert code == 0
        eep = json.loads(out)["value"]

        from hejdstep import DownOutStepSpec, HejdModel, price_time_domain
        bs = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=0.0)
        spec = DownOutStepSpec(100.0, 95.0, 0.0)
        want = (price_time_domain(bs, spec, 1.0, 100.0, "amer")
                - price_time_domain(bs, spec, 1.0, 100.0, "euro"))
        assert eep == pytest.approx(want, rel=5e-3)


class TestVerify:
    def test_report_and_determinism(self, capsys, config_path):
        args = ("verify", config_path, "--t", "0.25", "--x", "100",
                "--paths", "20000", "--seed", "3", "--format", "json")
        code, out1 = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out1)
        assert abs(doc["z_engine_vs_mc"]) < 4.0
        assert abs(doc["z_duality"]) < 4.0
        # the reported MC estimate is the duality check's call side, and it is
        # the estimate mc_euro_step_price gives for the same configuration
        assert doc["mc_euro"] == doc["duality_call"]
        model, spec = parse_config(config_path)
        direct = mc_euro_step_price(model, spec, 0.25, 100.0, PathConfig(n_paths=20_000, seed=3))
        assert (doc["mc_euro"], doc["mc_se"]) == (direct.value, direct.std_error)
        _, out2 = run_cli(capsys, *args)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("manifest"), d2.pop("manifest")  # timestamps differ
        assert d1 == d2
