import dataclasses

import numpy as np
import pytest

from evebounds.checks import format_report
from evebounds.cli import CSV_HEADER, ScanConfig, main, parse_config, run_scan, write_csv


def read(path):
    return path.read_bytes()


class TestConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert cfg.tau_steps == 50
        assert cfg.nbars == [0.01, 0.02]
        assert cfg.methods == ["eb", "bm-get", "bm-gme"]

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            ScanConfig(tau_min=-0.1)
        with pytest.raises(ValueError, match="tau-steps"):
            ScanConfig(tau_steps=0)
        with pytest.raises(ValueError, match="methods"):
            ScanConfig(methods=["bogus"])
        with pytest.raises(ValueError, match="methods"):
            ScanConfig(methods=[])
        with pytest.raises(ValueError, match="nbar"):
            ScanConfig(nbars=[-0.1])

    @pytest.mark.parametrize("kwargs, flag", [
        (dict(nbars=[0.01, 0.02, 0.01]), "--nbar values must be distinct"),
        (dict(nbars=[0.0, -0.0]), "--nbar values must be distinct"),
        (dict(methods=["eb", "eb"]), "--methods must not repeat"),
        (dict(tau_min=0.5, tau_max=0.5), "--tau-steps must be 1 when --tau-min equals --tau-max, got 50"),
        (dict(tau_min=1.0, tau_max=1.0, tau_steps=2), "--tau-steps must be 1 .* got 2"),
        (dict(tau_min=0.5, tau_max=0.5000000000000001, tau_steps=3),
         "taus of --tau-min, --tau-max and --tau-steps print alike at 12 digits: 0.5 repeats"),
        (dict(nbars=[0.01, 0.010000000000000002]), "--nbar values print alike at 12 digits: 0.01 repeats"),
    ])
    def test_repeated_cells_rejected(self, kwargs, flag):
        # each would print some rows twice
        with pytest.raises(ValueError, match=flag):
            ScanConfig(**kwargs)

    # 18.5 used to fail only inside run_scan, 2.5 with numpy's TypeError,
    # and True ran a 1-step scan
    @pytest.mark.parametrize("kwargs, message", [
        (dict(cutoff=18.5, methods=["oracle"]), "--cutoff must be an integer, got 18.5"),
        (dict(cutoff=True, methods=["oracle"]), "--cutoff must be an integer, got True"),
        (dict(tau_steps=2.5), "--tau-steps must be an integer, got 2.5"),
        (dict(tau_steps=True), "--tau-steps must be an integer, got True"),
    ], ids=["float-cutoff", "bool-cutoff", "float-tau-steps", "bool-tau-steps"])
    def test_integer_fields_rejected_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ScanConfig(**kwargs)

    def test_numpy_integer_fields_accepted(self):
        cfg = ScanConfig(tau_steps=np.int64(3), cutoff=np.int64(13), nbars=[0.01], methods=["oracle"])
        assert run_scan(cfg) == run_scan(ScanConfig(tau_steps=3, cutoff=13, nbars=[0.01], methods=["oracle"]))

    def test_single_tau_accepted(self):
        assert ScanConfig(tau_min=0.5, tau_max=0.5, tau_steps=1).tau_grid().tolist() == [0.5]

    def test_flag_parsing(self):
        cfg = parse_config(
            [
                "--tau-min", "0.1", "--tau-max", "0.9", "--tau-steps", "3",
                "--nbar", "0.01", "--nbar", "0.02", "--alpha", "0.7",
                "--methods", "bm-get,bm-gme",
                "--log-base", "nats", "--cutoff", "10", "--out", "x.csv",
            ]
        )
        assert cfg.tau_steps == 3
        assert cfg.nbars == [0.01, 0.02]
        assert cfg.methods == ["bm-get", "bm-gme"]
        assert cfg.log_base == "nats"

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "scan.conf"
        conf.write_text(
            "# scan settings\n"
            "tau-min = 0.2\n"
            "tau-max = 0.8\n"
            "tau-steps = 2\n"
            "nbar = 0.01,0.05\n"
            "methods = bm-get\n"
            "alpha = 0.5  # small modulation\n"
        )
        cfg = parse_config(["--config", str(conf), "--alpha", "0.9"])
        assert cfg.tau_min == 0.2
        assert cfg.nbars == [0.01, 0.05]
        assert cfg.methods == ["bm-get"]
        assert cfg.alpha == 0.9  # flag wins

    def test_config_file_diagnostics(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("tau-min 0.2\n")
        with pytest.raises(ValueError, match="bad.conf:1"):
            parse_config(["--config", str(conf)])
        conf.write_text("zau-min = 0.2\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(["--config", str(conf)])

    def test_missing_config_file_is_one_line(self, tmp_path):
        missing = tmp_path / "missing.conf"
        with pytest.raises(ValueError) as err:
            parse_config(["--config", str(missing)])
        assert str(err.value) == f"config file {missing}: No such file or directory"

    def test_config_file_not_utf8(self, tmp_path):
        conf = tmp_path / "latin.conf"
        conf.write_bytes(b"alpha = 0.5 # \xe9\n")
        with pytest.raises(ValueError) as err:
            parse_config(["--config", str(conf)])
        assert str(err.value).startswith(f"config file {conf}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("yes", True), ("0", False), ("False", False), ("NO", False),
    ])
    def test_config_check_key(self, tmp_path, value, expected):
        conf = tmp_path / "check.conf"
        conf.write_text(f"check = {value}\n")
        assert parse_config(["--config", str(conf)]).check is expected

    def test_config_check_key_rejects_other_words(self, tmp_path):
        # a value the gate cannot read must not silently turn it off
        conf = tmp_path / "check.conf"
        conf.write_text("check = on\n")
        with pytest.raises(ValueError) as err:
            parse_config(["--config", str(conf)])
        assert str(err.value) == (
            f"config file {conf}: check must be one of 1/true/yes/0/false/no, got 'on'"
        )

    def test_gram_variant_is_no_option(self, tmp_path):
        # bm-gme has one Gram rule; neither the config key nor the flag
        # selects another
        conf = tmp_path / "variant.conf"
        conf.write_text("gram_variant = pure-exact\n")
        with pytest.raises(ValueError) as err:
            parse_config(["--config", str(conf)])
        assert str(err.value) == f"config file {conf}: unknown key 'gram_variant'"
        with pytest.raises(SystemExit) as exit_info:
            parse_config(["--gram-variant", "pure-exact"])
        assert exit_info.value.code == 2


class TestScan:
    def test_single_row_trivial(self):
        cfg = ScanConfig(tau_min=1.0, tau_max=1.0, tau_steps=1, nbars=[0.01], methods=["bm-get"])
        rows = run_scan(cfg)
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[0] == "1"
        assert fields[3] == "bm-get"
        assert fields[5] == "0"
        assert fields[7] == "ok"

    def test_single_row_trivial_all_methods(self):
        # tau = 1: the eavesdropper learns nothing, and the estimators that
        # are exact there print a plain 0, with no sign and no round-off
        methods = ["eb", "bm-get", "bm-gme", "oracle"]
        cfg = ScanConfig(tau_min=1.0, tau_max=1.0, tau_steps=1, nbars=[0.01], methods=methods)
        rows = [row.split(",") for row in run_scan(cfg)]
        assert len(rows) == len(methods)
        assert all(fields[0] == "1" and fields[7] == "ok" for fields in rows)
        entropies = {fields[3]: fields[5] for fields in rows}
        assert sorted(entropies) == sorted(methods)
        for method in ("bm-get", "bm-gme", "oracle"):
            assert entropies[method] == "0"

    def test_zero_transmittance_row(self):
        # tau = 0: every method is finite; at nbar = 0 the eavesdropper holds
        # the pure coherent ensemble, whose entropy bm-gme gives exactly
        cfg = ScanConfig(tau_min=0.0, tau_max=0.0, tau_steps=1, nbars=[0.0],
                         methods=["eb", "bm-get", "bm-gme", "oracle"])
        rows = {row.split(",")[3]: row.split(",") for row in run_scan(cfg)}
        assert all(fields[0] == "0" and fields[7] == "ok" for fields in rows.values())
        values = {method: float(fields[5]) for method, fields in rows.items()}
        assert values["eb"] == pytest.approx(2.0, abs=1e-9)
        assert values["bm-get"] == pytest.approx(2.0, abs=1e-9)
        assert values["bm-gme"] == pytest.approx(1.7579584, abs=1e-6)
        assert values["oracle"] == pytest.approx(values["bm-gme"], abs=1e-6)

    def test_header_and_shape(self, tmp_path):
        assert CSV_HEADER == "tau,nbar,alpha,method,variant,entropy,log_base,status"
        cfg = ScanConfig(tau_steps=3, nbars=[0.01], methods=["bm-get", "bm-gme"])
        out = tmp_path / "scan.csv"
        write_csv(run_scan(cfg), str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        assert b"\r" not in out.read_bytes()

    def test_rows_ordered(self):
        cfg = ScanConfig(tau_steps=2, nbars=[0.02, 0.01], methods=["bm-gme", "bm-get"])
        rows = run_scan(cfg)
        keys = [(float(r.split(",")[1]), float(r.split(",")[0]), r.split(",")[3]) for r in rows]
        assert keys == sorted(keys)

    @staticmethod
    def _assert_ordering_rowwise(alpha):
        cfg = ScanConfig(tau_steps=5, nbars=[0.01], alpha=alpha, methods=["eb", "bm-get", "bm-gme"])
        rows = run_scan(cfg)
        by_point = {}
        for row in rows:
            f = row.split(",")
            assert f[7] == "ok"
            by_point.setdefault(f[0], {})[f[3]] = float(f[5])
        for values in by_point.values():
            assert values["bm-gme"] <= values["bm-get"] + 1e-9
            assert values["bm-get"] <= values["eb"] + 1e-9

    def test_ordering_holds_rowwise(self):
        self._assert_ordering_rowwise(1.0)

    def test_ordering_holds_rowwise_alpha_4(self):
        # at alpha = 4 a 41-level truncated Fock space no longer resolves the
        # purification behind eb's Z4 (it leaks past alpha ~ 3.4)
        self._assert_ordering_rowwise(4.0)

    def test_oracle_row_and_nonconvergence(self):
        cfg = ScanConfig(tau_min=0.5, tau_max=0.5, tau_steps=1, nbars=[0.01],
                         methods=["oracle", "bm-get"], cutoff=15)
        rows = run_scan(cfg)
        oracle = [r for r in rows if ",oracle," in r][0].split(",")
        get = [r for r in rows if ",bm-get," in r][0].split(",")
        assert oracle[7] == "ok"
        assert float(oracle[5]) <= float(get[5]) + 1e-6
        # absurd amplitude at a tiny cutoff cannot converge
        bad = ScanConfig(tau_min=0.5, tau_max=0.5, tau_steps=1, nbars=[0.01],
                         methods=["oracle"], alpha=2.2, cutoff=7)
        row = run_scan(bad)[0].split(",")
        assert row[5] == ""
        assert row[7] == "not-converged"

    # A field changed after the config is built is scanned and labelled as
    # changed: the labels once came from texts made at construction, so
    # tau_min = 0.5 printed the tau = 0.5 values under 0.02, and an nbar
    # appended in place was scanned but its rows dropped.
    @pytest.mark.parametrize("change, fresh", [
        (lambda cfg: setattr(cfg, "tau_min", 0.5), dict(tau_min=0.5)),
        (lambda cfg: setattr(cfg, "nbars", [0.5]), dict(nbars=[0.5])),
        (lambda cfg: cfg.nbars.append(0.5), dict(nbars=[0.01, 0.5])),
    ], ids=["tau-min-set", "nbars-set", "nbar-appended"])
    def test_field_changed_after_build_is_labelled_anew(self, change, fresh):
        cfg = ScanConfig(tau_steps=2, nbars=[0.01])
        assert vars(cfg).keys() == {f.name for f in dataclasses.fields(ScanConfig)}  # no derived state
        change(cfg)
        assert run_scan(cfg) == run_scan(ScanConfig(**{"tau_steps": 2, "nbars": [0.01], **fresh}))

    def test_nats_rows_scale_by_ln2(self):
        import math

        base = dict(tau_min=0.4, tau_max=0.4, tau_steps=1, nbars=[0.01], methods=["bm-get"])
        bits = float(run_scan(ScanConfig(**base))[0].split(",")[5])
        nats_row = run_scan(ScanConfig(log_base="nats", **base))[0].split(",")
        assert nats_row[6] == "nats"
        assert float(nats_row[5]) == pytest.approx(bits * math.log(2), rel=1e-10)

    def test_one_stacked_ensemble_per_scan(self, monkeypatch):
        from evebounds import bounds, cli, cloner

        builds = []
        original = cloner.displaced_thermal_ensemble

        def counting(constellation, params):
            builds.append(params)
            return original(constellation, params)

        for module in (cli, bounds, cloner):
            monkeypatch.setattr(module, "displaced_thermal_ensemble", counting, raising=False)
        run_scan(ScanConfig())
        # one build stacked over 2 nbars x 50 taus, shared by bm-get and bm-gme
        assert [len(cells) for cells in builds] == [100]
        builds.clear()
        run_scan(ScanConfig(methods=["bm-gme"]))
        assert [len(cells) for cells in builds] == [100]
        builds.clear()
        run_scan(ScanConfig(methods=["eb"]))
        assert builds == []


class TestMain:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--tau-steps", "4", "--nbar", "0.01", "--methods", "eb,bm-get,bm-gme"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read(out1) == read(out2)

    def test_bad_flag_exits_nonzero(self, capsys):
        assert main(["--tau-min", "1.5"]) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, methods", [
        ("--nbar", "nan", "oracle"),
        ("--nbar", "inf", "oracle,eb"),
        ("--alpha", "nan", "bm-gme,oracle"),
        ("--alpha", "inf", "eb"),
    ])
    def test_non_finite_flag_is_a_usage_error(self, capsys, flag, value, methods):
        code = main([flag, value, "--methods", methods, "--tau-steps", "2", "--out", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert flag in captured.err and "finite" in captured.err
        assert captured.out == ""

    def test_scan_error_reported_on_one_line(self, tmp_path, capsys):
        # eb rejects amplitudes past its documented domain, alpha <= 1e4
        out = tmp_path / "scan.csv"
        code = main(["--alpha", "20000", "--methods", "eb", "--tau-min", "0.1",
                     "--tau-max", "0.1", "--tau-steps", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("evebounds: ") and "0 < alpha <= 10000" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--config", "{tmp}/missing.conf"], "config file {tmp}/missing.conf: No such file"),
        (["--config", "{tmp}"], "config file {tmp}: Is a directory"),
        (["--nbar", "0.01", "--nbar", "0.01"], "--nbar values must be distinct"),
        (["--methods", "eb,eb"], "--methods must not repeat"),
        (["--tau-min", "0.5", "--tau-max", "0.5"], "--tau-steps must be 1"),
        (["--tau-min", "0.5", "--tau-max", "0.5000000000000001", "--tau-steps", "3"], "taus of --tau-min"),
        (["--nbar", "0.01", "--nbar", "0.010000000000000002"], "--nbar values print alike"),
    ])
    def test_usage_errors_on_one_line(self, tmp_path, capsys, args, message):
        out = tmp_path / "scan.csv"
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("evebounds: " + message.format(tmp=tmp_path))
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("target, reason", [
        ("", "Is a directory"),
        ("no-such-dir/scan.csv", "No such file or directory"),
    ])
    def test_unwritable_out_is_one_line(self, tmp_path, capsys, target, reason):
        out = tmp_path / target
        assert main(["--tau-steps", "1", "--methods", "eb", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"evebounds: cannot write {out}: {reason}\n"
        assert captured.out == ""

    def test_eb_at_smallest_amplitude(self, capsys):
        # alpha^2 underflows to 0 at 1e-200: eb is 0 on a noiseless channel
        assert main(["--methods", "eb", "--alpha", "1e-200", "--nbar", "0", "--out", "-"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 50
        assert {(row[5], row[7]) for row in rows} == {("0", "ok")}

    @pytest.mark.parametrize("args", [
        ["--methods", "bm-get", "--alpha", "1e150", "--tau-steps", "2"],
        ["--methods", "bm-get", "--alpha", "1e77", "--nbar", "5", "--tau-min", "0", "--tau-max",
         "1", "--tau-steps", "5"],
        ["--methods", "bm-get", "--alpha", "1e200", "--tau-steps", "2"],
        ["--methods", "bm-gme", "--alpha", "1e200", "--tau-steps", "2"],
        ["--methods", "eb", "--nbar", "1e200", "--tau-steps", "2"],
    ])
    def test_bm_get_beyond_double_precision_is_an_error(self, tmp_path, capsys, args):
        # without a range check the first scan printed nan with status ok;
        # the second is past the overflow of bm-get's (a - b)^2; at 1e200
        # bm-get stopped on a numpy overflow and bm-gme on "Eigenvalues did
        # not converge"; eb at nbar = 1e200 stopped on an OverflowError
        out = tmp_path / "scan.csv"
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evebounds: ") and "beyond double precision" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_bm_get_at_large_amplitude(self, capsys):
        # This scan stopped on "beyond double precision" when bm-get's
        # determinant cancelled at tau = 0.25; 120 digits give
        # 61.4617099195364 there.
        args = ["--methods", "bm-get", "--alpha", "3.23e8", "--nbar", "5", "--tau-min", "0",
                "--tau-max", "1", "--tau-steps", "5", "--out", "-"]
        assert main(args) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5 and all(row.endswith(",bits,ok") for row in rows)
        assert "0.25,5,323000000,bm-get,-,61.4617099195,bits,ok" in rows

    @pytest.mark.parametrize("method", ["bm-get", "bm-gme"])
    def test_means_too_large_to_double_are_an_error(self, tmp_path, capsys, method):
        # at 1.7e308 the doubled displacements overflowed in numpy and the
        # scan stopped on "ensemble means contains NaN or Inf entries"
        out = tmp_path / "scan.csv"
        assert main(["--methods", method, "--alpha", "1.7e308", "--tau-steps", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evebounds: ensemble means beyond double precision")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e200", "1.7e308"])
    def test_oracle_past_square_overflow_is_not_converged(self, capsys, alpha):
        # at 1e200 the oracle stopped on an OverflowError from modulus**2
        assert main(["--methods", "oracle", "--alpha", alpha, "--tau-steps", "2",
                     "--out", "-"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4
        assert {(row[5], row[7]) for row in rows} == {("", "not-converged")}

    def test_stdout_default(self, capsys):
        assert main(["--tau-min", "1", "--tau-max", "1", "--tau-steps", "1",
                     "--nbar", "0.01", "--methods", "bm-get"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)
        assert len(out.splitlines()) == 2


class TestMainWithChecks:
    def test_check_gate_passes(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["--check", "--tau-min", "1", "--tau-max", "1", "--tau-steps", "1",
                     "--nbar", "0.01", "--methods", "bm-get", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "PASS" in err and "FAIL" not in err
        assert out.exists()

    def test_check_gate_blocks_on_failure(self, tmp_path, monkeypatch, capsys):
        from evebounds import checks as checks_mod
        from evebounds import cli as cli_mod

        monkeypatch.setattr(
            cli_mod.checks, "run_checks",
            lambda: [checks_mod.CheckResult(name="forced", residual=1.0, tolerance=1e-9)],
        )
        out = tmp_path / "scan.csv"
        code = main(["--check", "--tau-min", "1", "--tau-max", "1", "--tau-steps", "1",
                     "--nbar", "0.01", "--methods", "bm-get", "--out", str(out)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err
        assert not out.exists()


class TestChecks:
    def test_all_suites_pass_quickly(self, check_results):
        results, elapsed = check_results
        report = format_report(results)
        assert len(report) == len(results)
        failing = [line for line in report if line.endswith("FAIL")]
        assert not failing, "\n".join(report)
        assert elapsed < 300.0

    def test_report_format(self, check_results):
        results, _ = check_results
        for line in format_report(results):
            name, residual, tol, seconds, status = line.split(" ")
            assert residual.startswith("max_residual=")
            assert tol.startswith("tol=")
            assert seconds.startswith("time=") and seconds.endswith("s")
            assert float(seconds[5:-1]) > 0
            assert status in ("PASS", "FAIL")
