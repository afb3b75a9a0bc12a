import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saxkit
from saxkit.cli import main
from saxkit.codec import encode, encoder_from_json
from saxkit.harness import load_series_csv, read_events_csv, read_records_csv


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    assert run("gen", "--kind", "bimodal_mixture", "--length", 2000, "--out", path) == 0
    return path


@pytest.fixture()
def labeled_csv(tmp_path):
    path = tmp_path / "labeled.csv"
    code = run(
        "gen",
        "--kind", "level_shift_anomalies",
        "--length", 1200,
        "--segment", 30,
        "--seed", 5,
        "--out", path,
    )
    assert code == 0
    return path


class TestGen:
    def test_byte_identical_for_a_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run("gen", "--kind", "ar1", "--length", 500, "--seed", 3, "--out", path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_labeled_kind_writes_two_columns(self, labeled_csv):
        header = labeled_csv.read_text().splitlines()[0]
        assert header == "value,label"

    def test_kind_parameters_pass_through(self, tmp_path):
        path = tmp_path / "w.csv"
        assert run(
            "gen", "--kind", "bimodal_mixture", "--length", 4000,
            "--weight", 0.2, "--out", path,
        ) == 0
        values = load_series_csv(path).values
        assert abs(float(np.mean(values < 0.0)) - 0.2) < 0.05


    def test_a_parameter_of_another_kind_is_rejected(self, capsys):
        assert run("gen", "--kind", "ar1", "--length", 100, "--rate", 0.1) == 2
        assert "ar1 does not take ['rate']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, defaults",
        [
            ("gaussian_iid", ()),
            ("ar1", ("--phi", 0.9)),
            ("bimodal_mixture", ("--mu1", -2.0, "--mu2", 2.0, "--weight", 0.5, "--sigma", 0.5)),
            ("level_shift_anomalies", ("--rate", 0.01, "--shift", 3.0, "--segment", 50)),
        ],
    )
    def test_parameters_at_their_defaults_change_nothing(self, tmp_path, kind, defaults):
        bare, full = tmp_path / "bare.csv", tmp_path / "full.csv"
        assert run("gen", "--kind", kind, "--length", 600, "--seed", 2, "--out", bare) == 0
        assert run("gen", "--kind", kind, "--length", 600, "--seed", 2, *defaults, "--out", full) == 0
        assert full.read_bytes() == bare.read_bytes()


class TestFitEncode:
    def test_fit_then_encode_matches_the_library(self, tmp_path, corpus_csv):
        enc_path = tmp_path / "encoder.json"
        assert run(
            "fit", "--input", corpus_csv, "--method", "psax",
            "--segments", 8, "--kappa", 6, "--out", enc_path,
        ) == 0
        encoder = encoder_from_json(enc_path.read_text())
        assert encoder.codebook.kappa == 6

        series_path = tmp_path / "series.csv"
        assert run("gen", "--kind", "gaussian_iid", "--length", 64, "--out", series_path) == 0
        seq_path = tmp_path / "seq.json"
        assert run(
            "encode", "--encoder", enc_path, "--input", series_path, "--out", seq_path
        ) == 0
        payload = json.loads(seq_path.read_text())
        expected = encode(encoder, load_series_csv(series_path))
        assert payload["symbols"] == [int(s) for s in expected.symbols]
        assert payload["codebook_id"] == encoder.codebook.digest

    def test_fit_prints_to_stdout_by_default(self, corpus_csv, capsys):
        assert run("fit", "--input", corpus_csv, "--method", "sax", "--segments", 8) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["method"] == "SAX"


class TestTlbRmse:
    def test_long_format_output(self, tmp_path, corpus_csv):
        out = tmp_path / "grid.csv"
        code = run(
            "tlb-rmse", "--input", corpus_csv,
            "--lengths", "16", "--bytes", "2", "--kappas", "16",
            "--trials", 2, "--methods", "SAX,ASAX", "--out", out,
        )
        assert code == 0
        rows = read_records_csv(out)
        assert [r["method"] for r in rows] == ["SAX", "ASAX"]
        assert all(0.0 <= r["tlb_mean"] <= 1.0 for r in rows)

    def test_pivot_output(self, tmp_path, corpus_csv):
        out = tmp_path / "pivot.csv"
        code = run(
            "tlb-rmse", "--input", corpus_csv,
            "--lengths", "16", "--bytes", "2", "--kappas", "16",
            "--trials", 2, "--methods", "SAX,PSAX", "--pivot", "tlb", "--out", out,
        )
        assert code == 0
        rows = read_records_csv(out)
        assert set(rows[0]) == {"length", "SAX_2B", "PSAX_2B"}
        header = "length,PSAX_2B,SAX_2B,PSAX_4B,SAX_4B\n"
        pinned = {
            "tlb": header
            + "16,0.46945920089092574,0.3374595394827799,0.4095412299853569,0.28847324682280845\n"
            + "32,0.37667010218985547,0.31810938460333976,0.47258826645810026,0.4582583857948458\n",
            "rmse": header
            + "16,0.8812889273939666,0.8845842983030483,0.7806598875348862,0.7798640251158986\n"
            + "32,0.9107359585342434,0.9111027843226739,0.8941938435205087,0.894906034028605\n",
        }
        for metric, text in pinned.items():
            code = run(
                "tlb-rmse", "--input", corpus_csv,
                "--lengths", "16,32", "--bytes", "2,4", "--kappas", "16",
                "--trials", 2, "--methods", "SAX,PSAX", "--pivot", metric, "--out", out,
            )
            assert code == 0 and out.read_text() == text, metric

    def test_zero_trials_writes_the_header_only(self, tmp_path, corpus_csv):
        out = tmp_path / "grid.csv"
        code = run(
            "tlb-rmse", "--input", corpus_csv,
            "--lengths", "16", "--bytes", "2", "--kappas", "16", "--trials", 0, "--out", out,
        )
        assert code == 0
        assert out.read_text() == "length,bytes,kappa,segments,method,alphabet,trials,tlb_mean,rmse_mean\n"

    def test_pivot_needs_one_kappa(self, corpus_csv):
        code = run(
            "tlb-rmse", "--input", corpus_csv,
            "--lengths", "16", "--bytes", "2", "--kappas", "16,256",
            "--trials", 1, "--pivot", "tlb",
        )
        assert code == 2

    def test_unknown_method_names_the_valid_ones(self, corpus_csv, capsys):
        code = run(
            "tlb-rmse", "--input", corpus_csv,
            "--lengths", "16", "--bytes", "2", "--kappas", "16", "--trials", 2, "--methods", "foo",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: unknown method 'FOO'; expected one of SAX, ASAX, PSAX, CSAX\n"


class TestDetect:
    def test_adaptive_detector_event_log(self, tmp_path, corpus_csv):
        out = tmp_path / "events.csv"
        assert run("detect", "--input", corpus_csv, "--window", 50, "--out", out) == 0
        events = read_events_csv(out)
        assert events[0].index == 49
        assert events[0].anomalous

    def test_fixed_detector(self, tmp_path, corpus_csv):
        out = tmp_path / "events.csv"
        code = run(
            "detect", "--input", corpus_csv, "--detector", "sax",
            "--window", 50, "--kappa", 8, "--out", out,
        )
        assert code == 0
        assert len(read_events_csv(out)) == 2000 - 50 + 1

    def test_json_event_log(self, tmp_path, corpus_csv):
        out = tmp_path / "events.json"
        assert run("detect", "--input", corpus_csv, "--window", 50, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["index"] == 49
        assert payload[0]["flag"] == 1

    def test_pretraining_only_for_the_adaptive_detector(self, corpus_csv):
        code = run(
            "detect", "--input", corpus_csv, "--detector", "sax", "--pretrain-fraction", 0.2
        )
        assert code == 2

    def test_labeled_input_uses_the_value_column(self, tmp_path, labeled_csv):
        out = tmp_path / "events.csv"
        assert run("detect", "--input", labeled_csv, "--window", 30, "--out", out) == 0
        assert read_events_csv(out)[0].index == 29


class TestRoc:
    def test_curve_csv_and_auc_line(self, tmp_path, labeled_csv, capsys):
        out = tmp_path / "roc.csv"
        code = run(
            "roc", "--input", labeled_csv, "--detector", "sax", "--window", 30, "--out", out
        )
        assert code == 0
        assert capsys.readouterr().err.startswith("auc=")
        rows = read_records_csv(out)
        assert rows[0]["fpr"] == 0.0 and rows[-1]["tpr"] == 1.0
        assert 0.0 <= rows[0]["auc"] <= 1.0

    def test_unlabeled_input_is_rejected(self, corpus_csv):
        assert run("roc", "--input", corpus_csv, "--window", 50) == 2


class TestInfoLoss:
    def test_normalized_gaussian_is_small(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        assert run("gen", "--kind", "gaussian_iid", "--length", 5000, "--out", path) == 0
        assert run("info-loss", "--input", path, "--normalize") == 0
        header, value = capsys.readouterr().out.splitlines()
        assert header == "info_loss_nats"
        assert abs(float(value)) < 0.1

    def test_bits_flag_and_file_output(self, tmp_path):
        path = tmp_path / "g.csv"
        assert run("gen", "--kind", "gaussian_iid", "--length", 5000, "--out", path) == 0
        out = tmp_path / "loss.csv"
        assert run("info-loss", "--input", path, "--normalize", "--bits", "--out", out) == 0
        header, value = out.read_text().splitlines()
        assert header == "info_loss_bits"
        float(value)

    def test_unnormalized_input_fails_cleanly(self, tmp_path):
        path = tmp_path / "u.csv"
        assert run("gen", "--kind", "bimodal_mixture", "--length", 2000, "--out", path) == 0
        assert run("info-loss", "--input", path) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--kind", "level_shift_anomalies", "--length", 300, "--segment", 20),
        ("fit", "--input", "{corpus}", "--method", "asax", "--segments", 8),
        ("detect", "--input", "{labeled}", "--window", 30),
        ("roc", "--input", "{labeled}", "--detector", "sax", "--window", 30),
        ("tlb-rmse", "--input", "{corpus}", "--lengths", 16, "--bytes", 2, "--kappas", 16, "--trials", 2),
        ("gen", "--kind", "gaussian_iid", "--length", 300),
        ("gen", "--kind", "ar1", "--length", 300, "--phi", 0.5),
        ("gen", "--kind", "bimodal_mixture", "--length", 300, "--sigma", 0.3),
        ("encode", "--encoder", "{encoder}", "--input", "{corpus}"),
        ("info-loss", "--input", "{corpus}", "--normalize"),
    ],
)
def test_stdout_gets_the_bytes_of_the_out_file(tmp_path, corpus_csv, labeled_csv, capsys, argv):
    encoder = tmp_path / "encoder.json"
    if "{encoder}" in argv:
        assert run("fit", "--input", corpus_csv, "--method", "asax", "--segments", 8, "--out", encoder) == 0
    names = {"corpus": corpus_csv, "labeled": labeled_csv, "encoder": encoder}
    argv = [str(a).format(**names) for a in argv]
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 0
    capsys.readouterr()
    assert run(*argv) == 0
    assert capsys.readouterr().out == out.read_text()


class TestConfigAndErrors:
    def test_config_prefills_options(self, tmp_path, corpus_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 30, "detector": "sax"}))
        out = tmp_path / "events.csv"
        assert run("detect", "--input", corpus_csv, "--config", cfg, "--out", out) == 0
        assert read_events_csv(out)[0].index == 29
        # a config may supply required options, and lists for comma-separated flags
        fit_flags = ("--input", corpus_csv, "--method", "psax", "--segments", 8, "--kappa", 6)
        fit_config = {"input": str(corpus_csv), "method": "psax", "segments": 8, "kappa": 6}
        grid_flags = ("--lengths", "16,32", "--bytes", 2, "--kappas", 16, "--methods", "SAX,ASAX")
        grid_config = {"lengths": [16, 32], "bytes": [2], "kappas": [16], "methods": ["SAX", "ASAX"]}
        # null leaves an option at its default
        gen = ("gen", "--kind", "gaussian_iid", "--length", 100)
        grid = ("tlb-rmse", "--input", corpus_csv, "--trials", 2)
        cases = [
            (("fit",), fit_flags, fit_config),
            (grid, grid_flags, grid_config),
            (gen, ("--seed", 0), {"seed": None}),
            (("info-loss", "--input", corpus_csv), ("--normalize",), {"normalize": True, "bits": False}),
            (grid, ("--bytes", 2, "--kappas", 16), {"lengths": None, "bytes": [2], "kappas": [16]}),
        ]
        for command, flags, config in cases:
            cfg.write_text(json.dumps(config))
            assert run(*command, *flags) == 0
            from_flags = capsys.readouterr().out
            assert run(*command, "--config", cfg) == 0
            assert capsys.readouterr().out == from_flags

    def test_explicit_flags_beat_the_config(self, tmp_path, corpus_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 30}))
        out = tmp_path / "events.csv"
        code = run(
            "detect", "--input", corpus_csv, "--config", cfg, "--window", 20, "--out", out
        )
        assert code == 0
        assert read_events_csv(out)[0].index == 19

    def test_bad_config_json(self, tmp_path, corpus_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cases = [
            ("not json", ("detect",), "Expecting value"),
            # config values pass the checks of the flags they fill in
            ('{"window": 30.5}', ("detect",), "argument --window: invalid int value: '30.5'"),
            ('{"window": 50.0}', ("detect",), "argument --window: invalid int value: '50.0'"),
            (
                '{"normalization": "foo"}',
                ("fit", "--method", "sax", "--segments", 8),
                "argument --normalization: invalid choice: 'foo'",
            ),
            ('{"segments": null}', ("fit", "--method", "sax"), "arguments are required: --segments"),
            ('{"method": "PSAX"}', ("fit", "--segments", 8), "argument --method: invalid choice: 'PSAX'"),
            ('{"window": true}', ("detect",), "argument --window: invalid int value: 'True'"),
            ('{"normalize": 0}', ("info-loss",), "switch 'normalize' takes true, false or null, got 0"),
            # a key must name an option of the subcommand, by its destination
            ('{"windw": 30}', ("detect",), "'windw' names no option of saxkit detect"),
            ('{"paa-ratio": 0.5}', ("detect",), "'paa-ratio' names no option of saxkit detect"),
            ('{"kind": "ar1"}', ("detect",), "'kind' names no option of saxkit detect"),
        ]
        for text, argv, message in cases:
            cfg.write_text(text)
            try:
                code = run(*argv, "--input", corpus_csv, "--config", cfg)
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
            err = capsys.readouterr().err
            assert code == 2 and "error: " in err and message in err, text

    def test_missing_input_returns_two(self, tmp_path):
        assert run("detect", "--input", tmp_path / "absent.csv") == 2

    def test_domain_errors_return_two(self, tmp_path, corpus_csv, labeled_csv, capsys):
        path = tmp_path / "short.csv"
        assert run("gen", "--kind", "gaussian_iid", "--length", 10, "--out", path) == 0
        assert run("detect", "--input", path, "--window", 50) == 2
        # a subcommand that uses the seed refuses a negative one
        for argv in (
            ("gen", "--kind", "gaussian_iid", "--length", 100),
            ("fit", "--input", corpus_csv, "--method", "asax", "--segments", 8),
            ("tlb-rmse", "--input", corpus_csv, "--lengths", 16, "--bytes", 2, "--kappas", 16, "--trials", 2),
            ("detect", "--input", labeled_csv, "--detector", "psax", "--window", 30),
        ):
            capsys.readouterr()
            assert run(*argv, "--seed", -1) == 2
            assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n", argv[0]
        # an encoder file is checked like a config file
        encoder = tmp_path / "encoder.json"
        assert run("fit", "--input", corpus_csv, "--method", "sax", "--segments", 8, "--out", encoder) == 0
        payload = json.loads(encoder.read_text())
        for text in ("not json", json.dumps({**payload, "spec": {**payload["spec"], "segments": 8.9}})):
            encoder.write_text(text)
            capsys.readouterr()
            assert run("encode", "--encoder", encoder, "--input", corpus_csv) == 2
            assert capsys.readouterr().err.startswith("error: ")


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "tlb-rmse" in proc.stdout
    assert proc.stdout.startswith("usage: saxkit")


def test_console_entry_point():
    # The declared console script must resolve to the CLI's main ...
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'saxkit = "saxkit.cli:main"' in scripts.splitlines()

    # ... and that target must work when run the way pip's generated wrapper
    # runs it, so the check needs no install and works from a source checkout.
    package_root = str(Path(saxkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    wrapper = (
        "import sys; from saxkit.cli import main;"
        " sys.argv[0] = 'saxkit'; sys.exit(main())"
    )
    _assert_help(
        subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
    )

    # Where the package is installed, the generated script must work too.
    installed = shutil.which("saxkit")
    if installed is not None:
        _assert_help(subprocess.run([installed, "--help"], capture_output=True, text=True))


def test_import_skips_the_slow_scipy_subpackages(tmp_path, corpus_csv, labeled_csv):
    # Every CLI call pays for ``import saxkit``, so scipy loads on first use
    # only: the package and the distribution-free commands load none of it,
    # and no command loads scipy.signal, scipy.optimize or scipy.stats, which
    # take most of a second.  Which scipy subpackage pulls in which other one
    # varies between scipy releases, so only these two bounds are pinned.
    package_root = str(Path(saxkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    fit = ("fit", "--input", corpus_csv, "--segments", 8, "--kappa", 6, "--method")
    scipy_free = [
        ("gen", "--kind", "bimodal_mixture", "--length", 500, "--out", tmp_path / "gen.csv"),
        ("gen", "--kind", "ar1", "--length", 500, "--out", tmp_path / "ar1.csv"),
        (*fit, "asax", "--out", tmp_path / "asax.json"),
        (*fit, "csax", "--out", tmp_path / "csax.json"),
        ("encode", "--encoder", tmp_path / "csax.json", "--input", corpus_csv, "--out", tmp_path / "seq.json"),
        ("info-loss", "--input", corpus_csv, "--normalize", "--out", tmp_path / "loss.csv"),
    ]
    detector = ("--input", labeled_csv, "--window", 30)
    scipy_users = [
        (*fit, "sax", "--out", tmp_path / "sax.json"),
        (*fit, "psax", "--out", tmp_path / "psax.json"),
        ("detect", *detector, "--out", tmp_path / "events.csv"),
        ("roc", *detector, "--detector", "psax", "--out", tmp_path / "roc.csv"),
        (
            "tlb-rmse", "--input", corpus_csv, "--lengths", 16, "--bytes", 2, "--kappas", 16,
            "--trials", 2, "--methods", "SAX,ASAX,PSAX,CSAX", "--out", tmp_path / "grid.csv",
        ),
    ]
    # One interpreter runs every command in turn and lists its modules after
    # each.  ``sys.modules`` only grows, so the first listing that breaks a
    # bound names the command that loaded the module, as a fresh interpreter
    # per command would; the scipy-free commands run first.
    probe = (
        "import json, sys\n"
        "import saxkit\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "import saxkit.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert saxkit.cli.main(argv) == 0, argv\n"
        "    print(json.dumps(sorted(sys.modules)))\n"
    )
    steps = [("import saxkit",), ("import saxkit.cli",), *scipy_free, *scipy_users]
    commands = [[str(a) for a in argv] for argv in scipy_free + scipy_users]
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    listings = [set(json.loads(line)) for line in done.stdout.splitlines()]
    assert len(listings) == len(steps)
    assert "saxkit.harness" in listings[0]
    for i, (step, loaded) in enumerate(zip(steps, listings)):
        assert not {"scipy.signal", "scipy.optimize", "scipy.stats"} & loaded, step
        if i < 2 + len(scipy_free):
            assert not {m for m in loaded if m.split(".")[0] == "scipy"}, step
