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

    def test_pivot_needs_one_kappa(self, corpus_csv):
        code = run(
            "tlb-rmse", "--input", corpus_csv,
            "--lengths", "16", "--bytes", "2", "--kappas", "16,256",
            "--trials", 1, "--pivot", "tlb",
        )
        assert code == 2


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
        value = float(capsys.readouterr().out)
        assert abs(value) < 0.1

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


class TestConfigAndErrors:
    def test_config_prefills_options(self, tmp_path, corpus_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 30, "detector": "sax"}))
        out = tmp_path / "events.csv"
        assert run("detect", "--input", corpus_csv, "--config", cfg, "--out", out) == 0
        assert read_events_csv(out)[0].index == 29

    def test_explicit_flags_beat_the_config(self, tmp_path, corpus_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 30}))
        out = tmp_path / "events.csv"
        code = run(
            "detect", "--input", corpus_csv, "--config", cfg, "--window", 20, "--out", out
        )
        assert code == 0
        assert read_events_csv(out)[0].index == 19

    def test_bad_config_json(self, tmp_path, corpus_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run("detect", "--input", corpus_csv, "--config", cfg) == 2

    def test_missing_input_returns_two(self, tmp_path):
        assert run("detect", "--input", tmp_path / "absent.csv") == 2

    def test_domain_errors_return_two(self, tmp_path):
        path = tmp_path / "short.csv"
        assert run("gen", "--kind", "gaussian_iid", "--length", 10, "--out", path) == 0
        assert run("detect", "--input", path, "--window", 50) == 2


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


def test_import_skips_the_slow_scipy_subpackages():
    # Every CLI call pays for ``import saxkit``; scipy.signal, scipy.optimize
    # and scipy.stats take most of a second to load and the package needs
    # none of them up front.
    package_root = str(Path(saxkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    probe = "import sys, saxkit; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "saxkit.harness" in loaded
    assert not {"scipy.signal", "scipy.optimize", "scipy.stats"} & loaded
