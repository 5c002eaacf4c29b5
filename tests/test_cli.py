"""Tests for the command-line interface: config parsing, subcommands,
exit codes and byte-identical reruns."""

import os

import numpy as np
import pytest

from safnet.cli import load_cli_config, main
from safnet.datamodel import Recording, load_manifest, write_recording
from safnet.errors import ConfigError, SafError
from safnet.metrics import confusion, macro_metrics
from safnet.model import load_checkpoint
from safnet.textio import format_float

BASE_CONFIG = """\
[synth]
subjects = 2
channels = 3
fs = 256
duration_s = 30
seed = 3
line_noise_amp = 0.5
artifact_rate_per_min = 1.0

[pipeline]
band_lo_hz = 1.0
band_hi_hz = 100.0
notch_hz = 60
target_rate_hz = 256.0
epoch_seconds = 2.0

[train]
max_epochs = 3
min_epochs = 1
batch_size = 16
seed = 1

[swap]
p = 0.5
"""


def write_config(path, text=BASE_CONFIG):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One synthetic dataset generated through the CLI, reused read-only."""
    root = tmp_path_factory.mktemp("cli_dataset")
    config = write_config(root / "config.ini")
    out = str(root / "data")
    assert main(["synth", "--config", config, "--out", out]) == 0
    return config, out


class TestConfigParsing:
    def test_all_sections_land_in_the_right_places(self, tmp_path):
        path = write_config(tmp_path / "c.ini")
        cfg = load_cli_config(path)
        assert cfg.synth.subjects == 2
        assert cfg.synth.fs == 256.0
        assert cfg.pipeline.band_hi_hz == 100.0
        assert cfg.pipeline.notch_hz == (60.0,)
        assert cfg.train.max_epochs == 3
        assert cfg.train.batch_size == 16
        assert cfg.train.swap.p == 0.5

    def test_empty_config_gives_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "")
        cfg = load_cli_config(path)
        assert cfg.pipeline.band_lo_hz == 1.0
        assert cfg.asr.cutoff_k == 20.0
        assert cfg.train.lr == 0.001
        assert cfg.train.swap.p == 0.5

    def test_notch_list_parsing(self, tmp_path):
        path = write_config(tmp_path / "c.ini",
                            "[pipeline]\nnotch_hz = 60, 120\n")
        assert load_cli_config(path).pipeline.notch_hz == (60.0, 120.0)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[f1ters]\nband_lo_hz = 1\n")
        with pytest.raises(ConfigError):
            load_cli_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[train]\nlearning_rate = 1\n")
        with pytest.raises(ConfigError):
            load_cli_config(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[train]\nlr = fast\n")
        with pytest.raises(ConfigError):
            load_cli_config(path)

    def test_class_signature_pair(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[synth]\nclass_signature_0 = 1,1,1,1,1\n"
            "class_signature_1 = 3,1,1,1,1\n")
        cfg = load_cli_config(path)
        assert cfg.synth.class_signature == ((1.0,) * 5, (3.0, 1.0, 1.0, 1.0, 1.0))

    def test_lone_class_signature_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini",
                            "[synth]\nclass_signature_0 = 1,1,1,1,1\n")
        with pytest.raises(ConfigError):
            load_cli_config(path)

    def test_invalid_field_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[train]\nlr = -1.0\n")
        with pytest.raises(SafError):
            load_cli_config(path)

    def test_malformed_ini_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "lr = 1 outside any section\n")
        with pytest.raises(ConfigError):
            load_cli_config(path)


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "d")])
        assert code == 2

    def test_missing_manifest_is_io_error(self, tmp_path):
        code = main(["analyze", "--manifest", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "a")])
        assert code == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[train]\nwarmup = 5\n")
        code = main(["synth", "--config", path,
                     "--out", str(tmp_path / "d")])
        assert code == 1

    @pytest.mark.parametrize("line", ["seed = 3", "keep_originals = true"])
    def test_removed_swap_key_is_validation_error(self, tmp_path, line, capsys):
        """[swap] holds only p: the swap stream is seeded from [train] seed."""
        path = write_config(tmp_path / "c.ini", f"[swap]\np = 0.5\n{line}\n")
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d")])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "d")

    def test_missing_required_flag_is_usage_error(self):
        assert main(["train"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0


class TestSynthCommand:
    def test_manifest_rows_and_splits(self, dataset):
        _, out = dataset
        manifest, epoch_set = load_manifest(os.path.join(out, "manifest.csv"))
        assert len(manifest.rows) == 60  # 2 subjects x 2 classes x 15 epochs
        counts = {tag: epoch_set.split.count(tag)
                  for tag in ("train", "val", "test")}
        assert counts == {"train": 48, "val": 4, "test": 8}
        assert epoch_set.subjects == ["s00", "s01"]
        first = epoch_set.epochs[0]
        assert (first.channels, first.samples) == (3, 512)
        assert first.sample_rate_hz == 256.0

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        config, out = dataset
        out2 = str(tmp_path / "data2")
        assert main(["synth", "--config", config, "--out", out2]) == 0
        assert (read_bytes(os.path.join(out, "manifest.csv"))
                == read_bytes(os.path.join(out2, "manifest.csv")))
        manifest, _ = load_manifest(os.path.join(out, "manifest.csv"))
        name = manifest.rows[0][0]
        assert (read_bytes(os.path.join(out, name))
                == read_bytes(os.path.join(out2, name)))


class TestPreprocessCommand:
    @staticmethod
    def make_recording(path, seconds=12.0, fs=256.0, channels=3, seed=7):
        rng = np.random.default_rng(seed)
        n = int(seconds * fs)
        t = np.arange(n) / fs
        x = 2.0 * np.sin(2 * np.pi * 10.0 * t) + rng.standard_normal((channels, n))
        write_recording(Recording(data=x, sample_rate_hz=fs), path)
        return path

    def test_writes_epochs_and_manifest(self, tmp_path):
        config = write_config(tmp_path / "c.ini")
        rec_path = self.make_recording(str(tmp_path / "raw.safr"))
        out = str(tmp_path / "pre")
        code = main(["preprocess", "--config", config, "--in", rec_path,
                     "--subject", "s00", "--class", "1", "--out", out])
        assert code == 0
        manifest, epoch_set = load_manifest(os.path.join(out, "manifest.csv"))
        assert len(manifest.rows) == 6  # 12 s / 2 s epochs
        assert all(row[3] == "none" for row in manifest.rows)
        assert all(ep.y == 1 and ep.s == "s00" for ep in epoch_set.epochs)
        assert epoch_set.epochs[0].samples == 512

    def test_with_asr_calibration(self, tmp_path):
        config = write_config(tmp_path / "c.ini")
        rec_path = self.make_recording(str(tmp_path / "raw.safr"))
        calib_path = self.make_recording(str(tmp_path / "calib.safr"), seed=8)
        out = str(tmp_path / "pre")
        code = main(["preprocess", "--config", config, "--in", rec_path,
                     "--subject", "s00", "--class", "0", "--out", out,
                     "--asr-calib", calib_path])
        assert code == 0
        _, epoch_set = load_manifest(os.path.join(out, "manifest.csv"))
        assert len(epoch_set) == 6
        assert np.all(np.isfinite(epoch_set.epochs[0].x))

    @pytest.mark.parametrize("subject", ["a,b", "a\nb", "a\rb"])
    def test_unwritable_subject_is_validation_error(self, tmp_path, subject, capsys):
        config = write_config(tmp_path / "c.ini")
        rec_path = self.make_recording(str(tmp_path / "raw.safr"))
        out = tmp_path / "pre"
        code = main(["preprocess", "--config", config, "--in", rec_path,
                     "--subject", subject, "--class", "0", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_recording_is_format_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.ini")
        rec_path = tmp_path / "raw.safr"
        rec_path.write_bytes(b"SAFR\x01\x00")
        code = main(["preprocess", "--config", config, "--in", str(rec_path),
                     "--subject", "s00", "--class", "0", "--out",
                     str(tmp_path / "pre")])
        assert code == 1
        assert "too short" in capsys.readouterr().err


class TestTrainAndEvalCommands:
    def test_train_writes_model_and_log(self, dataset, tmp_path):
        config, out = dataset
        model_path = str(tmp_path / "model.safm")
        log_path = str(tmp_path / "train.csv")
        code = main(["train", "--config", config,
                     "--manifest", os.path.join(out, "manifest.csv"),
                     "--lambda-mi", "0.1", "--lambda-grl", "0.2",
                     "--out", model_path, "--log", log_path])
        assert code == 0
        model = load_checkpoint(model_path)
        assert model.num_domains == 2
        with open(log_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "epoch,l_task,l_domain,l_mi,l_total,lr,val_macro_acc"
        assert 1 <= len(lines) - 1 <= 3

    def test_baseline_flag_matches_explicit_zero_config(self, dataset, tmp_path):
        config, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        base_model = str(tmp_path / "base.safm")
        code = main(["train", "--config", config, "--manifest", manifest,
                     "--out", base_model, "--baseline"])
        assert code == 0
        zero_config = write_config(tmp_path / "zero.ini",
                                   BASE_CONFIG.replace("p = 0.5", "p = 0.0"))
        zero_model = str(tmp_path / "zero.safm")
        code = main(["train", "--config", zero_config, "--manifest", manifest,
                     "--out", zero_model])
        assert code == 0
        assert read_bytes(base_model) == read_bytes(zero_model)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_model_is_validation_error(self, dataset, tmp_path, capsys):
        """An absurd learning rate drives the weights to inf or NaN; train
        exits 1 and writes no checkpoint that load_checkpoint would refuse."""
        config, out = dataset
        config = write_config(tmp_path / "c.ini",
                              BASE_CONFIG.replace("seed = 1", "seed = 1\nlr = 1e30"))
        model_path = tmp_path / "model.safm"
        code = main(["train", "--config", config,
                     "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", str(model_path)])
        assert code == 1
        assert "not finite" in capsys.readouterr().err
        assert not model_path.exists()

    def test_eval_matches_direct_metrics(self, dataset, tmp_path):
        config, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        model_path = str(tmp_path / "model.safm")
        assert main(["train", "--config", config, "--manifest", manifest,
                     "--out", model_path]) == 0
        metrics_path = str(tmp_path / "metrics.csv")
        code = main(["eval", "--model", model_path, "--manifest", manifest,
                     "--split", "test", "--out", metrics_path])
        assert code == 0

        model = load_checkpoint(model_path)
        _, epoch_set = load_manifest(manifest)
        test_eps = epoch_set.subset("test")
        x = np.stack([ep.x for ep in test_eps])[:, None, :, :]
        preds = model.predict(x)
        expected = macro_metrics(confusion([ep.y for ep in test_eps], preds))
        names = ("macro_accuracy", "macro_precision", "macro_recall",
                 "macro_f1")
        want = "metric,value\n" + "".join(
            f"{n},{format_float(v)}\n" for n, v in zip(names, expected))
        with open(metrics_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == want

        rerun_path = str(tmp_path / "metrics2.csv")
        assert main(["eval", "--model", model_path, "--manifest", manifest,
                     "--split", "test", "--out", rerun_path]) == 0
        assert read_bytes(metrics_path) == read_bytes(rerun_path)

    def test_eval_empty_split_is_validation_error(self, dataset, tmp_path):
        config, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        model_path = str(tmp_path / "model.safm")
        assert main(["train", "--config", config, "--manifest", manifest,
                     "--out", model_path]) == 0
        code = main(["eval", "--model", model_path, "--manifest", manifest,
                     "--split", "none", "--out", str(tmp_path / "m.csv")])
        assert code == 1


class TestGridCommand:
    def test_writes_full_table(self, dataset, tmp_path):
        config, out = dataset
        grid_path = str(tmp_path / "grid.csv")
        code = main(["grid", "--config", config,
                     "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", grid_path, "--n-mi", "2", "--n-grl", "2",
                     "--budget", "1"])
        assert code == 0
        with open(grid_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "lambda_mi,lambda_grl,val_macro_acc"
        assert len(lines) == 5
        pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert pairs == [("0.001", "0.001"), ("0.001", "10"),
                         ("10", "0.001"), ("10", "10")]

    def test_parallel_jobs_match_serial(self, dataset, tmp_path):
        config, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        serial = str(tmp_path / "serial.csv")
        parallel = str(tmp_path / "parallel.csv")
        args = ["grid", "--config", config, "--manifest", manifest,
                "--n-mi", "2", "--n-grl", "2", "--budget", "1"]
        assert main(args + ["--out", serial, "--jobs", "1"]) == 0
        assert main(args + ["--out", parallel, "--jobs", "2"]) == 0
        assert read_bytes(serial) == read_bytes(parallel)


class TestAnalyzeCommand:
    def test_writes_all_outputs(self, dataset, tmp_path):
        _, out = dataset
        adir = str(tmp_path / "analysis")
        code = main(["analyze", "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", adir])
        assert code == 0
        with open(os.path.join(adir, "psd_bands.csv"), encoding="utf-8") as fh:
            psd_lines = fh.read().splitlines()
        assert psd_lines[0] == "subject,band,mean_power"
        assert len(psd_lines) == 1 + 2 * 5  # 2 subjects x 5 bands
        assert psd_lines[1].startswith("s00,Delta,")
        with open(os.path.join(adir, "cv.csv"), encoding="utf-8") as fh:
            cv_lines = fh.read().splitlines()
        assert cv_lines[0] == "band,cv"
        assert [line.split(",")[0] for line in cv_lines[1:]] == [
            "Delta", "Theta", "Alpha", "Beta", "Gamma"]
        for fname in ("silhouette.txt", "fstat.txt"):
            with open(os.path.join(adir, fname), encoding="utf-8") as fh:
                value = float(fh.read().strip())
            assert np.isfinite(value)

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        _, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        dir1, dir2 = str(tmp_path / "a1"), str(tmp_path / "a2")
        assert main(["analyze", "--manifest", manifest, "--out", dir1]) == 0
        assert main(["analyze", "--manifest", manifest, "--out", dir2]) == 0
        for fname in ("psd_bands.csv", "cv.csv", "silhouette.txt", "fstat.txt"):
            assert (read_bytes(os.path.join(dir1, fname))
                    == read_bytes(os.path.join(dir2, fname)))

    def test_single_subject_is_validation_error(self, tmp_path):
        config = write_config(tmp_path / "c.ini")
        rec = TestPreprocessCommand.make_recording(str(tmp_path / "raw.safr"))
        out = str(tmp_path / "pre")
        assert main(["preprocess", "--config", config, "--in", rec,
                     "--subject", "s00", "--class", "0", "--out", out]) == 0
        code = main(["analyze", "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", str(tmp_path / "a")])
        assert code == 1
