"""Tests for the command-line interface: config parsing, subcommands,
exit codes and byte-identical reruns."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safnet
from safnet import asr, dsp, train
from safnet.cli import INI_SCHEMA, load_cli_config, main
from safnet.datamodel import (
    Epoch,
    EpochSet,
    Recording,
    load_manifest,
    write_epoch_dir,
    write_recording,
)
from safnet.errors import ConfigError, SafError
from safnet.metrics import (
    BandDefinition,
    clip_bands,
    confusion,
    iqr_row_mask,
    log_band_power_features,
    macro_metrics,
)
from safnet.model import EncoderConfig, SafModel, load_checkpoint, save_checkpoint
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

    @pytest.mark.parametrize("text, prefix, message", [
        ("[train]\nmax_epochs = 4\n", "[train]",
         "need 1 <= min_epochs <= max_epochs, got min_epochs=20, max_epochs=4"),
        ("[train]\npatience = 0\n", "[train]", "patience must be >= 1, got 0"),
        ("[swap]\np = 2\n", "[swap]", "swap probability must be in [0,1], got 2.0"),
        ("[asr]\ncutoff_k = -1\n", "[asr]", "cutoff_k must be finite and positive"),
        ("[pipeline]\nband_lo_hz = 50\nband_hi_hz = 10\n", "[pipeline]", "band_lo"),
        ("[synth]\nsubjects = 0\n", "[synth]", "at least one subject")])
    def test_config_object_refusal_names_file_and_section(self, tmp_path, text,
                                                          prefix, message):
        path = write_config(tmp_path / "c.ini", text)
        with pytest.raises(ConfigError) as refusal:
            load_cli_config(path)
        assert str(refusal.value).startswith(f"{path} {prefix}: ")
        assert message in str(refusal.value)

    def test_refused_train_section_stops_synth_naming_it(self, tmp_path, capsys):
        """Every command loads the whole config, so a [train] that only
        lowers max_epochs below the default min_epochs stops synth too; the
        message says where and which values."""
        path = write_config(tmp_path / "c.ini", BASE_CONFIG.replace(
            "max_epochs = 3\nmin_epochs = 1\n", "max_epochs = 4\n"))
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path} [train]: need 1 <= min_epochs <= max_epochs, got "
            "min_epochs=20, max_epochs=4\n")
        assert not os.path.exists(tmp_path / "d")

    def test_malformed_ini_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "lr = 1 outside any section\n")
        with pytest.raises(ConfigError):
            load_cli_config(path)


# The INI keys and value kinds from before the schema was derived from the
# config dataclasses, when cli.py kept them in hand-written tables.
KEY_KINDS = {
    "pipeline": {
        "band_lo_hz": float, "band_hi_hz": float, "notch_hz": tuple,
        "notch_q": float, "target_rate_hz": float, "epoch_seconds": float,
        "butter_order": int},
    "asr": {
        "cutoff_k": float, "calib_window_s": float, "calib_z_lo": float,
        "calib_z_hi": float, "min_calib_windows": int, "proc_window_s": float,
        "proc_overlap": float},
    "swap": {"p": float},
    "train": {
        "lr": float, "batch_size": int, "min_epochs": int, "max_epochs": int,
        "patience": int, "plateau_window": int, "improvement_eps": float,
        "lr_factor": float, "lr_floor": float, "beta1": float, "beta2": float,
        "adam_eps": float, "seed": int},
    "synth": {
        "subjects": int, "channels": int, "fs": float, "duration_s": float,
        "subject_bias_strength": float, "line_noise_amp": float,
        "artifact_rate_per_min": float, "artifact_gain": float, "seed": int,
        "class_signature_0": tuple, "class_signature_1": tuple},
}
# Keys of that table that are now module constants of the same value (the
# key in upper case), in dsp, asr and train.
REMOVED_KEYS = {
    "pipeline": {"notch_q": 30.0, "butter_order": 4},
    "asr": {"calib_window_s": 1.0, "calib_z_lo": -3.5, "calib_z_hi": 5.5,
            "min_calib_windows": 30, "proc_window_s": 0.5, "proc_overlap": 0.5},
    "train": {"improvement_eps": 0.001, "lr_factor": 0.5, "lr_floor": 1e-6,
              "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8},
}
CONSTANT_OWNERS = {"pipeline": dsp, "asr": asr, "train": train}
REMOVED = [(section, key, value) for section, keys in REMOVED_KEYS.items()
           for key, value in keys.items()]
FLOAT_KEYS = [(section, key) for section, kinds in KEY_KINDS.items()
              for key, kind in kinds.items() if kind is not int]
CURRENT_KEY_KINDS = {
    section: {key: kind for key, kind in kinds.items()
              if key not in REMOVED_KEYS.get(section, {})}
    for section, kinds in KEY_KINDS.items()}


class TestIniSchema:
    def test_key_sets_derived_from_the_dataclasses(self):
        assert {s: sorted(keys) for s, keys in INI_SCHEMA.items()} == {
            s: sorted(kinds) for s, kinds in CURRENT_KEY_KINDS.items()}
        assert [len(keys) for keys in INI_SCHEMA.values()] == [5, 1, 1, 7, 11]

    @pytest.mark.parametrize("section, key, value", REMOVED)
    def test_removed_key_is_a_constant_of_its_value(self, section, key, value):
        constant = getattr(CONSTANT_OWNERS[section], key.upper())
        assert constant == value and type(constant) is type(value)

    def test_value_kinds(self):
        for section, kinds in CURRENT_KEY_KINDS.items():
            for key, kind in kinds.items():
                convert = INI_SCHEMA[section][key]
                if kind is int:
                    assert convert(" 7 ") == 7
                    with pytest.raises(ValueError):
                        convert("1.5")
                elif kind is float:
                    assert convert("1.5") == 1.5
                else:
                    assert convert("1.5, 2,") == (1.5, 2.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, tmp_path, section, key, value):
        """Refused as not finite, or as an unknown key where the key is now a
        constant."""
        path = write_config(tmp_path / "c.ini", f"[{section}]\n{key} = {value}\n")
        if key in REMOVED_KEYS.get(section, {}):
            message = rf"unknown key '{key}' in \[{section}\]$"
        else:
            message = rf"^\[{section}\] {key}: .*finite"
        with pytest.raises(ConfigError, match=message):
            load_cli_config(path)

    def test_readme_lists_every_key(self):
        """README's per-section bullets name exactly the derived keys, so a
        new dataclass field cannot become an undocumented INI key."""
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        text = text.split("\n## Configuration file\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for bullet in re.findall(r"^- `\[(\w+)\]` — (.*?)(?=^- |\Z)", text,
                                 re.M | re.S):
            section, body = bullet
            body = re.sub(r"\([^)]*\)", "", body)  # drop the notes in brackets
            documented[section] = sorted(re.findall(r"`(\w+)`", body))
        assert documented == {s: sorted(keys) for s, keys in INI_SCHEMA.items()}


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

    @pytest.mark.parametrize("section, key, value", REMOVED)
    def test_removed_key_is_validation_error(self, tmp_path, section, key, value,
                                             capsys):
        """The keys that are now constants are unknown, even at their value."""
        path = write_config(tmp_path / "c.ini", f"[{section}]\n{key} = {value}\n")
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "unknown key" in err
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("section, line", [
        ("pipeline", "epoch_seconds = nan"), ("pipeline", "epoch_seconds = inf"),
        ("asr", "calib_window_s = nan"), ("asr", "proc_window_s = inf"),
        ("synth", "fs = nan"), ("synth", "duration_s = inf"),
        ("synth", "seed = -1"), ("train", "seed = -1"),
        ("asr", "calib_window_s = 0"), ("asr", "proc_window_s = 0"),
        ("asr", "proc_window_s = 1e-9"),
        ("asr", "cutoff_k = 0"), ("asr", "cutoff_k = nan"),
        ("asr", "proc_overlap = 1"), ("asr", "proc_overlap = -0.1"),
        ("DEFAULT", "seed = 5"), ("DEFAULT", "warmup = 5")])
    def test_bad_value_is_validation_error(self, tmp_path, section, line, capsys):
        path = write_config(tmp_path / "c.ini", f"[{section}]\n{line}\n")
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("line, message", [
        ("epoch_seconds = 0.001", "less than one sample"),
        ("epoch_seconds = 60", "no epochs to write")])
    def test_synth_without_epochs_is_validation_error(self, tmp_path, line,
                                                      message, capsys):
        """A 1 ms epoch at 256 Hz rounds to no sample; a 60 s epoch does not
        fit the 30 s recordings."""
        path = write_config(tmp_path / "c.ini",
                            BASE_CONFIG.replace("epoch_seconds = 2.0", line))
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("old, new, message", [
        ("duration_s = 30", "duration_s = 1e-300", "less than one sample"),
        ("duration_s = 30", "duration_s = 0.05", "too short to filter"),
        ("artifact_rate_per_min = 1.0", "artifact_rate_per_min = 1e308",
         "above one burst per sample"),
        ("artifact_rate_per_min = 1.0", "artifact_rate_per_min = 15360",
         "artifact_rate_per_min 15360.0 compounds 2560 bursts"),
        ("fs = 256\nduration_s = 30", "fs = 1e308\nduration_s = 1e-300",
         "(fs x duration_s) is above"),
        ("epoch_seconds = 2.0", "epoch_seconds = 1e308", "more samples than an int64"),
        ("notch_hz = 60", "notch_hz = 1e-300", "notch frequency"),
        ("band_lo_hz = 1.0", "band_lo_hz = 1e-300", "band_lo"),
        ("line_noise_amp = 0.5", "line_noise_amp = 1e308", "line_noise_amp must be <="),
        ("line_noise_amp = 0.5", "line_noise_amp = 0.5\nsubject_bias_strength = 1e308",
         "subject_bias_strength must be <="),
        ("line_noise_amp = 0.5", "line_noise_amp = 0.5\nartifact_gain = 1e308",
         "artifact_gain must be <="),
        ("line_noise_amp = 0.5", "line_noise_amp = 0.5\n"
         "class_signature_0 = 1e308, 1, 1, 1, 1\nclass_signature_1 = 2, 1, 1, 1, 1",
         "class_signature[0] amplitudes must be <=")])
    def test_value_its_consumer_cannot_compute_is_validation_error(
            self, tmp_path, old, new, message, capsys):
        """Finite values that pass the schema but that the FFT, the Poisson
        draw, the sample count, the IIR filters, the memory or the float32
        epochs of the synthetic recordings cannot work with."""
        path = write_config(tmp_path / "c.ini", BASE_CONFIG.replace(old, new))
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("command, text", [
        ("preprocess", "[pipeline]\nepoch_seconds = nan\n"),
        ("synth", "[synth]\nfs = nan\n")])
    def test_non_finite_value_exits_1_without_traceback(self, tmp_path, command,
                                                        text):
        config = write_config(tmp_path / "c.ini", text)
        args = ["--config", config, "--out", str(tmp_path / "d")]
        if command == "preprocess":
            rec = TestPreprocessCommand.make_recording(str(tmp_path / "raw.safr"))
            args += ["--in", rec, "--subject", "s00", "--class", "0"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(safnet.__file__)))
        run = subprocess.run([sys.executable, "-m", "safnet.cli", command, *args],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        assert "finite" in run.stderr

    @staticmethod
    def nul_manifest(tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"path,subject,class,split\na\x00b.ndf,s0,0,test\n")
        return str(path)

    def test_nul_in_manifest_path_exits_1_without_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(safnet.__file__)))
        run = subprocess.run([sys.executable, "-m", "safnet.cli", "analyze",
                              "--manifest", self.nul_manifest(tmp_path),
                              "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        assert "m.csv:2: path 'a\\x00b.ndf' holds a NUL" in run.stderr
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["train", "grid", "eval", "analyze"])
    def test_nul_in_manifest_path_refused_by_every_reader(self, tmp_path, command,
                                                           capsys):
        args = ["--manifest", self.nul_manifest(tmp_path), "--out",
                str(tmp_path / "out" / "result")]
        if command in ("train", "grid"):
            args += ["--config", write_config(tmp_path / "c.ini")]
        if command == "eval":
            model = str(tmp_path / "model.safm")
            save_checkpoint(SafModel(EncoderConfig(C=2, M=32, fs=8.0), num_domains=2),
                            model)
            args += ["--model", model]
        code = main([command, *args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "m.csv:2:" in err and "NUL" in err
        assert not os.path.exists(tmp_path / "out")

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
        assert len(epoch_set.epochs) == 6
        assert np.all(np.isfinite(epoch_set.epochs[0].x))

    def test_calibration_on_the_input_is_filtered_once(self, tmp_path, monkeypatch):
        """--asr-calib naming the --in file reuses its filtered recording and
        writes the bytes of a run calibrated on a copy at another path."""
        config = write_config(tmp_path / "c.ini")
        rec_path = self.make_recording(str(tmp_path / "raw.safr"))
        copy_path = tmp_path / "copy.safr"
        copy_path.write_bytes(read_bytes(rec_path))
        calls = []

        def counting(rec, cfg, *args):
            calls.append(rec.samples)
            return dsp.filter_recording(rec, cfg, *args)

        monkeypatch.setattr("safnet.cli.filter_recording", counting)
        outputs = {}
        for name, calib in (("same", rec_path), ("copy", str(copy_path))):
            calls.clear()
            out = tmp_path / name
            code = main(["preprocess", "--config", config, "--in", rec_path,
                         "--subject", "s00", "--class", "0", "--out", str(out),
                         "--asr-calib", calib])
            assert code == 0
            outputs[name] = (len(calls), {f: (out / f).read_bytes()
                                          for f in sorted(os.listdir(out))})
        assert outputs["same"][0] == 1 and outputs["copy"][0] == 2
        assert outputs["same"][1] == outputs["copy"][1]
        assert "manifest.csv" in outputs["same"][1]

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

    @pytest.mark.parametrize("subject", ["../esc", "a/b", "a\\b"])
    def test_subject_with_path_separator_is_validation_error(self, tmp_path,
                                                             subject, capsys):
        """A subject id becomes part of each file name, so a separator would
        write outside --out."""
        config = write_config(tmp_path / "c.ini")
        rec_path = self.make_recording(str(tmp_path / "raw.safr"))
        parent = tmp_path / "out"
        parent.mkdir()
        code = main(["preprocess", "--config", config, "--in", rec_path,
                     "--subject", subject, "--class", "0",
                     "--out", str(parent / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "path separator" in err
        assert os.listdir(parent) == []

    @pytest.mark.parametrize("subject, message", [
        ("s" * 300, "up to 312 bytes"),
        ("a\udc80", "cannot be encoded as UTF-8")])
    def test_subject_no_file_name_can_hold_is_validation_error(
            self, tmp_path, capsys, subject, message):
        """300 characters make file names of 312 bytes, past the 255 a file
        name may have; a stray byte 0x80 in the argument reaches Python as
        a lone surrogate, which NDF's UTF-8 cannot hold. Either run exits 1
        and creates no directory."""
        config = write_config(tmp_path / "c.ini")
        rec_path = self.make_recording(str(tmp_path / "raw.safr"))
        parent = tmp_path / "out"
        parent.mkdir()
        code = main(["preprocess", "--config", config, "--in", rec_path,
                     "--subject", subject, "--class", "0",
                     "--out", str(parent / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert os.listdir(parent) == []

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
        x = np.stack([ep.x for ep in test_eps])
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

    def test_eval_at_another_rate_is_validation_error(self, tmp_path, capsys):
        """A checkpoint for 128 Hz, 2 s epochs run on 256 Hz, 1 s epochs of
        the same (C, M) exits 1, names both rates and writes nothing."""
        model_path = str(tmp_path / "model.safm")
        save_checkpoint(SafModel(EncoderConfig(C=2, M=256, fs=128.0),
                                 num_domains=2, seed=0), model_path)
        rng = np.random.default_rng(0)
        epochs = [Epoch(x=rng.standard_normal((2, 256)).astype(np.float32),
                        y=k % 2, s="s0", sample_rate_hz=256.0) for k in range(4)]
        data = str(tmp_path / "data")
        write_epoch_dir(EpochSet(epochs=epochs, split=["test"] * 4), data)
        run_dir = tmp_path / "run"
        code = main(["eval", "--model", model_path,
                     "--manifest", os.path.join(data, "manifest.csv"),
                     "--split", "test", "--out", str(run_dir / "m.csv")])
        assert code == 1
        assert ("sampled at 256.0 Hz but the model at 128.0 Hz"
                in capsys.readouterr().err)
        assert not run_dir.exists()


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

    def test_zero_budget_is_validation_error(self, dataset, tmp_path, capsys):
        """Named as the budget, not as the epoch bounds of a cell's config."""
        config, out = dataset
        grid_path = str(tmp_path / "grid.csv")
        code = main(["grid", "--config", config,
                     "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", grid_path, "--n-mi", "2", "--n-grl", "2",
                     "--budget", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "budget_epochs must be >= 1" in err
        assert not os.path.exists(grid_path)

    def test_zero_jobs_is_validation_error(self, dataset, tmp_path, capsys):
        config, out = dataset
        grid_path = str(tmp_path / "grid.csv")
        code = main(["grid", "--config", config,
                     "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", grid_path, "--n-mi", "2", "--n-grl", "2",
                     "--budget", "1", "--jobs", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "jobs" in err
        assert not os.path.exists(grid_path)


class TestOutputDirectories:
    def test_quick_start_writes_into_a_fresh_run_directory(self, dataset, tmp_path,
                                                           monkeypatch):
        """train, eval and grid create the directories their --out and --log
        name, as README's quick start expects of run/."""
        config, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", config, "--manifest", manifest,
                     "--out", "run/model.safm", "--log", "run/log/train.csv"]) == 0
        assert main(["eval", "--model", "run/model.safm", "--manifest", manifest,
                     "--split", "test", "--out", "run/eval/metrics.csv"]) == 0
        assert main(["grid", "--config", config, "--manifest", manifest,
                     "--out", "run/grid/grid.csv", "--n-mi", "2", "--n-grl", "2",
                     "--budget", "1"]) == 0
        assert sorted(os.listdir("run")) == ["eval", "grid", "log", "model.safm"]
        for path in ("run/log/train.csv", "run/eval/metrics.csv", "run/grid/grid.csv"):
            assert os.path.isfile(path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_refused_run_creates_no_directory(self, dataset, tmp_path, monkeypatch):
        """A diverged train, an eval of an empty split and a grid with no
        budget each exit 1 before creating run/."""
        config, out = dataset
        manifest = os.path.join(out, "manifest.csv")
        model_path = str(tmp_path / "model.safm")
        assert main(["train", "--config", config, "--manifest", manifest,
                     "--out", model_path]) == 0
        diverging = write_config(tmp_path / "c.ini",
                                 BASE_CONFIG.replace("seed = 1", "seed = 1\nlr = 1e30"))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", diverging, "--manifest", manifest,
                     "--out", "run/model.safm", "--log", "run/train.csv"]) == 1
        assert main(["eval", "--model", model_path, "--manifest", manifest,
                     "--split", "none", "--out", "run/metrics.csv"]) == 1
        assert main(["grid", "--config", config, "--manifest", manifest,
                     "--out", "run/grid.csv", "--n-mi", "2", "--n-grl", "2",
                     "--budget", "0"]) == 1
        assert not os.path.exists("run")


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

    def test_subject_emptied_by_outlier_fence(self, tmp_path):
        """Subject b's epochs are 1000x louder, so the IQR fence over all
        epochs removes every one of them: the per-subject means and the CV
        cover a and c only, and each mean is the plain mean of the kept
        epochs' band powers over epochs and channels."""
        fs, rng = 128.0, np.random.default_rng(0)
        epochs = [Epoch(x=(1000.0 if s == "b" else 1.0)
                        * rng.standard_normal((2, 512)).astype(np.float32),
                        y=k % 2, s=s, sample_rate_hz=fs)
                  for s, n in (("a", 8), ("b", 3), ("c", 8)) for k in range(n)]
        data, adir = str(tmp_path / "data"), str(tmp_path / "analysis")
        write_epoch_dir(EpochSet(epochs=epochs), data)
        assert main(["analyze", "--manifest", os.path.join(data, "manifest.csv"),
                     "--out", adir]) == 0

        bands = clip_bands(BandDefinition(), fs / 2.0)
        features = log_band_power_features([ep.x for ep in epochs], fs, bands)
        mask = iqr_row_mask(features)
        subjects = np.array([ep.s for ep in epochs])
        assert not mask[subjects == "b"].any()
        powers = np.exp(features).reshape(len(epochs), 2, len(bands.bands))
        expected = {s: powers[mask & (subjects == s)].mean(axis=(0, 1))
                    for s in ("a", "c")}

        with open(os.path.join(adir, "psd_bands.csv"), encoding="utf-8") as fh:
            psd_rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [(s, band) for s, band, _ in psd_rows] == [
            (s, name) for s in ("a", "c") for name, _, _ in bands.bands]
        for s, band, value in psd_rows:
            b = [name for name, _, _ in bands.bands].index(band)
            assert float(value) == pytest.approx(expected[s][b], rel=1e-5)

        with open(os.path.join(adir, "cv.csv"), encoding="utf-8") as fh:
            cv_rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(cv_rows) == len(bands.bands)
        for b, (band, value) in enumerate(cv_rows):
            pair = np.array([expected["a"][b], expected["c"][b]])
            assert band == bands.bands[b][0]
            assert float(value) == pytest.approx(pair.std() / pair.mean(),
                                                 rel=1e-5)

    def test_subject_left_with_one_epoch_writes_nothing(self, tmp_path, capsys):
        """s0 has 20 epochs and s1 two, one of them 50x louder: the IQR fence
        leaves s1 one epoch, too few for the F statistic. analyze exits 1,
        names the subject and its count, and creates no output."""
        fs, rng = 128.0, np.random.default_rng(0)
        epochs = [Epoch(x=gain * rng.standard_normal((2, 512)).astype(np.float32),
                        y=k % 2, s=s, sample_rate_hz=fs)
                  for s, gains in (("s0", [1.0] * 20), ("s1", [1.0, 50.0]))
                  for k, gain in enumerate(gains)]
        data, adir = str(tmp_path / "data"), tmp_path / "analysis"
        write_epoch_dir(EpochSet(epochs=epochs), data)
        assert main(["analyze", "--manifest", os.path.join(data, "manifest.csv"),
                     "--out", str(adir)]) == 1
        assert ("outlier filtering left subject 's1' with 1 epoch"
                in capsys.readouterr().err)
        assert not adir.exists()

    @pytest.mark.parametrize("fs", [100.5, 8.8])
    def test_non_integer_rate(self, fs, tmp_path):
        """At 100.5 Hz the 201-sample Welch window has no bin at fs/2, and at
        8.8 Hz, stored as float32, the top bin is an ulp below fs/2: the
        top band ends at the grid's top bin, and all four files appear."""
        rng = np.random.default_rng(0)
        epochs = [Epoch(x=rng.standard_normal((2, round(2.5 * fs))).astype(np.float32),
                        y=k % 2, s=s, sample_rate_hz=fs)
                  for s in ("a", "b") for k in range(8)]
        data, adir = str(tmp_path / "data"), tmp_path / "analysis"
        write_epoch_dir(EpochSet(epochs=epochs), data)
        assert main(["analyze", "--manifest", os.path.join(data, "manifest.csv"),
                     "--out", str(adir)]) == 0
        assert sorted(os.listdir(adir)) == ["cv.csv", "fstat.txt", "psd_bands.csv",
                                            "silhouette.txt"]

    def test_single_subject_is_validation_error(self, tmp_path):
        config = write_config(tmp_path / "c.ini")
        rec = TestPreprocessCommand.make_recording(str(tmp_path / "raw.safr"))
        out = str(tmp_path / "pre")
        assert main(["preprocess", "--config", config, "--in", rec,
                     "--subject", "s00", "--class", "0", "--out", out]) == 0
        code = main(["analyze", "--manifest", os.path.join(out, "manifest.csv"),
                     "--out", str(tmp_path / "a")])
        assert code == 1


# A config small enough for about 0.1 s per fuzz case in process; the 2 s
# epochs are long enough for analyze's Welch windows.
FUZZ_BASE = {
    "synth": {"subjects": "2", "channels": "2", "fs": "64", "duration_s": "12",
              "seed": "3"},
    "pipeline": {"band_lo_hz": "1.0", "band_hi_hz": "30.0", "notch_hz": "20",
                 "target_rate_hz": "64.0", "epoch_seconds": "2.0"},
    "train": {"max_epochs": "1", "min_epochs": "1", "batch_size": "8"},
}
# Edge values of each INI value kind. Large ints are left out: a large
# channel or subject count allocates without bound before anything fails.
EDGE_VALUES = {float: ["0", "-1", "1e-300", "1e308"], int: ["-1", "0", "1"],
               tuple: [""]}
SCHEMA_KEYS = [(section, key) for section, keys in INI_SCHEMA.items()
               for key in keys]


def fuzz_config(edits):
    """FUZZ_BASE with each (section, key, value) of edits set, as INI text."""
    sections = {section: dict(keys) for section, keys in FUZZ_BASE.items()}
    for section, key, value in edits:
        sections.setdefault(section, {})[key] = value
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


def run_fuzz_case(root, edits):
    """Run preprocess, then synth, train, eval and analyze while each exits 0,
    on one fuzzed config, in a new directory under root and with root as the
    working directory. Every exit is 0, 1 or 2, exit 1 prints `error:`, and
    nothing but the case's directory appears in root."""
    before = set(os.listdir(root))
    case = tempfile.mkdtemp(dir=root)
    config = write_config(os.path.join(case, "c.ini"), fuzz_config(edits))
    raw = os.path.join(case, "raw.safr")
    write_recording(Recording(data=np.random.default_rng(0).standard_normal((2, 768)),
                              sample_rate_hz=64.0), raw)
    data = os.path.join(case, "data")
    manifest = os.path.join(data, "manifest.csv")
    model = os.path.join(case, "model.safm")
    pipeline = [
        ["synth", "--config", config, "--out", data],
        ["train", "--config", config, "--manifest", manifest, "--out", model,
         "--lambda-mi", "1", "--lambda-grl", "1"],
        ["eval", "--model", model, "--manifest", manifest,
         "--out", os.path.join(case, "eval.csv")],
        ["analyze", "--manifest", manifest, "--out", os.path.join(case, "an")]]
    preprocess = ["preprocess", "--config", config, "--in", raw, "--subject",
                  "s00", "--class", "0", "--out", os.path.join(case, "pre"),
                  "--asr-calib", raw]
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in [preprocess] + pipeline:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], edits, code)
            if code == 1:
                assert err.getvalue().startswith("error: "), (
                    argv[0], edits, err.getvalue())
            if code != 0 and argv[0] != "preprocess":
                break
    finally:
        os.chdir(cwd)
    assert set(os.listdir(root)) == before | {os.path.basename(case)}


@st.composite
def fuzz_edits(draw):
    keys = draw(st.lists(st.sampled_from(SCHEMA_KEYS), min_size=1, max_size=2,
                         unique=True))
    out = []
    for section, key in keys:
        kind = KEY_KINDS[section][key]
        out.append((section, key, draw(st.sampled_from(EDGE_VALUES[kind]))))
    return out


class TestFuzz:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(fuzz_edits())
    def test_edge_values_exit_cleanly(self, tmp_path_factory, edits):
        """One or two INI keys at edge values: every subcommand exits 0, 1
        or 2 without a traceback, and writes only under its directory."""
        run_fuzz_case(str(tmp_path_factory.mktemp("fuzz")), edits)
