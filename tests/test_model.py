import math
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings

from _corruption import corruptions, valid_blob
from _gradcheck import max_relative_error, numeric_gradient, sample_indices
from safnet import autodiff as ad
from safnet import model as model_module
from safnet.autodiff import Tensor
from safnet.errors import FormatError, ValidationError
from safnet.model import EncoderConfig, SafModel, load_checkpoint, save_checkpoint
from safnet.train import AdamState, LossWeights, adam_step, compute_losses


def small_model(dtype=np.float32, k=3, seed=0):
    cfg = EncoderConfig(C=4, M=64, fs=32.0)
    return SafModel(cfg, num_domains=k, seed=seed, dtype=dtype)


class TestArchitectureArithmetic:
    def test_feature_dim_full_scale(self):
        cfg = EncoderConfig(C=15, M=3072, fs=512.0)
        assert cfg.temporal_kernel == 256
        assert cfg.feature_dim == 16 * 96 == 1536

    def test_feature_dim_small(self):
        cfg = EncoderConfig(C=4, M=64, fs=32.0)
        assert cfg.temporal_kernel == 16
        assert cfg.feature_dim == 32

    def test_pooling_too_aggressive_rejected(self):
        with pytest.raises(ValidationError):
            EncoderConfig(C=4, M=16, fs=32.0)


def both_heads(model, x):
    """Task and domain logits in eval mode."""
    return model.heads_forward(model.encoder_forward(x), 0.0)


class TestForward:
    def test_predict_skips_domain_head(self, monkeypatch):
        """predict runs only the encoder and the task head: NaN domain-head
        weights leave its labels as they were, and it never calls
        heads_forward."""
        model = small_model()
        x = np.random.default_rng(4).standard_normal((9, 1, 4, 64)).astype(np.float32)
        expected = np.argmax(both_heads(model, x)[0].data, axis=1)
        for name in ("dom1_w", "dom1_b", "dom2_w", "dom2_b"):
            model.params[name].data[...] = np.nan

        def no_heads(*args):
            raise AssertionError("predict ran the domain head")

        monkeypatch.setattr(SafModel, "heads_forward", no_heads)
        assert np.array_equal(model.predict(x), expected)

    def test_eval_deterministic(self):
        model = small_model()
        x = np.random.default_rng(0).standard_normal((5, 1, 4, 64)).astype(np.float32)
        t1, d1 = both_heads(model, x)
        t2, d2 = both_heads(model, x)
        assert np.array_equal(t1.data, t2.data)
        assert np.array_equal(d1.data, d2.data)

    def test_batch_size_invariance(self):
        model = small_model()
        x = np.random.default_rng(1).standard_normal((5, 1, 4, 64)).astype(np.float32)
        batched, _ = both_heads(model, x)
        single, _ = both_heads(model, x[:1])
        assert np.max(np.abs(batched.data[0] - single.data[0])) < 1e-5

    def test_zero_heads_give_zero_logits(self):
        model = small_model()
        for name in ("task_w", "task_b", "dom1_w", "dom1_b", "dom2_w", "dom2_b"):
            model.params[name].data = np.zeros_like(model.params[name].data)
        x = np.random.default_rng(2).standard_normal((3, 1, 4, 64)).astype(np.float32)
        task, dom = both_heads(model, x)
        assert np.all(task.data == 0.0)
        assert np.all(dom.data == 0.0)

    def test_domain_logits_shape(self):
        model = small_model(k=5)
        x = np.random.default_rng(3).standard_normal((7, 1, 4, 64)).astype(np.float32)
        _, dom = both_heads(model, x)
        assert dom.data.shape == (7, 5)

    def test_shape_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(ValidationError):
            both_heads(model, np.zeros((2, 1, 5, 64), dtype=np.float32))

    def test_train_mode_needs_rng(self):
        model = small_model()
        with pytest.raises(ValidationError):
            model.encoder_forward(np.zeros((2, 1, 4, 64), dtype=np.float32),
                                mode="train")

    def test_init_seeded(self):
        a, b = small_model(seed=7), small_model(seed=7)
        c = small_model(seed=8)
        assert all(np.array_equal(a.params[n].data, b.params[n].data)
                   for n in a.params)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)


def true_gradient_loss(model, x, y, s, lam_mi=0.7):
    """Combined loss with the domain head reading z directly.

    An active reversal layer makes the backward pass intentionally differ
    from the true derivative of the forward loss, so finite differences can
    only validate the graph with the reversal bypassed; the exact -lambda
    scaling contract is asserted separately.
    """
    rng = np.random.default_rng(42)  # identical dropout masks per call
    z = model.encoder_forward(Tensor(x), mode="train", rng=rng)
    task = ad.linear(z, model.params["task_w"], model.params["task_b"])
    hidden = ad.elu(ad.linear(z, model.params["dom1_w"], model.params["dom1_b"]))
    dom = ad.linear(hidden, model.params["dom2_w"], model.params["dom2_b"])
    loss = ad.add(ad.softmax_cross_entropy(task, y),
                  ad.softmax_cross_entropy(dom, s))
    return ad.add(loss, ad.mul(ad.entropy_of_softmax(dom),
                               Tensor(np.asarray(lam_mi, dtype=x.dtype))))


class TestFullModelGradients:
    def test_sampled_parameters_match_finite_differences(self):
        model = small_model(dtype=np.float64)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 1, 4, 64))
        y = np.array([0, 1, 0])
        s = np.array([0, 2, 1])

        model.zero_grad()
        true_gradient_loss(model, x, y, s).backward()

        for name, p in model.params.items():
            idx = sample_indices(rng, p.data.size, 8)
            numeric, _ = numeric_gradient(
                lambda: true_gradient_loss(model, x, y, s).item(), p.data,
                indices=idx)
            err = max_relative_error(p.grad.reshape(-1)[idx], numeric)
            assert err < 1e-3, (name, err)

    def test_domain_gradient_sign_flips_through_grl(self):
        model = small_model(dtype=np.float64)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 1, 4, 64))
        s = np.array([0, 1, 2, 0])

        def domain_loss(use_grl):
            z = model.encoder_forward(Tensor(x), mode="eval")
            zd = ad.grl(z, 1.0) if use_grl else z
            hidden = ad.elu(ad.linear(zd, model.params["dom1_w"], model.params["dom1_b"]))
            dom = ad.linear(hidden, model.params["dom2_w"], model.params["dom2_b"])
            return ad.softmax_cross_entropy(dom, s)

        model.zero_grad()
        domain_loss(use_grl=True).backward()
        with_grl = model.params["conv_temporal_w"].grad.copy()
        model.zero_grad()
        domain_loss(use_grl=False).backward()
        without = model.params["conv_temporal_w"].grad
        assert np.array_equal(with_grl, -without)
        assert np.any(without != 0.0)

    def test_lambda_zero_blocks_domain_gradient_into_encoder(self):
        model = small_model(dtype=np.float64)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 1, 4, 64))
        s = np.array([0, 1, 2])
        model.zero_grad()
        z = model.encoder_forward(Tensor(x), mode="eval")
        _, dom = model.heads_forward(z, 0.0)
        ad.softmax_cross_entropy(dom, s).backward()
        assert np.all(model.params["conv_temporal_w"].grad == 0.0)
        assert np.any(model.params["dom2_w"].grad != 0.0)


def resealed(blob) -> bytes:
    """blob with its CRC-32 trailer recomputed over the edited body, so the
    edit reaches the checks behind the checksum."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model(k=4, seed=5)
        # push the running stats away from their init values
        x = np.random.default_rng(6).standard_normal((8, 1, 4, 64)).astype(np.float32)
        model.encoder_forward(x, mode="train", rng=np.random.default_rng(0))
        path = str(tmp_path / "m.safm")
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.cfg == model.cfg
        assert back.num_domains == 4
        for name in model.params:
            assert np.array_equal(back.params[name].data, model.params[name].data)
        for name in model.buffers:
            assert np.array_equal(back.buffers[name], model.buffers[name])
        t1, d1 = both_heads(model, x)
        t2, d2 = both_heads(back, x)
        assert np.array_equal(t1.data, t2.data)
        assert np.array_equal(d1.data, d2.data)

    # small_model's tensors as the checkpoint stores them: parameters, then
    # the batch-norm running buffers, each (name, shape), in file order
    PINNED_LAYOUT = [
        ("conv_temporal_w", (8, 16)), ("bn1_gamma", (8,)), ("bn1_beta", (8,)),
        ("conv_spatial_w", (8, 2, 4)), ("bn2_gamma", (16,)), ("bn2_beta", (16,)),
        ("conv_sep_depth_w", (16, 16)), ("conv_sep_point_w", (16, 16)),
        ("bn3_gamma", (16,)), ("bn3_beta", (16,)), ("task_w", (32, 2)),
        ("task_b", (2,)), ("dom1_w", (32, 64)), ("dom1_b", (64,)),
        ("dom2_w", (64, 3)), ("dom2_b", (3,)),
        ("bn1_mean", (8,)), ("bn1_var", (8,)), ("bn2_mean", (16,)),
        ("bn2_var", (16,)), ("bn3_mean", (16,)), ("bn3_var", (16,)),
    ]

    @staticmethod
    def stored_layout(path):
        """(name, shape) of every tensor in a checkpoint file, in order."""
        with open(path, "rb") as fh:
            blob = fh.read()
        pos = 8 + struct.calcsize(model_module._HEADER)
        layout = []
        while pos < len(blob) - 4:
            (size,) = struct.unpack_from("<I", blob, pos)
            name = blob[pos + 4:pos + 4 + size].decode("utf-8")
            pos += 4 + size
            (ndim,) = struct.unpack_from("<I", blob, pos)
            shape = struct.unpack_from(f"<{ndim}I", blob, pos + 4)
            pos += 4 + 4 * ndim + 4 * math.prod(shape)
            layout.append((name, shape))
        return layout

    def test_layout_after_a_training_step(self, tmp_path):
        """One training step through the fused first stage leaves the
        checkpoint layout as it was, and predictions survive the round trip."""
        model = small_model(k=3, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 1, 4, 64)).astype(np.float32)
        *_, total = compute_losses(x, rng.integers(0, 2, 8), rng.integers(0, 3, 8),
                                   model, LossWeights(lambda_mi=1.0, lambda_grl=1.0),
                                   mode="train", rng=np.random.default_rng(4))
        total.backward()
        adam_step(model.params, AdamState(model.params), 1e-3)
        assert not np.array_equal(model.buffers["bn2_mean"], np.zeros(16))
        before = model.predict(x)
        path = str(tmp_path / "m.safm")
        save_checkpoint(model, path)
        assert self.stored_layout(path) == self.PINNED_LAYOUT
        assert np.array_equal(load_checkpoint(path).predict(x), before)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.safm"
        p.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(str(p))

    def test_truncated(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.safm"
        save_checkpoint(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_checkpoint(str(path))
        path.write_bytes(resealed(blob[:-104] + blob[-4:]))
        with pytest.raises(FormatError, match="truncated checkpoint"):
            load_checkpoint(str(path))

    def test_buffer_shape_mismatch(self, tmp_path):
        model = small_model()
        model.buffers["bn1_mean"] = np.full(1, 0.5, dtype=np.float32)
        path = str(tmp_path / "m.safm")
        save_checkpoint(model, path)
        with pytest.raises(FormatError, match="bn1_mean"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.safm"
        save_checkpoint(small_model(), str(path))
        blob = path.read_bytes()
        path.write_bytes(resealed(blob[:-4] + b"\x00" + blob[-4:]))
        with pytest.raises(FormatError, match="1 trailing bytes after"):
            load_checkpoint(str(path))

    def test_corrupt_header_checked_before_model_is_built(self, tmp_path,
                                                          monkeypatch):
        """A header asking for a huge model is rejected from the stored
        shapes alone: M's high byte set makes the heads ~10^9 wide."""
        path = tmp_path / "m.safm"
        save_checkpoint(small_model(), str(path))
        blob = bytearray(path.read_bytes())
        blob[15] ^= 0x40  # high byte of M, after magic, version and C
        path.write_bytes(resealed(blob))

        def refuse(*args, **kwargs):
            raise AssertionError("model built before the header was checked")

        monkeypatch.setattr(model_module, "SafModel", refuse)
        with pytest.raises(FormatError):
            load_checkpoint(str(path))

    def test_shape_product_beyond_any_buffer(self, tmp_path):
        path = tmp_path / "m.safm"
        save_checkpoint(small_model(), str(path))
        blob = bytearray(path.read_bytes())
        # first tensor: name length at 64, "conv_temporal_w", ndim, shape
        assert blob[68:83] == b"conv_temporal_w"
        struct.pack_into("<II", blob, 87, 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(resealed(blob))
        with pytest.raises(FormatError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name", ["conv_temporal_w", "bn2_gamma", "bn3_var",
                                      "dom2_b"])
    @pytest.mark.parametrize("last", [False, True])
    def test_flipped_exponent_is_format_error(self, tmp_path, name, last):
        """Setting every exponent bit of one stored float32 makes it NaN or
        inf; the reader refuses it instead of loading a broken model."""
        path = tmp_path / "m.safm"
        model = small_model()
        save_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        value = model.params.get(name)
        shape = value.data.shape if value is not None else model.buffers[name].shape
        at = blob.index(name.encode()) + len(name) + 4 + 4 * len(shape)
        if last:
            at += 4 * (math.prod(shape) - 1)
        blob[at + 3] |= 0x7F  # sign kept; exponent bits 30..23 all set
        blob[at + 2] |= 0x80
        assert not np.isfinite(np.frombuffer(bytes(blob[at:at + 4]), "<f4")[0])
        path.write_bytes(resealed(blob))
        with pytest.raises(FormatError, match=name):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite_model(self, tmp_path, bad):
        model = small_model()
        model.params["task_b"].data[1] = bad
        path = tmp_path / "m.safm"
        with pytest.raises(ValidationError, match="task_b"):
            save_checkpoint(model, str(path))
        assert not path.exists()

    def test_save_refuses_float64_model(self, tmp_path):
        """A checkpoint stores float32 only, so a float64 model is refused
        instead of loading back as float32; this covers a float64 value
        beyond float32's range too."""
        model = small_model(dtype=np.float64)
        path = tmp_path / "m.safm"
        with pytest.raises(ValidationError, match="conv_temporal_w is float64"):
            save_checkpoint(model, str(path))
        assert not path.exists()

    def test_save_refuses_one_float64_buffer(self, tmp_path):
        model = small_model()
        model.buffers["bn1_var"] = model.buffers["bn1_var"].astype(np.float64)
        with pytest.raises(ValidationError, match="bn1_var is float64"):
            save_checkpoint(model, str(tmp_path / "m.safm"))

    @pytest.mark.parametrize("fields", [
        {48: ("<d", 2.0)},                     # dropout outside [0, 1)
        {40: ("<I", 0)},                       # pool1 of zero
        {36: ("<I", 0), 16: ("<d", np.inf)},   # kernel from an infinite rate
        {24: ("<I", 4)},                       # F1 other than the encoder's
        {28: ("<I", 1)},                       # D other than the encoder's
        {32: ("<I", 8)},                       # F2 other than the encoder's
        {44: ("<I", 4)},                       # pool2 other than the encoder's
    ])
    def test_header_the_config_rejects(self, tmp_path, fields):
        path = tmp_path / "m.safm"
        save_checkpoint(small_model(), str(path))
        blob = bytearray(path.read_bytes())
        for offset, (fmt, value) in fields.items():
            struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(resealed(blob))
        with pytest.raises(FormatError, match="invalid model header"):
            load_checkpoint(str(path))

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "m.safm"
        save_checkpoint(small_model(), str(path))
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0x01  # lowest mantissa bit of the last stored value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_checkpoint(str(path))

    def test_version_2_refused(self, tmp_path):
        """Version 2 had no checksum; its files are refused by version."""
        path = tmp_path / "m.safm"
        save_checkpoint(small_model(), str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 2)
        path.write_bytes(bytes(blob[:-4]))
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(str(path))


SAFM_BLOB = valid_blob(save_checkpoint, SafModel(
    EncoderConfig(C=1, M=32, fs=2.0), num_domains=1, seed=1))


def load_blob(blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blob.safm")
        with open(path, "wb") as fh:
            fh.write(blob)
        load_checkpoint(path)


class TestCorruptCheckpoint:
    @settings(max_examples=400, deadline=None)
    @given(corruptions(SAFM_BLOB))
    def test_every_truncation_and_flip_raises(self, corruption):
        with pytest.raises(FormatError):
            load_blob(corruption[0])

    def test_every_single_byte_flip_raises(self):
        """The CRC-32 trailer catches any error confined to one byte, so no
        flip of any byte of the file reads back."""
        for pos in range(len(SAFM_BLOB)):
            flipped = bytearray(SAFM_BLOB)
            flipped[pos] ^= pos % 255 + 1
            with pytest.raises(FormatError):
                load_blob(bytes(flipped))


class TestTruncatedFields:
    # magic and version 0..8, header 8..64; the first tensor's name length
    # 64..68, "conv_temporal_w" 68..83, ndim and shape (8, 1) 83..95,
    # payload 95..127; the last tensor's name length 8002..8006, "bn3_var"
    # 8006..8013, ndim and shape (16,) 8013..8021, payload 8021..8085; CRC-32
    @pytest.mark.parametrize("field, start, end", [
        ("header", 8, 64), ("tensor name length", 64, 68),
        ("tensor name", 68, 83), ("shape of conv_temporal_w", 83, 95),
        ("payload of conv_temporal_w", 95, 127),
        ("tensor name length", 8002, 8006), ("tensor name", 8006, 8013),
        ("shape of bn3_var", 8013, 8021), ("payload of bn3_var", 8021, 8085)])
    def test_safm(self, tmp_path, field, start, end):
        """A cut one byte into a field, or one byte before its end, behind a
        CRC-32 recomputed for the cut body, names that field."""
        assert len(SAFM_BLOB) == 8089
        path = tmp_path / "m.safm"
        for cut in (start + 1, end - 1):
            path.write_bytes(resealed(SAFM_BLOB[:cut] + bytes(4)))
            with pytest.raises(FormatError) as info:
                load_checkpoint(str(path))
            assert str(info.value) == (f"{path}: truncated checkpoint: too short "
                                       f"for the {field}")
