import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from orthokit.apps import (
    DigitModel,
    digits_classify,
    digits_train,
    load_digit_model,
    read_digits_csv,
    save_digit_model,
    synth_digit_data,
    write_digits_csv,
)
from helpers import fro, written


def small_synthetic(per_class=12, dim=40, subspace_dim=3, seed=9, noise=1e-3):
    return synth_digit_data(per_class, classes=10, seed=seed, dim=dim,
                            subspace_dim=subspace_dim, noise=noise)


def split_classes(x, labels):
    return [np.ascontiguousarray(x[:, labels == c]) for c in range(10)]


class TestTraining:
    def test_constant_class_basis_is_the_direction(self):
        v = np.arange(1.0, 9.0)
        classes = [np.tile(v[:, None], (1, 4)) for _ in range(10)]
        model = digits_train(classes, 1)
        unit = v / np.linalg.norm(v)
        for basis in model.bases:
            gap = min(np.linalg.norm(basis[:, 0] - unit), np.linalg.norm(basis[:, 0] + unit))
            assert gap <= 1e-12

    def test_bases_orthonormal(self):
        x, labels = small_synthetic()
        model = digits_train(split_classes(x, labels), 3)
        for basis in model.bases:
            assert fro(basis.T @ basis - np.eye(3)) <= 1e-9

    def test_training_residual_monotone_in_k(self):
        x, labels = small_synthetic(per_class=10, dim=30, subspace_dim=4)
        classes = split_classes(x, labels)
        sample = classes[0][:, :1]
        prev = np.inf
        for k in range(1, 7):
            model = digits_train(classes, k)
            _, residuals = digits_classify(model, sample)
            assert residuals[0, 0] <= prev + 1e-10
            prev = residuals[0, 0]

    def test_k_exceeding_samples_rejected(self):
        classes = [np.ones((8, 3)) for _ in range(10)]
        with pytest.raises(ValueError, match="samples"):
            digits_train(classes, 4)

    def test_wrong_class_count_rejected(self):
        with pytest.raises(ValueError, match="10"):
            digits_train([np.ones((8, 3))] * 9, 1)


class TestClassification:
    def test_in_span_vector_has_zero_residual(self):
        x, labels = small_synthetic()
        classes = split_classes(x, labels)
        model = digits_train(classes, 3)
        for c in (0, 4, 9):
            basis = model.bases[c]
            d = basis @ np.array([1.0, -2.0, 0.5])
            pred, residuals = digits_classify(model, d[:, None])
            assert residuals[c, 0] <= 1e-9
            assert pred[0] == c

    def test_synthetic_perfect_accuracy(self):
        x, labels = small_synthetic(per_class=20)
        train = [np.ascontiguousarray(x[:, labels == c][:, :15]) for c in range(10)]
        test_cols = [x[:, labels == c][:, 15:] for c in range(10)]
        test = np.hstack(test_cols)
        truth = np.repeat(np.arange(10), 5)
        model = digits_train(train, 3)
        pred, _ = digits_classify(model, test)
        assert (pred == truth).all()

    def test_residual_scales_with_input(self):
        x, labels = small_synthetic()
        model = digits_train(split_classes(x, labels), 3)
        rng = np.random.default_rng(10)
        d = rng.standard_normal((40, 1))
        pred1, res1 = digits_classify(model, d)
        pred2, res2 = digits_classify(model, 3.5 * d)
        assert np.abs(res2 - 3.5 * res1).max() <= 1e-9
        assert pred1[0] == pred2[0]

    def test_residuals_bounded_by_input_norm(self):
        x, labels = small_synthetic()
        model = digits_train(split_classes(x, labels), 2)
        rng = np.random.default_rng(11)
        d = rng.standard_normal((40, 7))
        _, residuals = digits_classify(model, d)
        norms = np.linalg.norm(d, axis=0)
        assert (residuals >= 0).all()
        assert (residuals <= norms[None, :] + 1e-12).all()

    def test_batched_equals_per_vector(self):
        x, labels = small_synthetic()
        model = digits_train(split_classes(x, labels), 3)
        rng = np.random.default_rng(12)
        d = rng.standard_normal((40, 9))
        _, batched = digits_classify(model, d)
        for j in range(9):
            _, single = digits_classify(model, d[:, j : j + 1])
            assert np.abs(batched[:, j] - single[:, 0]).max() <= 1e-12

    def test_dimension_mismatch_rejected(self):
        x, labels = small_synthetic()
        model = digits_train(split_classes(x, labels), 2)
        with pytest.raises(ValueError, match="rows"):
            digits_classify(model, np.ones((39, 2)))

    def test_tie_breaks_to_smallest_class(self):
        basis = np.eye(6)[:, :1]
        model = DigitModel(bases=[basis.copy() for _ in range(10)], k=1)
        pred, _ = digits_classify(model, np.ones((6, 1)))
        assert pred[0] == 0


class TestPersistence:
    def test_model_roundtrip_bitwise(self, tmp_path):
        x, labels = synth_digit_data(8, classes=10, seed=4, dim=784, subspace_dim=2)
        model = digits_train(split_classes(x, labels), 2)
        path = tmp_path / "model.okdm"
        save_digit_model(model, path)
        back = load_digit_model(path)
        assert back.k == 2
        for b1, b2 in zip(model.bases, back.bases):
            assert np.array_equal(b1, b2)
        raw = path.read_bytes()
        assert raw[:4] == b"OKDM"
        assert len(raw) == 4 + 8 + 10 * 784 * 2 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.okdm"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            load_digit_model(path)

    def test_header_k_past_the_file_size_allocates_nothing(self, tmp_path):
        # k = 2^14 would be ten 100 MiB blocks; the file holds 8 bytes of data.
        path = tmp_path / "huge_k.okdm"
        path.write_bytes(b"OKDM" + struct.pack("<II", 1, 2**14) + b"\x00" * 8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated model file"):
                load_digit_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_wrong_dimension_rejected(self, tmp_path):
        model = DigitModel(bases=[np.eye(8)[:, :2] for _ in range(10)], k=2)
        with pytest.raises(ValueError, match="784"):
            save_digit_model(model, tmp_path / "m.okdm")

    def test_csv_roundtrip(self, tmp_path):
        x, labels = synth_digit_data(3, classes=10, seed=5)
        path = tmp_path / "digits.csv"
        write_digits_csv(path, x, labels)
        x2, labels2 = read_digits_csv(path)
        assert np.array_equal(labels2, labels)
        assert x2.shape == (784, 30)
        assert x2.min() >= 0 and x2.max() <= 255
        assert np.array_equal(x2, np.rint(x2))  # integer pixels

    def test_csv_fractional_label_rejected(self, tmp_path):
        x, labels = synth_digit_data(1, classes=3, seed=5)
        path = tmp_path / "digits.csv"
        write_digits_csv(path, x, labels)
        lines = path.read_text().splitlines()
        lines[1] = "3.7" + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"digits\.csv: row 2: label 3\.7 is not an integer"):
            read_digits_csv(path)

    def test_csv_bytes_are_pinned(self, tmp_path):
        # sha256 of what the per-sample writer of earlier releases produced
        # ("label," then str(int) pixels) for this synthetic set.
        x, labels = synth_digit_data(per_class=2, seed=3)
        path = tmp_path / "digits.csv"
        write_digits_csv(path, x, labels)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "54f28d7db55a728843c72fb6f5c49327860a52bbbb492aeb511ce093aaaa67a2")
        x2, labels2 = read_digits_csv(path)
        assert np.array_equal(labels2, labels)
        assert np.array_equal(x2, np.rint(128.0 + 48.0 * x).clip(0, 255))

    @pytest.mark.parametrize("labels, match", [
        ([1, 3.7], r"d\.csv: row 2: label 3\.7 is not an integer"),
        ([1, 12], r"d\.csv: labels must be in 0\.\.9"),
        ([-1, 1], r"d\.csv: labels must be in 0\.\.9"),
    ], ids=["fractional", "above-9", "negative"])
    def test_csv_writer_rejects_what_the_reader_rejects(self, tmp_path, labels, match):
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=match):
            write_digits_csv(path, np.zeros((784, 2)), labels)
        assert not path.exists()
        with pytest.raises(ValueError, match=match):
            read_digits_csv(written(path, "".join(_row(label) for label in labels)))

    def test_csv_classification_survives_quantization(self, tmp_path):
        x, labels = synth_digit_data(30, classes=10, seed=6)
        path = tmp_path / "digits.csv"
        write_digits_csv(path, x, labels)
        px, plabels = read_digits_csv(path)
        train = [px[:, plabels == c][:, :22] for c in range(10)]
        test = np.hstack([px[:, plabels == c][:, 22:] for c in range(10)])
        truth = np.repeat(np.arange(10), 8)
        # the brightness offset adds one shared direction on top of the
        # 5-dimensional class subspaces, so the basis needs k = 6
        model = digits_train(train, 6)
        pred, _ = digits_classify(model, test)
        assert np.mean(pred == truth) == 1.0


def _row(label, width=784):
    return (f"{label}," if label is not None else "") + ",".join(["7"] * width) + "\n"


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda tmp: read_digits_csv(written(tmp / "d.csv", _row(12))), "d.csv: labels must be in 0..9",
                 id="label-range"),
    pytest.param(lambda tmp: read_digits_csv(written(tmp / "d.csv", _row(1, 10))),
                 "d.csv: expected 784 or 785 fields per row, got 11", id="width"),
    pytest.param(lambda tmp: write_digits_csv(tmp / "d.csv", np.ones((784, 2)), [1]), "1 labels for 2 samples",
                 id="write-labels"),
    pytest.param(lambda tmp: write_digits_csv(tmp / "d.csv", np.ones((10, 2)), [1, 2]),
                 "requires 784-pixel samples, got 10", id="write-pixels"),
    pytest.param(lambda tmp: load_digit_model(written(tmp / "m.okdm", b"OKDM" + struct.pack("<II", 2, 1))),
                 "m.okdm: unsupported model version 2", id="model-version"),
    pytest.param(lambda tmp: digits_train([np.ones((4, 2))] * 10, 0), "k must be >= 1", id="train-k"),
])
def test_error_paths(call, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)


def test_unlabeled_rows_have_no_labels(tmp_path):
    x, labels = read_digits_csv(written(tmp_path / "d.csv", _row(None) * 2))
    assert labels is None and x.shape == (784, 2) and (x == 7.0).all()
