import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import NumericalError, jacobi_eig, low_rank, norm2, singular_values
from orthokit.apps import (
    GrayImage,
    build_term_sentence,
    image_compress,
    image_denoise,
    pca_fit,
    pca_reduce,
    polyfit,
    read_pgm,
    stem,
    summarize_scores,
    write_pgm,
)
from orthokit.apps.image import _pgm_tokens
from helpers import fro, written


class TestPolyfit:
    def test_two_points_line_interpolates(self):
        fit = polyfit([0.0, 1.0], [1.0, 3.0], 1)
        assert np.allclose(fit.coeffs, [1.0, 2.0], atol=1e-12)
        assert fit.residual_norm <= 1e-12

    def test_recovers_synthesized_cubic(self):
        rng = np.random.default_rng(121)
        coeffs = np.array([0.5, -1.0, 2.0, 0.25])
        t = np.linspace(-1.0, 2.0, 6)
        y = sum(c * t**j for j, c in enumerate(coeffs))
        fit = polyfit(t, y, 3)
        assert np.abs(fit.coeffs - coeffs).max() <= 1e-8
        assert fit.residual_norm <= 1e-9
        assert fit.cond >= 1.0

    def test_constant_data(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.full(4, 7.5)
        fit = polyfit(t, y, 2)
        assert np.abs(fit.coeffs - [7.5, 0.0, 0.0]).max() <= 1e-9

    def test_degree_larger_than_data_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            polyfit([0.0, 1.0], [1.0, 2.0], 2)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            polyfit([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], 2)

    def test_conditioning_grows_with_degree(self):
        t = np.linspace(0.0, 10.0, 12)
        y = np.sin(t)
        assert polyfit(t, y, 8).cond > polyfit(t, y, 2).cond * 100

    def test_design_matrix_past_the_float64_range(self):
        t = 1e200 * np.arange(1.0, 6.0)  # t^3 is past the float64 maximum
        with pytest.raises(NumericalError, match="^polyfit: "):
            polyfit(t, np.arange(5.0), 3)


class TestPca:
    def test_line_through_origin(self):
        rng = np.random.default_rng(122)
        direction = np.array([3.0, 4.0]) / 5.0
        coeffs = rng.standard_normal(40)
        x = np.outer(direction, coeffs)
        model = pca_fit(x, 1)
        c = model.components[:, 0]
        angle_gap = min(np.linalg.norm(c - direction), np.linalg.norm(c + direction))
        assert angle_gap <= 1e-8

    def test_variances_match_covariance_eigenvalues(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal((4, 30)) * np.array([[3.0], [2.0], [1.0], [0.5]])
        d, n = x.shape
        model = pca_fit(x, 4)
        xc = x - x.mean(axis=1, keepdims=True)
        cov = xc @ xc.T / (n - 1)
        lam, vecs = jacobi_eig(cov)
        assert np.abs(model.variances - lam).max() <= 1e-9 * max(1.0, lam[0])
        # component directions match eigenvectors up to sign (well-gapped spectrum)
        for j in range(4):
            gap = min(
                np.linalg.norm(model.components[:, j] - vecs[:, j]),
                np.linalg.norm(model.components[:, j] + vecs[:, j]),
            )
            assert gap <= 1e-7

    def test_isotropic_cloud_has_comparable_variances(self):
        rng = np.random.default_rng(124)
        x = rng.standard_normal((3, 4000))
        model = pca_fit(x, 3)
        assert model.variances[0] / model.variances[-1] <= 1.2

    def test_samples_as_rows_orientation(self):
        rng = np.random.default_rng(125)
        x = rng.standard_normal((5, 20))  # 5 dims, 20 samples
        m_cols = pca_fit(x, 2, samples_as="cols")
        m_rows = pca_fit(x.T.copy(), 2, samples_as="rows")
        assert np.abs(m_cols.variances - m_rows.variances).max() <= 1e-12
        assert np.abs(np.abs(m_cols.components) - np.abs(m_rows.components)).max() <= 1e-10
        r_rows = pca_reduce(m_rows, x.T.copy(), samples_as="rows")
        assert r_rows.shape == (20, 5)
        assert np.abs(r_rows - pca_reduce(m_cols, x).T).max() <= 1e-10

    def test_reduce_full_rank_reproduces(self):
        rng = np.random.default_rng(126)
        x = rng.standard_normal((3, 10))
        model = pca_fit(x, 3)
        assert np.abs(pca_reduce(model, x) - x).max() <= 1e-9

    def test_reduce_rank_one_collinear(self):
        rng = np.random.default_rng(127)
        x = rng.standard_normal((2, 15))
        model = pca_fit(x, 1)
        xk = pca_reduce(model, x)
        centered = xk - xk.mean(axis=1, keepdims=True)
        assert singular_values(centered)[1] <= 1e-9

    def test_reduce_matches_truncated_svd_of_centered(self):
        rng = np.random.default_rng(128)
        x = rng.standard_normal((4, 12))
        xc = x - x.mean(axis=1, keepdims=True)
        model = pca_fit(x, 2)
        got = pca_reduce(model, x) - x.mean(axis=1, keepdims=True)
        assert np.abs(got - low_rank(xc, 2)).max() <= 1e-10
        # reconstruction error in the 2-norm is the next singular value
        sig = singular_values(xc)
        assert norm2(xc - (got)) == pytest.approx(sig[2], abs=1e-8 * max(1, sig[0]))

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # Components are unchanged; mean and reconstruction scale by 2^k and
        # the variances by 2^2k.
        x = np.random.default_rng(130).standard_normal((4, 9))
        ref, xs = pca_fit(x, 2), np.ldexp(x, k)
        if k > 512:  # the variances, about 2^2k, pass the float64 range
            with pytest.raises(NumericalError, match="^pca_fit: "):
                pca_fit(xs, 2)
            return
        model = pca_fit(xs, 2)
        assert np.array_equal(model.components, ref.components)
        assert np.array_equal(model.mean, np.ldexp(ref.mean, k))
        assert np.array_equal(model.variances, np.ldexp(ref.variances, 2 * k))
        assert np.array_equal(pca_reduce(model, xs), np.ldexp(pca_reduce(ref, x), k))

    def test_mean_near_the_float64_maximum(self):
        x = np.array([[1.7e308] * 2, [-1.5e308] * 2])  # the sums overflow, the means fit
        model = pca_fit(x, 1)
        assert np.array_equal(model.mean, x[:, 0])
        assert np.array_equal(model.variances, [0.0])
        assert np.array_equal(pca_reduce(model, x), x)

    @pytest.mark.parametrize("x", [[[0.1] * 3, [0.7] * 3], [[1.7e308] * 3, [-1.5e308] * 3]],
                             ids=["normal", "near-overflow"])
    def test_constant_rows_have_zero_variance(self, x):
        # The one-pass mean of three equal samples is off by an ulp; the
        # corrected two-pass mean leaves no residue to report as variance.
        model = pca_fit(x, 1)
        assert np.array_equal(model.variances, [0.0])
        assert np.array_equal(model.mean, np.asarray(x)[:, 0])

    def test_rows_far_apart_keep_their_means(self):
        # One scale for all rows would underflow the 1e-300 row to a mean of 0.
        x = np.array([[1e-300] * 3, [1e100, 2e100, 3e100]])
        model = pca_fit(x, 1)
        assert np.array_equal(model.mean, [1e-300, 2e100])
        assert np.array_equal(pca_reduce(model, x), x)

    def test_constant_rows_at_any_scale(self):
        rng = np.random.default_rng(131)
        for _ in range(300):
            d, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            rows = rng.uniform(1, 10, d) * 10.0 ** rng.integers(-300, 301, d)
            x = np.repeat(rows[:, None], n, axis=1)
            model = pca_fit(x, 1)
            assert np.array_equal(model.mean, rows)
            assert np.array_equal(pca_reduce(model, x), x)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(129)
        model = pca_fit(rng.standard_normal((4, 9)), 2)
        with pytest.raises(ValueError, match="dimension"):
            pca_reduce(model, rng.standard_normal((5, 9)))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            pca_fit(np.ones((3, 1)), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must be"):
            pca_fit(np.ones((3, 5)), 4)


# PGM header separators: runs of ASCII whitespace and '#' comments that run
# to the end of their line.
_PGM_SPACE = st.text(" \t\n\r\v\f", min_size=1, max_size=3).map(str.encode)
_PGM_COMMENT = st.builds(lambda text, end: b"#" + text.translate(None, b"\r\n") + end,
                         st.binary(max_size=8), st.sampled_from([b"\n", b"\r"]))
_PGM_GAP = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT), min_size=1, max_size=3).map(b"".join)


@st.composite
def _pgm_files(draw):
    """The bytes of a P2 or P5 file with random separators between its
    header tokens (a comment may follow a token directly), and its pixels."""
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pixels = draw(st.lists(st.integers(0, 255), min_size=height * width, max_size=height * width))
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    data = magic + b"".join(draw(_PGM_GAP) + b"%d" % token for token in (width, height, 255))
    if magic == b"P5":  # exactly one whitespace byte, then the raster
        data += draw(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f"])) + bytes(pixels)
    else:
        data += b"".join(draw(_PGM_SPACE) + b"%d" % p for p in pixels) + draw(_PGM_SPACE)
    return data, np.reshape(pixels, (height, width))


class TestImage:
    def test_full_rank_compression_is_near_exact(self):
        rng = np.random.default_rng(130)
        img = GrayImage(rng.uniform(0, 255, size=(12, 9)))
        out, ratio = image_compress(img, 9)
        assert np.abs(out.pixels - img.pixels).max() <= 1.0

    def test_rank_one_image_exact_at_k1(self):
        row = np.linspace(0.1, 1.0, 16)
        col = np.linspace(0.2, 0.9, 20)
        img = GrayImage(255.0 * np.outer(col, row) / (col.max() * row.max()))
        out, ratio = image_compress(img, 1)
        assert np.abs(out.pixels - img.pixels).max() <= 1.0
        assert ratio == pytest.approx((20 + 16 + 1) * 1 / (20 * 16), rel=1e-12)

    def test_truncation_error_is_next_sigma(self):
        rng = np.random.default_rng(131)
        a = rng.uniform(0, 255, size=(20, 16))
        k = 5
        recon = low_rank(a, k)  # pre-clamp reconstruction
        sig = singular_values(a)
        assert norm2(a - recon) == pytest.approx(sig[k], rel=1e-8)

    def test_storage_ratio_below_one_iff_k_small(self):
        img = GrayImage(np.zeros((20, 16)) + 7.0)
        threshold = 20 * 16 / (20 + 16 + 1)
        for k in range(1, 17):
            _, ratio = image_compress(img, k)
            assert (ratio < 1.0) == (k < threshold)

    def test_k_out_of_range(self):
        img = GrayImage(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="k must be"):
            image_compress(img, 0)
        with pytest.raises(ValueError, match="k must be"):
            image_compress(img, 5)

    def test_denoise_zero_threshold_keeps_image(self):
        rng = np.random.default_rng(132)
        img = GrayImage(rng.uniform(0, 255, size=(10, 8)))
        out = image_denoise(img, 0.0)
        assert np.abs(out.pixels - img.pixels).max() <= 1.0

    def test_denoise_recovers_low_rank_structure(self):
        rng = np.random.default_rng(133)
        clean = np.outer(np.linspace(30, 220, 18), np.linspace(0.5, 1.0, 14))
        clean += np.outer(np.linspace(20, -20, 18), np.linspace(1.0, 0.2, 14))
        clean = np.clip(clean, 0, 255)
        noisy = np.clip(clean + rng.normal(0, 2.0, size=clean.shape), 0, 255)
        denoised = image_denoise(GrayImage(noisy), threshold=30.0)
        assert fro(denoised.pixels - clean) < fro(noisy - clean)

    def test_denoise_threshold_above_top_sigma_gives_zero_image(self):
        img = GrayImage(np.full((6, 5), 100.0))
        sig1 = singular_values(img.pixels)[0]
        out = image_denoise(img, sig1 + 1.0)
        assert np.array_equal(out.pixels, np.zeros((6, 5)))

    def test_gray_image_clamps(self):
        img = GrayImage(np.array([[-5.0, 300.0], [12.5, 255.0]]))
        assert np.array_equal(img.pixels, [[0.0, 255.0], [12.5, 255.0]])

    def test_pgm_roundtrip_p5(self, tmp_path):
        rng = np.random.default_rng(134)
        img = GrayImage(np.rint(rng.uniform(0, 255, size=(7, 11))))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_pgm_reads_p2(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 10 20\n30 40 255\n")
        img = read_pgm(path)
        assert np.array_equal(img.pixels, [[0.0, 10.0, 20.0], [30.0, 40.0, 255.0]])

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(_pgm_files())
    def test_pgm_header_between_whitespace_and_comments(self, tmp_path_factory, file):
        data, pixels = file
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        path.write_bytes(data)
        assert np.array_equal(read_pgm(path).pixels, pixels)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"#", b"\x85", b"\x00",
                                     b"P", b"5", b"x"]), max_size=24).map(b"".join))
    def test_pgm_tokens_match_a_byte_loop(self, data):
        # Reference: the header scanned a byte at a time.
        pos, tokens = 0, []
        while len(tokens) < 4 and pos < len(data):
            if data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif data[pos : pos + 1].isspace():
                pos += 1
            else:
                start = pos
                while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
                    pos += 1
                tokens.append(data[start:pos])
        assert _pgm_tokens(data) == (tokens, pos)

    def test_pgm_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n2 2\n15\n0 1 2 3\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)


class TestText:
    def test_single_sentence_counts(self):
        ts = build_term_sentence(["a a b"])
        assert ts.terms == ["a", "b"]
        assert np.array_equal(ts.a, [[2.0], [1.0]])

    def test_terms_in_order_of_first_appearance_across_sentences(self):
        ts = build_term_sentence(["b a", "c b b", "", "The a"], stopwords={"the"})
        assert ts.terms == ["b", "a", "c"]
        assert ts.a.tobytes() == np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0],
                                           [0.0, 1.0, 0.0, 0.0]]).tobytes()

    def test_stopword_removal(self):
        ts = build_term_sentence(["the cat sat"], stopwords={"the"})
        assert ts.terms == ["cat", "sat"]

    def test_stemmer_rule_list(self):
        # rule-list oracle: first matching suffix of -ing/-ed/-s, then -e
        expected = {
            "computing": "comput",
            "computed": "comput",
            "compute": "comput",
            "cats": "cat",
            "walked": "walk",
            "walking": "walk",
            "walks": "walk",
            "a": "a",
            "sing": "sing",  # stripping would leave fewer than 3 letters
        }
        for word, out in expected.items():
            assert stem(word) == out, word

    def test_stemming_merges_terms(self):
        ts = build_term_sentence(["compute computing"])
        assert ts.terms == ["comput"]
        assert np.array_equal(ts.a, [[2.0]])

    def test_punctuation_and_case(self):
        ts = build_term_sentence(["Hello, HELLO world!"])
        assert ts.terms == ["hello", "world"]
        assert np.array_equal(ts.a, [[2.0], [1.0]])

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            build_term_sentence(["the and"], stopwords={"the", "and"})

    def test_rank_one_scores_proportional(self):
        u = np.array([2.0, 1.0, 0.5])
        v = np.array([1.0, 3.0])
        ts = build_term_sentence(["x"])
        ts.a = np.outer(u, v)
        ts.terms = ["t0", "t1", "t2"]
        term_scores, sentence_scores = summarize_scores(ts)
        assert np.abs(term_scores - u / np.linalg.norm(u)).max() <= 1e-9
        assert np.abs(sentence_scores - v / np.linalg.norm(v)).max() <= 1e-9

    def test_defining_relations_and_nonnegativity(self):
        rng = np.random.default_rng(135)
        ts = build_term_sentence(["x"])
        ts.a = rng.integers(0, 5, size=(6, 4)).astype(float)
        if not np.any(ts.a):
            ts.a[0, 0] = 1.0
        u, v = summarize_scores(ts)
        sigma = singular_values(ts.a)[0]
        assert np.linalg.norm(ts.a @ v - sigma * u) <= 1e-9 * max(1, sigma)
        assert np.linalg.norm(ts.a.T @ u - sigma * v) <= 1e-9 * max(1, sigma)
        assert (u >= -1e-10).all() and (v >= -1e-10).all()

    def test_mixed_leading_pair_is_flipped_to_a_nonnegative_sum(self):
        # sigma_1 = 2 five times (two 2 x 2 blocks of ones, two 2s and a 4 x 1
        # block of ones).  svd's leading pair mixes three of those blocks with
        # opposite signs, and its u and v sum to about -0.33.
        rows = ["0010000000", "0000002000", "0000000100", "0100000001", "0000100000", "0002000000", "0100000001",
                "0000100000", "1000000010", "1000000010", "0000010000", "0000100000", "0000100000"]
        ts = build_term_sentence(["x"])
        ts.a = np.array([[float(c) for c in row] for row in rows])
        u, v = summarize_scores(ts)
        assert u.sum() + v.sum() >= 0.0
        assert np.linalg.norm(ts.a @ v - 2.0 * u) <= 1e-12 and np.linalg.norm(ts.a.T @ u - 2.0 * v) <= 1e-12

    def test_sentence_permutation_equivariance(self):
        sentences = ["apple banana", "banana banana cherry", "apple cherry cherry"]
        ts = build_term_sentence(sentences)
        _, scores = summarize_scores(ts)
        perm = [2, 0, 1]
        ts_perm = build_term_sentence([sentences[i] for i in perm])
        _, scores_perm = summarize_scores(ts_perm)
        assert np.abs(scores_perm - scores[perm]).max() <= 1e-12

    def test_zero_row_padding_keeps_ranking(self):
        rng = np.random.default_rng(136)
        ts = build_term_sentence(["x"])
        ts.a = rng.integers(0, 4, size=(5, 6)).astype(float) + np.eye(5, 6)
        _, scores = summarize_scores(ts)
        ts.a = np.vstack([ts.a, np.zeros((3, 6))])
        _, scores_padded = summarize_scores(ts)
        assert np.array_equal(np.argsort(-scores), np.argsort(-scores_padded))

    def test_zero_matrix_rejected(self):
        ts = build_term_sentence(["x"])
        ts.a = np.zeros((2, 2))
        with pytest.raises(ValueError, match="zero"):
            summarize_scores(ts)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda tmp: polyfit([1.0, 2.0], [1.0], 1), ValueError, "equal length", id="polyfit-lengths"),
    pytest.param(lambda tmp: polyfit([1.0, 2.0], [1.0, 2.0], -1), ValueError, "nonnegative", id="polyfit-degree"),
    pytest.param(lambda tmp: pca_fit(np.ones((3, 4)), 1, samples_as="both"), ValueError, "samples_as",
                 id="pca-samples_as"),
    pytest.param(lambda tmp: image_denoise(GrayImage(np.ones((3, 3))), -1.0), ValueError, "nonnegative",
                 id="denoise-threshold"),
    pytest.param(lambda tmp: image_denoise(GrayImage(np.ones((3, 3))), float("nan")), ValueError,
                 "nonnegative, got nan", id="denoise-nan-threshold"),
    pytest.param(lambda tmp: read_pgm(written(tmp / "a.pgm", b"P3 2 2 255\n")), ValueError,
                 "a.pgm: not a PGM", id="pgm-magic"),
    pytest.param(lambda tmp: read_pgm(written(tmp / "a.pgm", b"P5 x 2 255\n")), ValueError,
                 "a.pgm: malformed PGM header", id="pgm-header"),
    pytest.param(lambda tmp: read_pgm(written(tmp / "a.pgm", b"P5 -1 2 255\n\x01\x02")), ValueError,
                 "a.pgm: image dimensions must be positive, got -1 x 2", id="pgm-negative-width"),
    pytest.param(lambda tmp: read_pgm(written(tmp / "a.pgm", b"P2 2 0 255\n")), ValueError,
                 "a.pgm: image dimensions must be positive, got 2 x 0", id="pgm-zero-height"),
    pytest.param(lambda tmp: read_pgm(written(tmp / "a.pgm", b"P5 2 2 255\n\x01")), ValueError,
                 "a.pgm: truncated P5 raster", id="pgm-truncated-p5"),
    pytest.param(lambda tmp: read_pgm(written(tmp / "a.pgm", b"P2 2 2 255\n1 2 3")), ValueError,
                 "a.pgm: truncated P2 raster", id="pgm-truncated-p2"),
])
def test_error_paths(call, error, match, tmp_path):
    with pytest.raises(error, match=match):
        call(tmp_path)
