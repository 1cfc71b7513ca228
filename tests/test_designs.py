import numpy as np
import pytest

from bayesglasso.designs import (
    DESIGN_KINDS,
    GraphDesign,
    build_design,
    scatter_matrix,
    simulate_data,
    true_model,
)
from bayesglasso.distributions import RngStream
from bayesglasso.matrixcore import pd_check


def test_ar1_p2_covariance():
    model = true_model("ar1", 2)
    assert np.allclose(model.sigma_true, [[1.0, 0.7], [0.7, 1.0]])


def test_ar1_adjacency_tridiagonal():
    model = true_model("ar1", 6)
    expect = np.abs(np.subtract.outer(np.arange(6), np.arange(6))) == 1
    assert np.array_equal(model.adjacency_true, expect)
    # numerical inverse really is tridiagonal
    off = model.omega_true[~expect & ~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-12


def test_ar2_p3_precision():
    model = true_model("ar2", 3)
    expect = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.array_equal(model.omega_true, expect)


def test_circle_p3_matches_oracle():
    model = true_model("circle", 3)
    expect = np.array([[2.0, 1.0, 0.9], [1.0, 2.0, 1.0], [0.9, 1.0, 2.0]])
    assert np.array_equal(model.omega_true, expect)
    assert pd_check(model.omega_true) is not None


def test_block_structure():
    model = true_model("block", 6)
    sig = model.sigma_true
    assert np.all(np.diagonal(sig) == 1.0)
    assert np.all(sig[:3, :3][~np.eye(3, dtype=bool)] == 0.5)
    assert np.all(sig[:3, 3:] == 0.0)
    # adjacency is the within-block pattern
    expect = np.zeros((6, 6), dtype=bool)
    expect[:3, :3] = True
    expect[3:, 3:] = True
    np.fill_diagonal(expect, False)
    assert np.array_equal(model.adjacency_true, expect)


def test_star_structure():
    model = true_model("star", 5)
    om = model.omega_true
    assert np.all(np.diagonal(om) == 1.0)
    assert np.all(om[0, 1:] == 0.1)
    assert np.all(om[1:, 1:][~np.eye(4, dtype=bool)] == 0.0)
    assert model.adjacency_true[0, 1:].all()
    assert not model.adjacency_true[1:, 1:].any()


def test_full_structure():
    model = true_model("full", 4)
    om = model.omega_true
    assert np.all(np.diagonal(om) == 2.0)
    assert np.all(om[~np.eye(4, dtype=bool)] == 1.0)
    assert model.adjacency_true.sum() == 12


def test_all_designs_pd_and_consistent():
    for kind in DESIGN_KINDS:
        for p in (4, 10, 30):
            model = true_model(kind, p)
            assert pd_check(model.omega_true) is not None, (kind, p)
            err = np.max(np.abs(model.omega_true @ model.sigma_true - np.eye(p)))
            assert err < 1e-8, (kind, p)
            adj = model.adjacency_true
            assert np.array_equal(adj, adj.T)
            assert not np.diagonal(adj).any()


def test_adjacency_matches_nonzero_pattern():
    # exact zero comparison against the specified matrices
    for kind in ("ar2", "star", "circle", "full"):
        model = true_model(kind, 8)
        pattern = model.omega_true != 0.0
        np.fill_diagonal(pattern, False)
        assert np.array_equal(model.adjacency_true, pattern), kind


def test_design_validation():
    with pytest.raises(ValueError):
        GraphDesign("ring", 10)
    with pytest.raises(ValueError):
        GraphDesign("circle", 2)
    with pytest.raises(ValueError):
        GraphDesign("ar2", 2)
    with pytest.raises(ValueError):
        GraphDesign("block", 7)
    with pytest.raises(ValueError):
        GraphDesign("ar1", 1)


def test_design_size_must_be_an_integer():
    # np.arange(5.5) has six entries, so a float p would build a 6 x 6 model.
    for kind, p in (("ar1", 5.5), ("circle", 6.0)):
        with pytest.raises(ValueError, match=f"p must be an integer, got {p}"):
            GraphDesign(kind, p)
    assert true_model("circle", np.int64(6)).omega_true.shape == (6, 6)


def test_design_size_rejects_a_bool():
    # bool subclasses int; True was once rejected only as "need p >= 2".
    for p in (True, False, np.True_):
        with pytest.raises(ValueError, match=f"p must be an integer, got {p!r}"):
            GraphDesign("ar1", p)


def test_simulate_data_shape_and_determinism():
    model = true_model("ar1", 4)
    a = simulate_data(model, 11, RngStream(5))
    b = simulate_data(model, 11, RngStream(5))
    assert a.shape == (11, 4)
    assert np.array_equal(a, b)
    c = simulate_data(model, 11, RngStream(6))
    assert not np.array_equal(a, c)


def test_simulate_data_correlation():
    model = true_model("ar1", 2)
    Y = simulate_data(model, 100_000, RngStream(7))
    corr = np.corrcoef(Y.T)[0, 1]
    assert abs(corr - 0.7) < 0.01


def test_scatter_matrix_orthonormal_rows():
    assert np.array_equal(scatter_matrix(np.eye(2)), np.eye(2))


def test_scatter_matrix_single_row_oracle():
    S = scatter_matrix(np.array([[1.0, 2.0]]))
    assert np.array_equal(S, [[1.0, 2.0], [2.0, 4.0]])


def test_scatter_matrix_exactly_symmetric():
    rng = np.random.default_rng(8)
    S = scatter_matrix(rng.standard_normal((40, 7)))
    assert np.max(np.abs(S - S.T)) == 0.0


def test_scatter_converges_to_sigma():
    for kind in DESIGN_KINDS:
        model = true_model(kind, 4)
        Y = simulate_data(model, 100_000, RngStream(9))
        err = np.max(np.abs(scatter_matrix(Y) / 100_000 - model.sigma_true))
        assert err < 0.05, kind


def test_build_design_from_dataclass():
    model = build_design(GraphDesign("circle", 5))
    assert model.omega_true.shape == (5, 5)
