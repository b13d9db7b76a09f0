"""Unit + gradient tests for GRU/BiGRU, and the admission tests of
the fused recurrence node ``F.gru_sequence`` against its composite
reference (a per-step loop over ``GRUCell.step``, kept only here)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Trainer, TrainerConfig, build_pathrank
from repro.errors import ShapeError
from repro.graph import grid_network
from repro.nn import GRU, BiGRU, GRUCell, Tensor, check_gradients, no_grad
from repro.nn import functional as F
from repro.ranking import Strategy, TrainingDataConfig, generate_queries
from repro.trajectories import FleetConfig, generate_fleet


def seq(rng, steps=5, batch=3, dim=4):
    return Tensor(rng.normal(size=(steps, batch, dim)), requires_grad=True)


def composite_gru_forward(self, inputs, mask=None, h0=None, reverse=False):
    """``GRU.forward`` as primitive ops: one ``GRUCell.step`` per time step
    and a blend per masked step, the reference ``gru_sequence`` answers to."""
    steps, batch, _ = inputs.shape
    cell = self.cell
    hidden = h0 if h0 is not None else cell.initial_state(batch)
    flat = inputs.reshape(steps * batch, self.input_size)
    gates_input = (flat @ cell.weight_ih + cell.bias_ih).reshape(
        steps, batch, 3 * self.hidden_size)
    outputs = [None] * steps
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        updated = cell.step(gates_input[t], hidden)
        if mask is None:
            hidden = updated
        else:
            step_mask = Tensor(np.asarray(mask, dtype=float)[t][:, None])
            hidden = step_mask * updated + (1.0 - step_mask) * hidden
        outputs[t] = hidden
    return F.stack(outputs, axis=0), hidden


def graph_ops(output):
    """Number of op nodes (non-leaves) in the graph behind ``output``."""
    return sum(1 for node in output._topological_order() if not node.is_leaf)


class TestGRUCell:
    def test_output_shape(self):
        cell = GRUCell(4, 6, rng=0)
        h = cell(Tensor(np.zeros((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_output_bounded_by_tanh(self):
        cell = GRUCell(4, 6, rng=0)
        rng = np.random.default_rng(0)
        h = cell.initial_state(2)
        for _ in range(50):
            h = cell(Tensor(rng.normal(size=(2, 4)) * 10), h)
        assert np.all(np.abs(h.data) <= 1.0 + 1e-9)

    def test_zero_update_gate_keeps_state(self):
        # Forcing update gate to 1 (z=1) must return the previous state.
        cell = GRUCell(2, 3, rng=0)
        cell.bias_ih.data[3:6] = 1e9  # z pre-activation huge -> z == 1
        h0 = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
        h1 = cell(Tensor(np.zeros((2, 2))), h0)
        np.testing.assert_allclose(h1.data, h0.data, atol=1e-9)

    def test_shape_validation(self):
        cell = GRUCell(4, 6, rng=0)
        with pytest.raises(ShapeError):
            cell(Tensor(np.zeros((3, 5))), cell.initial_state(3))
        with pytest.raises(ShapeError):
            cell(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 6))))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            GRUCell(0, 4)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        cell = GRUCell(3, 4, rng=1)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        params = [x, h, cell.weight_ih, cell.weight_hh, cell.bias_ih, cell.bias_hh]
        check_gradients(lambda: (cell(x, h) ** 2).mean(), params, atol=1e-4, rtol=1e-3)


class TestGRU:
    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        gru = GRU(4, 6, rng=0)
        outputs, final = gru(seq(rng))
        assert outputs.shape == (5, 3, 6)
        assert final.shape == (3, 6)

    def test_final_equals_last_output_unmasked(self):
        rng = np.random.default_rng(0)
        gru = GRU(4, 6, rng=0)
        outputs, final = gru(seq(rng))
        np.testing.assert_allclose(outputs.data[-1], final.data)

    def test_mask_freezes_after_sequence_end(self):
        rng = np.random.default_rng(0)
        gru = GRU(4, 6, rng=0)
        inputs = seq(rng, steps=5, batch=2)
        mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0], [1, 0]], dtype=float)
        outputs, final = gru(inputs, mask=mask)
        # Batch element 1 has length 2: its state must be constant from t=1 on.
        np.testing.assert_allclose(outputs.data[1, 1], outputs.data[4, 1])
        np.testing.assert_allclose(final.data[1], outputs.data[1, 1])

    def test_masked_final_matches_short_run(self):
        """A padded short sequence must produce the state of the unpadded run."""
        rng = np.random.default_rng(5)
        gru = GRU(3, 4, rng=2)
        short = Tensor(rng.normal(size=(2, 1, 3)))
        padded = Tensor(np.concatenate([short.data, np.zeros((3, 1, 3))], axis=0))
        mask = np.array([[1.0], [1.0], [0.0], [0.0], [0.0]])
        _, final_short = gru(short)
        _, final_padded = gru(padded, mask=mask)
        np.testing.assert_allclose(final_padded.data, final_short.data, atol=1e-12)

    def test_rejects_bad_rank(self):
        gru = GRU(4, 6, rng=0)
        with pytest.raises(ShapeError):
            gru(Tensor(np.zeros((5, 4))))

    def test_rejects_zero_steps(self):
        gru = GRU(4, 6, rng=0)
        with pytest.raises(ShapeError):
            gru(Tensor(np.zeros((0, 3, 4))))

    def test_rejects_bad_mask_shape(self):
        rng = np.random.default_rng(0)
        gru = GRU(4, 6, rng=0)
        with pytest.raises(ShapeError):
            gru(seq(rng), mask=np.ones((4, 3)))

    def test_gradcheck_through_time(self):
        rng = np.random.default_rng(4)
        gru = GRU(2, 3, rng=3)
        x = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        mask = np.array([[1, 1], [1, 0], [1, 0]], dtype=float)

        def fwd():
            _, final = gru(x, mask=mask)
            return (final * final).mean()

        check_gradients(fwd, [x] + list(gru.parameters()), atol=1e-4, rtol=1e-3)


class TestBiGRU:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        bigru = BiGRU(4, 6, rng=0)
        outputs, summary = bigru(seq(rng))
        assert outputs.shape == (5, 3, 12)
        assert summary.shape == (3, 12)
        assert bigru.output_size == 12

    def test_forward_half_matches_plain_gru(self):
        rng = np.random.default_rng(0)
        bigru = BiGRU(4, 6, rng=0)
        inputs = seq(rng)
        outputs, summary = bigru(inputs)
        fwd_out, fwd_final = bigru.forward_gru(inputs)
        np.testing.assert_allclose(outputs.data[..., :6], fwd_out.data)
        np.testing.assert_allclose(summary.data[:, :6], fwd_final.data)

    def test_backward_direction_sees_reversed_sequence(self):
        rng = np.random.default_rng(0)
        bigru = BiGRU(4, 6, rng=0)
        inputs = seq(rng)
        _, summary = bigru(inputs)
        rev = Tensor(inputs.data[::-1].copy())
        _, bwd_final = bigru.backward_gru(rev)
        np.testing.assert_allclose(summary.data[:, 6:], bwd_final.data)

    def test_masked_padding_invariance(self):
        """Padding must not change the BiGRU summary of a short sequence."""
        rng = np.random.default_rng(9)
        bigru = BiGRU(3, 5, rng=1)
        short = rng.normal(size=(3, 1, 3))
        _, summary_short = bigru(Tensor(short), mask=np.ones((3, 1)))
        padded = np.concatenate([short, np.zeros((2, 1, 3))], axis=0)
        mask = np.array([[1.0], [1.0], [1.0], [0.0], [0.0]])
        _, summary_padded = bigru(Tensor(padded), mask=mask)
        np.testing.assert_allclose(summary_padded.data, summary_short.data, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        bigru = BiGRU(2, 2, rng=5)
        x = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        mask = np.array([[1, 1], [1, 1], [1, 0]], dtype=float)

        def fwd():
            _, summary = bigru(x, mask=mask)
            return (summary * summary).mean()

        check_gradients(fwd, [x] + list(bigru.parameters()), atol=1e-4, rtol=1e-3)


def _parity_case(steps, batch, input_size, hidden_size, reverse, masked, with_h0, seed,
                 empty_column=False):
    """States and every gradient of ``GRU.forward`` vs the composite."""
    rng = np.random.default_rng(seed)
    gru = GRU(input_size, hidden_size, rng=seed)
    x = Tensor(rng.normal(size=(steps, batch, input_size)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(batch, hidden_size)), requires_grad=True) if with_h0 else None
    mask = None
    if masked:
        mask = (rng.random((steps, batch)) < 0.7).astype(float)
        if empty_column:
            mask[:, rng.integers(batch)] = 0.0
    out_weights = Tensor(rng.normal(size=(steps, batch, hidden_size)))
    final_weights = Tensor(rng.normal(size=(batch, hidden_size)))
    leaves = [x] + gru.parameters() + ([h0] if with_h0 else [])
    results = []
    for forward in (GRU.forward, composite_gru_forward):
        for leaf in leaves:
            leaf.zero_grad()
        outputs, final = forward(gru, x, mask=mask, h0=h0, reverse=reverse)
        ((outputs * out_weights).sum() + (final * final_weights).sum()).backward()
        results.append([outputs.data, final.data] + [leaf.grad for leaf in leaves])
    names = ["states", "final", "inputs"] + [n for n, _ in gru.named_parameters()] + ["h0"]
    for name, fused, reference in zip(names, *results):
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-10, err_msg=name)


class TestGRUSequenceAdmission:
    """``F.gru_sequence`` (behind ``GRU.forward``) against the composite."""

    @given(
        steps=st.integers(1, 7), batch=st.integers(1, 5),
        input_size=st.integers(1, 4), hidden_size=st.integers(1, 5),
        reverse=st.booleans(), masked=st.booleans(), with_h0=st.booleans(),
        empty_column=st.booleans(), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_with_composite(self, steps, batch, input_size, hidden_size,
                                   reverse, masked, with_h0, empty_column, seed):
        _parity_case(steps, batch, input_size, hidden_size, reverse, masked, with_h0,
                     seed, empty_column=empty_column)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("case", [
        dict(steps=1, batch=3, masked=True, with_h0=True),      # a single step
        dict(steps=6, batch=4, masked=True, with_h0=False, empty_column=True),
        dict(steps=5, batch=1, masked=True, with_h0=True),      # batch 1
        dict(steps=5, batch=3, masked=False, with_h0=True),     # mask=None
    ], ids=["single-step", "all-padding-column", "batch-1", "no-mask"])
    def test_parity_edge_cases(self, case, reverse):
        _parity_case(input_size=3, hidden_size=4, reverse=reverse, seed=5, **case)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_finite_differences(self, reverse):
        rng = np.random.default_rng(7)
        gates_input = Tensor(rng.normal(size=(4, 3, 6)), requires_grad=True)
        weight_hh = Tensor(rng.normal(size=(2, 6)) * 0.5, requires_grad=True)
        bias_hh = Tensor(rng.normal(size=6) * 0.1, requires_grad=True)
        h0 = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        mask = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        weights = Tensor(rng.normal(size=(4, 3, 2)))

        def loss():
            states = F.gru_sequence(gates_input, weight_hh, bias_hh, mask=mask, h0=h0,
                                    reverse=reverse)
            return (states * weights).sum()

        check_gradients(loss, [gates_input, weight_hh, bias_hh, h0], atol=1e-7, rtol=1e-6)

    def test_all_padding_column_keeps_h0_and_passes_its_adjoint(self):
        rng = np.random.default_rng(2)
        gates_input = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        cell = GRUCell(1, 2, rng=0)
        h0 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        mask = np.array([[1, 0], [1, 0], [1, 0]], dtype=float)
        states = F.gru_sequence(gates_input, cell.weight_hh, cell.bias_hh, mask=mask, h0=h0)
        np.testing.assert_array_equal(states.data[:, 1], np.repeat(h0.data[1:], 3, axis=0))
        states.sum().backward()
        np.testing.assert_array_equal(gates_input.grad[:, 1], 0.0)
        np.testing.assert_array_equal(h0.grad[1], 3.0)

    def test_no_grad_records_nothing_and_agrees(self):
        rng = np.random.default_rng(3)
        gru = GRU(3, 4, rng=1)
        x = Tensor(rng.normal(size=(5, 2, 3)))
        recorded, _ = gru(x)
        with no_grad():
            plain, _ = gru(x)
        assert plain.is_leaf and not plain.requires_grad
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_reverse_final_is_first_state(self):
        rng = np.random.default_rng(4)
        gru = GRU(3, 4, rng=1)
        outputs, final = gru(seq(rng, dim=3), reverse=True)
        np.testing.assert_array_equal(final.data, outputs.data[0])

    def test_rejects_bad_shapes(self):
        cell = GRUCell(2, 3, rng=0)
        with pytest.raises(ShapeError):
            F.gru_sequence(Tensor(np.zeros((4, 2, 8))), cell.weight_hh, cell.bias_hh)
        with pytest.raises(ShapeError):
            F.gru_sequence(Tensor(np.zeros((4, 2, 9))), cell.weight_hh, cell.bias_hh,
                           mask=np.ones((4, 3)))
        with pytest.raises(ShapeError):
            F.gru_sequence(Tensor(np.zeros((4, 2, 9))), cell.weight_hh, cell.bias_hh,
                           h0=Tensor(np.zeros((3, 3))))

    def test_graph_size_does_not_grow_with_sequence_length(self):
        model = build_pathrank("PR-A2", num_vertices=30, embedding_dim=4, hidden_size=3,
                               fc_hidden=2, rng=0)
        rng = np.random.default_rng(0)
        counts = []
        for steps in (5, 40):
            vertex_ids = rng.integers(0, 30, size=(steps, 4))
            mask = np.ones((steps, 4))
            mask[steps // 2:, 1] = 0.0
            counts.append(graph_ops(model(vertex_ids, mask)))
        assert counts[0] == counts[1]
        assert counts[0] < 40


@pytest.fixture(scope="module")
def trajectory_corpus():
    network = grid_network(6, 6, seed=2)
    config = FleetConfig(num_drivers=6, trips_per_driver=6,
                         min_trip_distance=600.0, num_od_hotspots=12)
    _, trips = generate_fleet(network, rng=4, config=config)
    queries = generate_queries(trips, TrainingDataConfig(strategy=Strategy.TKDI, k=4))
    return network, queries[:24]


class TestSeededTrajectory:
    """A seeded 2-epoch fit through the fused node follows the composite's
    loss history and lands on its weights."""

    @pytest.mark.parametrize("variant,pooling,dropout,bidirectional", [
        ("PR-A1", "mean", 0.0, True),
        ("PR-A2", "final", 0.1, True),
        ("PR-A2", "attention", 0.0, True),
        ("PR-A2", "mean", 0.1, False),
        ("PR-M", "mean", 0.1, True),
    ])
    def test_fit_matches_composite(self, trajectory_corpus, monkeypatch, variant, pooling,
                                   dropout, bidirectional):
        network, queries = trajectory_corpus

        def fit():
            model = build_pathrank(variant, num_vertices=network.num_vertices,
                                   embedding_dim=6, hidden_size=5, fc_hidden=4,
                                   dropout=dropout, pooling=pooling,
                                   bidirectional=bidirectional, rng=11)
            history = Trainer(model, TrainerConfig(epochs=2, patience=2, queries_per_batch=8),
                              rng=3).fit(queries)
            return history.train_loss, model.state_dict()

        fused_loss, fused_state = fit()
        monkeypatch.setattr(GRU, "forward", composite_gru_forward)
        reference_loss, reference_state = fit()
        np.testing.assert_allclose(fused_loss, reference_loss, rtol=0, atol=1e-9)
        assert fused_state.keys() == reference_state.keys()
        for name, value in fused_state.items():
            np.testing.assert_allclose(value, reference_state[name], rtol=0, atol=1e-9,
                                       err_msg=name)
