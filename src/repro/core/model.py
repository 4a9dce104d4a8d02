"""The M2AI deep network (Fig. 6) and its ablation variants.

Per spectrum frame, a CNN encoder compresses each input channel
(pseudospectrum ``n_tags x 180``, periodogram ``n_tags x N``); a
fully-connected layer merges the branches into one per-frame feature;
two stacked LSTM layers of 32 cells track the frame sequence; a softmax
head predicts the activity at every frame.

Ablation variants (Fig. 17):

* ``"cnn"`` — same encoders, temporal mean pooling instead of LSTMs;
* ``"lstm"`` — a linear per-frame projection instead of the CNN.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import M2AIConfig
from repro.nn.conv import CHUNK, Conv1d, MaxPool1d
from repro.nn.layers import Dense, Dropout, Flatten, ReLU, relu, relu_grad
from repro.nn.module import Module, Sequential
from repro.nn.parallel import parts, run_parts
from repro.nn.recurrent import LSTM
from repro.obs.tracing import span

MODEL_MODES = ("cnn_lstm", "cnn", "lstm")


class _Branch(Module):
    """One channel's encoder: a :class:`Sequential` ``net`` ending in a feature."""

    net: Sequential

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        return self.net.forward(x, training=training)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the cached forward pass; returns the input gradient.

        ``input_grad=False`` stops at the first parameterised layer,
        which computes only its parameter gradients, and returns None.
        """
        return self.net.backward(grad, input_grad=input_grad)


class ConvBranch(Module):
    """CNN encoder for one wide channel: ``(B', n_tags, D) -> (B', out)``.

    Realises the paper's CONV-E stack: two strided convolutions over the
    angle axis with the tags as input channels, max-pooled when wide,
    flattened and projected.

    The conv stack is walked one chunk of :data:`repro.nn.conv.CHUNK`
    samples at a time through conv1 -> ReLU -> conv2 -> ReLU (-> pool),
    forward and backward, so every intermediate of a chunk stays in
    cache; only the relu1 output (channel-major ``(C1, B', L1)``) and
    the fc input ``(B', C2·L2)`` are whole-batch.  The chunks are split
    into contiguous parts across cores (:func:`repro.nn.parallel.run_parts`);
    each part owns its scratch and writes disjoint slices, and backward
    writes each chunk's ``[dW|db]`` into its own slot, summed in chunk
    order after the join.  Each GEMM sees the same operands and chunk
    boundaries as the layer-at-a-time walk, and each ``dW`` adds its
    chunks in the same order, so the result is bit-equal to it
    (``tests/nn/branch_oracle.py`` is that walk) at any core count.
    """

    fused = ("conv1", "conv2")

    def __init__(
        self, n_tags: int, width: int, cfg: M2AIConfig, rng: np.random.Generator, name: str
    ) -> None:
        c1, c2 = cfg.conv_channels
        k1, k2 = cfg.conv_kernels
        # Resolution matters: pseudospectrum peaks move by a handful of
        # 1-degree bins per activity, so the stack keeps stride 1 on the
        # first stage and downsamples only once.  Aggressive pooling
        # (a 16x reduction) measurably destroys the class signal.
        self.conv1 = Conv1d(n_tags, c1, k1, rng, stride=1, padding=k1 // 2, name=f"{name}.conv1")
        self.conv2 = Conv1d(c1, c2, k2, rng, stride=2, padding=k2 // 2, name=f"{name}.conv2")
        length = self.conv2.out_length(self.conv1.out_length(width))
        self.pool = MaxPool1d(2) if length > 128 else None
        if self.pool is not None:
            length //= 2
        self.fc = Dense(c2 * length, cfg.branch_dim, rng, relu_init=True, name=f"{name}.fc")
        self.relu = ReLU()
        self._cache: tuple[np.ndarray, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        conv1, conv2, pool = self.conv1, self.conv2, self.pool
        batch, _, width = x.shape
        c1, c2 = conv1.out_channels, conv2.out_channels
        l1 = conv1.out_length(width)
        l2 = conv2.out_length(l1)
        l_fc = l2 // 2 if pool is not None else l2
        d1 = np.result_type(x.dtype, conv1.weight.value.dtype)
        d2 = np.result_type(d1, conv2.weight.value.dtype)
        w1, w2 = conv1.weight_matrix(d1), conv2.weight_matrix(d2)
        chunk = min(batch, CHUNK)
        h1 = np.empty((c1, batch, l1), dtype=d1)
        feats = np.empty((batch, c2 * l_fc), dtype=d2)
        argmax = None if pool is None else np.empty((c2, batch, l_fc), dtype=np.intp)

        def walk(lo: int, hi: int) -> None:
            col1 = np.empty(conv1.col_size(chunk, width), dtype=d1)
            col2 = np.empty(conv2.col_size(chunk, l1), dtype=d2)
            out1 = np.empty(c1 * chunk * l1, dtype=d1)
            out2 = np.empty(c2 * chunk * l2, dtype=d2)
            for start in range(lo * chunk, min(hi * chunk, batch), chunk):
                stop = min(start + chunk, batch)
                h = h1[:, start:stop]
                relu(conv1.forward_chunk(x[start:stop].transpose(1, 0, 2), w1, col1, out1), out=h)
                y2 = conv2.forward_chunk(h, w2, col2, out2)
                relu(y2, out=y2)
                f = feats[start:stop].reshape(stop - start, c2, l_fc).transpose(1, 0, 2)
                if pool is None:
                    f[...] = y2
                else:
                    f[...], argmax[:, start:stop] = pool.pool(y2)

        run_parts(-(-batch // chunk), walk)
        self._cache = (x, h1, feats, argmax)
        return self.relu.forward(self.fc.forward(feats, training=training), training=training)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the cached forward pass; returns the input gradient.

        ``input_grad=False`` skips conv1's ``dcols`` GEMM and col2im,
        accumulates only the parameter gradients, and returns None.
        """
        if self._cache is None:
            raise RuntimeError("backward before forward")
        x, h1, feats, argmax = self._cache
        conv1, conv2, pool = self.conv1, self.conv2, self.pool
        dfeats = self.fc.backward(self.relu.backward(grad))
        batch, channels, width = x.shape
        c1, l1 = h1.shape[0], h1.shape[2]
        c2, l2 = conv2.out_channels, conv2.out_length(l1)
        l_fc = feats.shape[1] // c2
        dtype = np.result_type(dfeats.dtype, h1.dtype, conv2.weight.value.dtype)
        chunk = min(batch, CHUNK)
        n_chunks = -(-batch // chunk)
        # One [dW|db] slot per chunk, summed in chunk order after the walk.
        dw1_slots = np.empty((n_chunks, c1, channels * conv1.kernel + 1), dtype=dtype)
        dw2_slots = np.empty((n_chunks, c2, c1 * conv2.kernel + 1), dtype=dtype)
        dx = np.empty(x.shape, dtype=dtype) if input_grad else None

        def walk(lo: int, hi: int) -> None:
            col1 = np.empty(conv1.col_size(chunk, width), dtype=dtype)
            col2 = np.empty(conv2.col_size(chunk, l1), dtype=dtype)
            g2_buf = np.empty(c2 * chunk * l_fc, dtype=dtype)
            dh_buf = np.empty(c1 * chunk * l1, dtype=dtype)
            g1_buf = np.empty(c1 * chunk * l1, dtype=dtype)
            dx_buf = np.empty(channels * chunk * width, dtype=dtype) if input_grad else None
            for i in range(lo, hi):
                start = i * chunk
                stop = min(start + chunk, batch)
                b = stop - start
                h = h1[:, start:stop]
                g2 = relu_grad(
                    dfeats[start:stop].reshape(b, c2, l_fc).transpose(1, 0, 2),
                    feats[start:stop].reshape(b, c2, l_fc).transpose(1, 0, 2),
                    out=g2_buf[: c2 * b * l_fc].reshape(c2, b, l_fc),
                )
                if pool is not None:
                    g2 = pool.unpool(g2, argmax[:, start:stop], l2)
                dh = dh_buf[: c1 * b * l1].reshape(c1, b, l1)
                conv2.backward_chunk(g2.reshape(c2, b * l2), h, dw2_slots[i], col2, dh)
                g1 = relu_grad(dh, h, out=g1_buf[: c1 * b * l1].reshape(c1, b, l1))
                dx_cm = None
                if dx_buf is not None:
                    dx_cm = dx_buf[: channels * b * width].reshape(channels, b, width)
                conv1.backward_chunk(
                    g1.reshape(c1, b * l1), x[start:stop].transpose(1, 0, 2),
                    dw1_slots[i], col1, dx_cm,
                )
                if dx is not None:
                    dx[start:stop] = dx_cm.transpose(1, 0, 2)

        run_parts(n_chunks, walk)
        conv2.add_grads(_sum_in_order(dw2_slots))
        conv1.add_grads(_sum_in_order(dw1_slots))
        return dx


def _sum_in_order(slots: np.ndarray) -> np.ndarray:
    """``0 + slots[0] + slots[1] + ...``, one add at a time, in chunk order."""
    total = np.zeros(slots.shape[1:], dtype=slots.dtype)
    for slot in slots:
        total += slot
    return total


class DenseBranch(_Branch):
    """Dense encoder for a narrow channel: ``(B', n_tags, D) -> (B', out)``."""

    def __init__(
        self, n_tags: int, width: int, cfg: M2AIConfig, rng: np.random.Generator, name: str
    ) -> None:
        self.net = Sequential(
            Flatten(),
            Dense(n_tags * width, cfg.branch_dim, rng, relu_init=True, name=f"{name}.fc"),
            ReLU(),
        )


class LinearBranch(_Branch):
    """Plain linear projection (the "LSTM only" ablation's front end)."""

    def __init__(
        self, n_tags: int, width: int, cfg: M2AIConfig, rng: np.random.Generator, name: str
    ) -> None:
        self.net = Sequential(
            Flatten(),
            Dense(n_tags * width, cfg.branch_dim, rng, name=f"{name}.proj"),
        )


_CONV_MIN_WIDTH = 32
"""Channels at least this wide get the CNN encoder."""


class M2AINet(Module):
    """The full Fig. 6 network over named input channels.

    Args:
        channel_shapes: mapping channel name -> ``(n_tags, width)``.
        n_classes: activity class count.
        cfg: hyper-parameters.
        mode: ``"cnn_lstm"`` (paper), ``"cnn"``, or ``"lstm"``.
        rng: weight-init randomness; derived from ``cfg.seed`` if None.

    Forward input is a dict ``{name: (B, T, n_tags, width)}``; output is
    per-frame logits ``(B, T_out, n_classes)`` where ``T_out == T``
    except in ``"cnn"`` mode (temporal mean pooling, ``T_out == 1``).
    """

    def __init__(
        self,
        channel_shapes: dict[str, tuple[int, int]],
        n_classes: int,
        cfg: M2AIConfig | None = None,
        mode: str = "cnn_lstm",
        rng: np.random.Generator | None = None,
    ) -> None:
        if mode not in MODEL_MODES:
            raise ValueError(f"mode must be one of {MODEL_MODES}")
        if not channel_shapes:
            raise ValueError("need at least one input channel")
        cfg = cfg or M2AIConfig()
        rng = rng or np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.mode = mode
        self.channel_names = sorted(channel_shapes)
        self.channel_shapes = dict(channel_shapes)
        self.n_classes = n_classes

        self.branches: list[Module] = []
        for name in self.channel_names:
            n_tags, width = channel_shapes[name]
            if mode == "lstm":
                branch: Module = LinearBranch(n_tags, width, cfg, rng, name)
            elif width >= _CONV_MIN_WIDTH:
                branch = ConvBranch(n_tags, width, cfg, rng, name)
            else:
                branch = DenseBranch(n_tags, width, cfg, rng, name)
            self.branches.append(branch)

        merged_in = cfg.branch_dim * len(self.channel_names)
        self.merge = Sequential(
            Dense(merged_in, cfg.merge_dim, rng, relu_init=True, name="merge.fc"),
            ReLU(),
            Dropout(cfg.dropout, rng),
        )

        if mode in ("cnn_lstm", "lstm"):
            self.lstms: list[Module] = []
            in_dim = cfg.merge_dim
            for i in range(cfg.lstm_layers):
                self.lstms.append(LSTM(in_dim, cfg.lstm_hidden, rng, name=f"lstm{i}"))
                in_dim = cfg.lstm_hidden
            head_in = cfg.lstm_hidden
        else:
            self.lstms = []
            head_in = cfg.merge_dim
        self.head = Dense(head_in, n_classes, rng, name="head")
        self._batch_frames: tuple[int, int] | None = None

    # ------------------------------------------------------------------

    def forward(
        self, inputs: dict[str, np.ndarray], training: bool = False
    ) -> np.ndarray:
        """Per-frame logits for a batch of frame sequences."""
        missing = [n for n in self.channel_names if n not in inputs]
        if missing:
            raise ValueError(f"missing input channels: {missing}")
        first = inputs[self.channel_names[0]]
        batch, frames = first.shape[0], first.shape[1]
        workers = self._walk_workers(batch * frames)
        with span("nn.forward", batch=batch, frames=frames, workers=workers):
            feats = []
            for name, branch in zip(self.channel_names, self.branches):
                x = inputs[name]
                if x.shape[:2] != (batch, frames):
                    raise ValueError("channels disagree on (batch, frames)")
                flat = x.reshape(batch * frames, *x.shape[2:])
                feats.append(branch.forward(flat, training=training))
            merged = self.merge.forward(np.concatenate(feats, axis=1), training=training)
            seq = merged.reshape(batch, frames, -1)
            self._batch_frames = (batch, frames)

            if self.mode == "cnn":
                pooled = seq.mean(axis=1)
                logits = self.head.forward(pooled, training=training)
                return logits[:, None, :]
            hidden = seq
            for lstm in self.lstms:
                hidden = lstm.forward(hidden, training=training)
            return self.head.forward(hidden, training=training)

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> dict[str, np.ndarray]:
        """Backprop; returns per-channel input gradients.

        With ``input_grad=False`` (what :class:`~repro.core.trainer.Trainer`
        passes) every parameter gradient is accumulated exactly as with
        the default, but each branch's first parameterised layer skips
        its input gradient and the returned dict is empty.  The default
        keeps the input gradients gradchecks compare against.
        """
        if self._batch_frames is None:
            raise RuntimeError("backward before forward")
        batch, frames = self._batch_frames
        workers = self._walk_workers(batch * frames)
        with span("nn.backward", batch=batch, frames=frames, workers=workers):
            if self.mode == "cnn":
                dpooled = self.head.backward(grad[:, 0, :])
                dseq = np.broadcast_to(
                    dpooled[:, None, :] / frames, (batch, frames, dpooled.shape[-1])
                ).copy()
            else:
                dseq = self.head.backward(grad)
                for lstm in reversed(self.lstms):
                    dseq = lstm.backward(dseq)
            dmerged = self.merge.backward(dseq.reshape(batch * frames, -1))
            out: dict[str, np.ndarray] = {}
            offset = 0
            for name, branch in zip(self.channel_names, self.branches):
                width = self.cfg.branch_dim
                dbranch = branch.backward(
                    dmerged[:, offset : offset + width], input_grad=input_grad
                )
                offset += width
                if input_grad:
                    n_tags, dim = self.channel_shapes[name]
                    out[name] = dbranch.reshape(batch, frames, n_tags, dim)
            return out

    def _walk_workers(self, rows: int) -> int:
        """Parts (threads) the conv chunk walk splits ``rows`` rows into (1: serial)."""
        if not any(isinstance(branch, ConvBranch) for branch in self.branches):
            return 1
        return parts(-(-rows // CHUNK))

    def predict_logits(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Sample-level logits: mean of the per-frame logits, ``(B, C)``.

        Recurrent modes skip the configured warm-up frames, where the
        LSTM state carries no history yet.
        """
        return self.sample_logits(self.forward(inputs, training=False))

    def sample_logits(self, logits: np.ndarray) -> np.ndarray:
        """Per-frame logits ``(B, T_out, C)`` -> sample logits ``(B, C)``.

        The mean over frames after the warm-up: the one reduction both
        :meth:`predict_logits` and the trainer's running accuracy use.
        """
        start = 0
        if self.mode != "cnn":
            start = min(self.cfg.warmup_frames, logits.shape[1] - 1)
        return logits[:, start:, :].mean(axis=1)
