"""Slow or composed reference forms that the library's fast paths must match.

- :class:`Tensor` and :func:`backward` are a reverse-mode tape: a node
  holds a value, its parents and a backward rule, and :func:`backward`
  walks the graph in reverse topological order.  The library's parameters
  (``arlab.tensor.Tensor``) are its leaves, and :func:`zero_grads` zeroes
  leaves before a backward pass adds into them.
- :func:`add`, :func:`scale` and :func:`softmax_cross_entropy` are generic
  tape nodes; :func:`logits_node` and :func:`penalty_node` make the
  model's forward pass and an alignment penalty one node each.
  :func:`composed_step_loss` joins them into a training step's loss: two
  cross-entropy nodes, their mean through ``add`` and ``scale``, and the
  penalty through ``scale`` and ``add``.  The library writes the same
  step in closed form (``training._assemble``), and tests compare
  :func:`closed_form_step` with :func:`composed_step` with ``==``.
- :func:`paired_copy` is the step's pairing done twice over: a worst
  mode picks each image's member from ``model.family_logits`` and then
  transforms the picked members again (:func:`worst_case_copy`), and
  :func:`composed_step` runs the auxiliary update on forward passes of
  its own.  The library transforms and forwards each array once per step
  (``training._forwards``).
- :func:`per_step_reference` is vertex-mode training that transforms each
  batch under the vertex at every step.
- :func:`intersect1d_invariance` and :func:`argsort_invariance` score
  invariance from the whole distance array and a stable sort.
  :func:`chunked_invariance` computes every distance exactly, in chunks
  whose (rows, m*t, k) difference array fits 256 KiB, and ranks them as
  the library does (``evaluation._own_among_nearest``).  The library
  computes exactly only the entries that scipy's L1 kernel puts near each
  query's t-th distance (``evaluation.invariance_per_class``).
- :func:`numpy_cross_entropy` is a graph-free mean cross-entropy.
- :func:`brute_force_w1` is the exact empirical W1 distance, found by
  enumerating every pairing.
- :func:`centred_lowpass` is the texture filter with its disc drawn on the
  centred spectrum: the whole stack's spectrum is ``fftshift``-ed, masked
  and ``ifftshift``-ed back.  The library draws the disc where the DFT
  leaves DC and masks each row block's spectrum in place
  (``transforms._transform_block``).
- :func:`per_glyph_minidigits` renders minidigits one glyph at a time,
  drawing each glyph's random numbers just before it renders them.  The
  library draws them all first and renders in row blocks
  (``datasets.gen_minidigits``).
"""

import itertools

import numpy as np

from arlab import tensor as T
from arlab import training
from arlab.datasets import _DIGIT_SEGMENTS, _SEGMENTS, LabeledImages, one_hot
from arlab.errors import DivergenceError, ShapeError
from arlab.evaluation import _own_among_nearest
from arlab.model import family_logits, init, logits, logits_array
from arlab.regularizers import aux_update, init_aux, penalty
from arlab.tensor import NonFiniteError, _log_softmax
from arlab.transforms import _dft_matrix, apply_batch


class Tensor(T.Tensor):
    """A tape node: a value plus its parents and backward rule, if any.

    A node made directly (no parents) is a leaf, as is every library
    parameter.  Leaf gradients accumulate across :func:`backward` calls
    until :func:`zero_grads` zeroes them, which lets several losses share
    one subgraph.
    """

    __slots__ = ("_parents", "_backward")

    def __init__(self, data, parents=(), backward_rule=None):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self._parents = tuple(parents)
        self._backward = backward_rule

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))


def zero_grads(leaves) -> None:
    """Start each leaf's gradient over at zero."""
    for t in leaves:
        t.grad = np.zeros_like(t.data)


def parameters(model) -> list:
    """The model's parameters in file order: w0, b0, w1, b1, ..."""
    return [t for layer in model.layers for t in layer]


def _parents(node) -> tuple:
    return getattr(node, "_parents", ())


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss node.

    Gradients of interior nodes are recomputed from scratch on every call;
    leaf gradients accumulate until zeroed.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {loss.shape}")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in _parents(node):
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in order:
        if _parents(node):
            node.grad = np.zeros_like(node.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        rule = getattr(node, "_backward", None)
        if rule is not None:
            rule(node.grad)


def _coerce(x) -> T.Tensor:
    if isinstance(x, T.Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _accumulate(t: T.Tensor, g: np.ndarray) -> None:
    # reduce a full-shape gradient back down for a scalar operand
    if t.data.ndim == 0:
        t.grad = t.grad + np.sum(g)
    else:
        t.grad = t.grad + g


def add(a, b) -> Tensor:
    """Elementwise sum; scalar operands broadcast against tensors."""
    a, b = _coerce(a), _coerce(b)
    # only exact-shape and scalar-with-tensor combinations are supported
    if a.shape != b.shape and a.data.ndim and b.data.ndim:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def rule(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, (a, b), rule)


def scale(a, c: float) -> Tensor:
    """Multiply by a plain float constant."""
    a = _coerce(a)
    c = float(c)

    def rule(g):
        a.grad = a.grad + g * c

    return Tensor(a.data * c, (a,), rule)


def validate_one_hot(labels: np.ndarray) -> np.ndarray:
    """Check that every row of ``labels`` is a valid one-hot vector."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"one-hot labels must be 2-D, got shape {y.shape}")
    ok = np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("labels are not one-hot rows")
    return y


def softmax_cross_entropy(logits_node, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and one-hot labels.

    Stabilized by max-subtraction; returns a scalar node whose gradient with
    respect to the logits is (softmax - y) / batch.
    """
    z = _coerce(logits_node)
    if z.data.ndim != 2 or z.shape[1] < 2:
        raise ShapeError(f"logits must be (b, k) with k >= 2, got {z.shape}")
    y = validate_one_hot(labels)
    if y.shape != z.shape:
        raise ShapeError(f"labels shape {y.shape} != logits shape {z.shape}")
    b = z.shape[0]
    logp = _log_softmax(z.data)
    loss = -(y * logp).sum() / b

    def rule(g):
        z.grad = z.grad + g * (np.exp(logp) - y) / b

    return Tensor(loss, (z,), rule)


def logits_node(model, images) -> Tensor:
    """The model's forward pass as one node whose parents are its parameters.

    The rule runs back through every layer: the affine map, then the ReLU
    mask of the layer below.
    """
    forward = logits(model, images)

    def rule(g):
        for i in reversed(range(model.num_layers)):
            w, b = model.layers[i]
            b.grad = b.grad + g.sum(axis=0)
            w.grad = w.grad + forward.inputs[i].T @ g
            if i > 0:
                g = (g @ w.data.T) * forward.masks[i - 1]

    return Tensor(forward.logits, parameters(model), rule)


def penalty_node(kind, u, v, aux=None) -> Tensor:
    """An alignment penalty as one node over the logit pair.

    Its rule takes the gradients of ``g`` times the penalty from the
    library's closed form, with the upstream gradient ``g``.
    """
    u, v = _coerce(u), _coerce(v)
    value, _, _ = penalty(kind, u.data, v.data, aux, 1.0)

    def rule(g):
        _, gu, gv = penalty(kind, u.data, v.data, aux, g)
        u.grad = u.grad + gu
        v.grad = v.grad + gv

    return Tensor(value, (u, v), rule)


def composed_step_loss(plan, model, images, labels, augmented, aux=None):
    """A step's loss built from tape nodes; returns (loss, penalty or None).

    Takes the same arguments as ``training._assemble``: ``augmented`` is the
    batch's paired copy, or None for a baseline step.
    """
    y = one_hot(labels, model.num_classes)
    u = logits_node(model, images)
    if augmented is None:
        return softmax_cross_entropy(u, y), None
    v = logits_node(model, augmented)
    ce = scale(add(softmax_cross_entropy(u, y), softmax_cross_entropy(v, y)), 0.5)
    if not plan.uses_penalty:
        return ce, None
    pen = penalty_node(plan.align_kind, u, v, aux)
    return add(ce, scale(pen, plan.lam)), pen.item()


def worst_case_copy(model, images, labels, family):
    """Each image under its own worst-case member, transformed again after
    ``select_worst`` picked it from the whole family's logit cube."""
    picks = training.select_worst(family_logits(model, images, family), labels)
    out = np.empty_like(images)
    for j in np.unique(picks):
        mask = picks == j
        out[mask] = apply_batch(family.members[j], images[mask])
    return out


def paired_copy(plan, model, images, labels, vertex):
    """The batch's paired copy, or None for a baseline step.

    ``vertex`` is the batch under the training vertex in a vertex mode,
    None otherwise, as ``training._forwards`` takes it.
    """
    if plan.mode in training.WORST_MODES:
        return worst_case_copy(model, images, labels, plan.family)
    return vertex


def composed_step(plan, model, images, labels, vertex, aux):
    """A step on the tape; returns (loss, penalty).

    The copy comes from :func:`paired_copy`, the auxiliary update reads
    forward passes of its own, and :func:`composed_step_loss` is
    backpropagated into the model's freshly zeroed parameters.
    """
    augmented = paired_copy(plan, model, images, labels, vertex)
    if aux is not None:
        aux_update(logits_array(model, images), logits_array(model, augmented), aux)
    loss, pen = composed_step_loss(plan, model, images, labels, augmented, aux)
    zero_grads(parameters(model))
    backward(loss)
    return loss.item(), pen


def closed_form_step(plan, model, images, labels, vertex, aux):
    """The library's step as ``training.train`` runs it: ``_forwards``, the
    auxiliary update on its logits, ``_assemble`` and one ``tensor.backward``.

    Takes and returns what :func:`composed_step` does.
    """
    pair = training._forwards(plan, model, images, labels, vertex)
    if aux is not None:
        aux_update(pair[0].logits, pair[1].logits, aux)
    step = training._assemble(plan, pair, labels, aux)
    T.backward(step.passes)
    return step.value, step.penalty


def per_step_reference(plan, data, step=closed_form_step):
    """Reference for vertex-mode ``train``: each step draws its rows from
    the same seeded shuffle and transforms its own batch under the vertex.
    ``step`` updates the auxiliary, fills the parameter gradients and
    returns (loss, penalty), as :func:`closed_form_step` does."""
    widths = (data.images.shape[1] * data.images.shape[2], *plan.hidden,
              data.num_classes)
    model = init(widths, plan.seed)
    aux = init_aux(data.num_classes, plan.seed) if plan.needs_aux else None
    losses, penalties = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(plan.epochs):
            lr = plan.lr.at(epoch)
            perm = np.random.default_rng(plan.seed * 1_000_003 + epoch).permutation(len(data))
            step_losses, step_pens = [], []
            for start in range(0, len(data), plan.batch_size):
                idx = perm[start:start + plan.batch_size]
                images, labels = data.images[idx], data.labels[idx]
                try:
                    vertex = apply_batch(plan.family.training_vertex(), images)
                    loss, pen = step(plan, model, images, labels, vertex, aux)
                except NonFiniteError as exc:
                    raise DivergenceError(
                        f"training diverged (non-finite loss) at epoch {epoch}") from exc
                for t in parameters(model):
                    t.data = t.data - lr * t.grad
                step_losses.append(loss)
                if pen is not None:
                    step_pens.append(pen)
            losses.append(float(np.mean(step_losses)))
            penalties.append(float(np.mean(step_pens)) if step_pens else 0.0)
    return training.RunHistory(losses, penalties, model)


def intersect1d_invariance(cube, labels, num_classes):
    """Oracle: each sample's own copies intersected with its t nearest."""
    t = cube.shape[0]
    scores = np.zeros(num_classes)
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        m = members.size
        query = cube[0, members]
        pool = cube[:, members].reshape(t * m, -1)
        dists = np.abs(query[:, None, :] - pool[None, :, :]).sum(axis=2)
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :t]
        own = np.arange(m)[:, None] + m * np.arange(t)[None, :]
        overlap = [np.intersect1d(nearest[s], own[s]).size for s in range(m)]
        scores[cls] = np.mean(overlap) / t
    return scores


def argsort_invariance(cube, labels, num_classes):
    """Oracle: the whole (m, m*t, k) difference array and a stable sort per class."""
    t = cube.shape[0]
    scores = np.zeros(num_classes)
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        m = members.size
        query = cube[0, members]
        pool = cube[:, members].reshape(t * m, -1)
        dists = np.abs(query[:, None, :] - pool[None, :, :]).sum(axis=2)
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :t]
        overlap = (nearest % m == np.arange(m)[:, None]).sum(axis=1)
        scores[cls] = np.mean(overlap) / t
    return scores


def chunked_invariance(cube, labels, num_classes):
    """Oracle: every distance exact, queries in chunks of a 256 KiB difference array."""
    t = cube.shape[0]
    scores = np.zeros(num_classes)
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        m = members.size
        query = cube[0, members]
        pool = cube[:, members].reshape(t * m, -1)
        rows = max(1, 256 * 1024 // pool.nbytes)
        overlap = np.empty(m, dtype=np.intp)
        for start in range(0, m, rows):
            chunk = slice(start, start + rows)
            diff = query[chunk, None, :] - pool[None, :, :]
            dists = np.abs(diff, out=diff).sum(axis=2)
            overlap[chunk] = _own_among_nearest(dists, np.arange(m)[chunk], m, t)
        scores[cls] = np.mean(overlap) / t
    return scores


def numpy_cross_entropy(z, y):
    """Mean cross-entropy of logit rows ``z`` against one-hot rows ``y``."""
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -(y * logp).sum() / len(y)


def brute_force_w1(u, v):
    """Enumerate every permutation and take the cheapest pairing's l1 total."""
    b = len(u)
    best = np.inf
    for perm in itertools.permutations(range(b)):
        total = sum(np.abs(u[i] - v[perm[i]]).sum() for i in range(b))
        best = min(best, total)
    return best


def centred_lowpass(images, radius):
    """Low-pass filter of a (n, h, w) stack, masked on the centred spectrum."""
    x = np.asarray(images, dtype=np.float64)
    _, h, w = x.shape
    cy, cx = h // 2, w // 2
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mask = (np.hypot(ys - cy, xs - cx) <= radius).astype(np.float64)
    spectrum = _dft_matrix(h) @ x @ _dft_matrix(w)
    centred = np.fft.fftshift(spectrum, axes=(1, 2))
    centred *= mask
    masked = np.fft.ifftshift(centred, axes=(1, 2))
    back = _dft_matrix(h).conj() @ masked @ _dft_matrix(w).conj() / (h * w)
    return np.clip(back.real, 0.0, 1.0)


def _render_glyph(digit, size, rng):
    s = size / 16.0
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    shift_x = rng.uniform(-0.8, 0.8) * s
    shift_y = rng.uniform(-0.8, 0.8) * s
    img = np.zeros((size, size))
    for name in _DIGIT_SEGMENTS[digit]:
        x0, y0, x1, y1 = (v * s for v in _SEGMENTS[name])
        jitter = rng.uniform(-0.4, 0.4, size=4) * s
        x0 += jitter[0] + shift_x
        y0 += jitter[1] + shift_y
        x1 += jitter[2] + shift_x
        y1 += jitter[3] + shift_y
        dx, dy = x1 - x0, y1 - y0
        length_sq = dx * dx + dy * dy
        if length_sq < 1e-12:
            dist = np.hypot(xs - x0, ys - y0)
        else:
            t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / length_sq, 0.0, 1.0)
            dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
        stroke = np.clip(1.4 * s - dist, 0.0, 1.0)
        img = np.maximum(img, stroke)
    img *= rng.uniform(0.75, 1.0)
    img += rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def per_glyph_minidigits(n, seed, image_size):
    """Minidigits rendered one glyph at a time, each from its own draws."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 10
    images = np.stack([_render_glyph(int(d), image_size, rng) for d in labels])
    return LabeledImages(images, labels, 10)
