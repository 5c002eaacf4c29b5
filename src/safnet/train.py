"""Adversarial training: the three-term objective, Adam, LR scheduling,
early stopping, the fit loop, and the lambda grid search.

The total loss is

    L_total = L_task + lambda_mi * L_MI + lambda_grl * L_domain

where L_task and L_domain are mean cross-entropies of the task and domain
heads, and L_MI is the mean Shannon entropy of the domain-head softmax.
The domain branch (both its cross-entropy and the entropy term) is routed
through the gradient reversal layer, which multiplies the backward signal
into the encoder by -lambda_grl. Because the reversal layer already
carries that factor, the lambda_grl weighting of the domain term enters
the total value-only (scale_value_only) -- scaling its gradient as well
would square the factor on the encoder path. The domain head therefore
trains on plain, unscaled cross-entropy while the encoder receives the
reversed, scaled gradient, and the reported L_total still equals the
weighted sum above with lambda_grl multiplying L_domain.

Routing the entropy term through the reversal layer means the encoder is
pushed to *maximize* domain-posterior entropy (an uninformative subject
posterior, i.e. low mutual information between features and subject)
while the head stays confident.

The encoder reads (B, C, M) batches, as ISBCS returns them, and builds
gradients only in training (compute_losses); evaluation runs predict.

Adam's decay rates and epsilon (BETA1, BETA2, ADAM_EPS) and the plateau
schedule's improvement margin, decay factor and floor (IMPROVEMENT_EPS,
LR_FACTOR, LR_FLOOR) are constants; TrainConfig holds the learning rate,
batch size, epoch bounds, patience, plateau window, seed and swap setting.

The grid search spans LAMBDA_MIN to LAMBDA_MAX on both axes and trains its
cells independently, each seeded from its grid position. It runs them on a
process pool, at jobs = 1 too, whose initializer hands every worker the
train and validation epochs once and pins the worker's OpenBLAS to one
thread; the cell tasks then carry only lambdas, configs and seeds. Only
workers hold the epochs in the module.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .datamodel import Epoch, write_csv
from .errors import ValidationError
from .isbcs import SwapConfig, isbcs_augment_batch
from .metrics import confusion, macro_metrics
from .model import EncoderConfig, SafModel

GRID_TABLE_HEADER = ["lambda_mi", "lambda_grl", "val_macro_acc"]
EVAL_BATCH = 256
# fit stops as diverged at a step whose l_total exceeds this factor times
# max(1, l_total of the run's first step)
DIVERGENCE_FACTOR = 1e4
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
IMPROVEMENT_EPS = 0.001
LR_FACTOR = 0.5
LR_FLOOR = 1e-6
LAMBDA_MIN = 0.001
LAMBDA_MAX = 10.0


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the entropy and adversarial terms."""

    lambda_mi: float = 0.0
    lambda_grl: float = 0.0

    def __post_init__(self):
        for name in ("lambda_mi", "lambda_grl"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 32
    min_epochs: int = 20
    max_epochs: int = 200
    patience: int = 10
    plateau_window: int = 5
    seed: int = 0
    swap: SwapConfig = field(default_factory=SwapConfig)

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.min_epochs < 1 or self.max_epochs < self.min_epochs:
            raise ValidationError("need 1 <= min_epochs <= max_epochs, got "
                                  f"min_epochs={self.min_epochs}, max_epochs={self.max_epochs}")
        for name in ("patience", "plateau_window"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    l_task: float
    l_domain: float
    l_mi: float
    l_total: float
    lr: float
    val_macro_acc: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = ""

    @property
    def val_accuracies(self) -> list[float]:
        return [r.val_macro_acc for r in self.records]


def write_train_log(log: TrainLog, path: str) -> None:
    """One CSV column per EpochRecord field, in field order."""
    write_csv(path, [f.name for f in fields(EpochRecord)],
              [astuple(r) for r in log.records])


def compute_losses(x, y, subject_index, model: SafModel, weights: LossWeights, rng):
    """Training-mode forward pass and the three loss terms on one batch.

    x is (B, C, M); y are class labels; subject_index are integer domain
    targets below model.num_domains; rng draws the dropout masks. Returns
    scalar tensors (l_task, l_domain, l_mi, l_total); call .backward() on
    l_total to populate parameter gradients.
    """
    s = np.asarray(subject_index, dtype=np.int64)
    if s.size and (s.min() < 0 or s.max() >= model.num_domains):
        raise ValidationError(
            f"subject indices must be in [0, {model.num_domains}), "
            f"got range [{s.min()}, {s.max()}]")

    z = model.encoder_forward(x, mode="train", rng=rng)
    task_logits, domain_logits = model.heads_forward(
        z, lambda_grl=weights.lambda_grl)
    l_task = ad.softmax_cross_entropy(task_logits, np.asarray(y))
    l_domain = ad.softmax_cross_entropy(domain_logits, s)
    l_mi = ad.entropy_of_softmax(domain_logits)
    l_total = l_task + ad.Tensor(np.asarray(weights.lambda_mi,
                                            dtype=l_mi.data.dtype)) * l_mi
    l_total = l_total + ad.scale_value_only(l_domain, weights.lambda_grl)
    return l_task, l_domain, l_mi, l_total


class AdamState:
    """First/second moment estimates and the shared step counter. m and v
    are flat buffers, built here, holding every parameter's moments in the
    order of params; slices maps each name to its part. The parameters must
    share one dtype, the buffers'."""

    def __init__(self, params: dict[str, ad.Tensor]):
        dtypes = sorted({str(p.data.dtype) for p in params.values()})
        if len(dtypes) > 1:
            raise ValidationError(f"Adam needs parameters of one dtype, got {dtypes}")
        self.t = 0
        self.shapes = {k: p.data.shape for k, p in params.items()}
        self.slices = {}
        end = 0
        for k, p in params.items():
            self.slices[k] = slice(end, end + p.data.size)
            end += p.data.size
        dtype = dtypes[0] if dtypes else np.float64
        self.m = np.zeros(end, dtype=dtype)
        self.v = np.zeros(end, dtype=dtype)


def adam_step(params: dict[str, ad.Tensor], state: AdamState, lr: float) -> None:
    """One in-place Adam update of the parameters the state was built for; a
    parameter with grad None sees zero gradient. The gradients are gathered
    once into a flat buffer laid out as the state's m and v, the moment and
    step arithmetic runs over whole buffers, and each parameter subtracts
    its slice of the step in place."""
    if params.keys() != state.slices.keys():
        raise ValidationError(f"the optimizer state holds {sorted(state.slices)}, "
                              f"not the parameters passed, {sorted(params)}")
    g = np.zeros_like(state.m)
    for name, p in params.items():
        if p.data.shape != state.shapes[name] or p.data.dtype != state.m.dtype:
            raise ValidationError(
                f"{name} is {p.data.dtype} {p.data.shape}, the optimizer state "
                f"{state.m.dtype} {state.shapes[name]}")
        if p.grad is None:
            continue
        if p.grad.shape != p.data.shape or p.grad.dtype != p.data.dtype:
            raise ValidationError(
                f"gradient {p.grad.dtype} {p.grad.shape} does not match {name} "
                f"{p.data.dtype} {p.data.shape}")
        g[state.slices[name]] = p.grad.reshape(-1)
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * np.square(g)
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    for name, p in params.items():
        p.data -= step[state.slices[name]].reshape(p.data.shape)


def _tail_stagnation(history) -> int:
    """Consecutive epochs at the end of history that failed to beat the
    running best by more than IMPROVEMENT_EPS."""
    best = -np.inf
    stagnant = 0
    for v in history:
        if v > best + IMPROVEMENT_EPS:
            stagnant = 0
        else:
            stagnant += 1
        if v > best:
            best = v
    return stagnant


def scheduler_update(history, lr: float, cfg: TrainConfig) -> float:
    """The learning rate for the next epoch: lr times LR_FACTOR (down to
    LR_FLOOR) each time the monitored metric goes plateau_window consecutive
    epochs without improving on the best-so-far by more than IMPROVEMENT_EPS,
    lr otherwise. Call once per epoch, after appending that epoch's value to
    history."""
    if len(history) == 0:
        raise ValidationError("scheduler needs at least one recorded epoch")
    stagnant = _tail_stagnation(history)
    if stagnant > 0 and stagnant % cfg.plateau_window == 0:
        return max(lr * LR_FACTOR, LR_FLOOR)
    return lr


def early_stop_check(history, cfg: TrainConfig) -> bool:
    """True once at least min_epochs have run and the last patience epochs
    all failed to improve on the best by more than IMPROVEMENT_EPS."""
    if len(history) < cfg.min_epochs:
        return False
    return _tail_stagnation(history) >= cfg.patience


def _check_epochs(model: SafModel, epochs: list[Epoch], empty: str) -> None:
    """The one check of an epoch list against the model, before any step or
    prediction: refuses an empty list (with the message `empty`), and
    epochs of another (channels, samples) than the model's (C, M) or
    sampled at another rate. Rates are compared at float32, the precision
    an NDF file stores."""
    if not epochs:
        raise ValidationError(empty)
    cfg = model.cfg
    with np.errstate(over="ignore"):  # a rate beyond float32 casts to inf
        for shape, rate in {(ep.x.shape, ep.sample_rate_hz) for ep in epochs}:
            if shape != (cfg.C, cfg.M):
                raise ValidationError(
                    f"epochs of {shape[0]} channels x {shape[1]} samples do not "
                    f"fit the model's {cfg.C} x {cfg.M}")
            if np.float32(rate) != np.float32(cfg.fs):
                raise ValidationError(f"epochs are sampled at {rate} Hz but "
                                      f"the model at {cfg.fs} Hz")


def eval_confusion(model: SafModel, epochs: list[Epoch]) -> np.ndarray:
    """Task-head 2x2 confusion counts (rows true class, columns predicted)
    over the given epochs, eval mode."""
    _check_epochs(model, epochs, "cannot evaluate an empty epoch list")
    preds = []
    for start in range(0, len(epochs), EVAL_BATCH):
        x = np.stack([ep.x for ep in epochs[start:start + EVAL_BATCH]])
        preds.extend(model.predict(x).tolist())
    return confusion([ep.y for ep in epochs], preds)


def evaluate_macro_accuracy(model: SafModel, epochs: list[Epoch]) -> float:
    """Task-head macro-accuracy over the given epochs, eval mode."""
    return macro_metrics(eval_confusion(model, epochs))[0]


def _snapshot(model: SafModel):
    return ({k: p.data.copy() for k, p in model.params.items()},
            {k: b.copy() for k, b in model.buffers.items()})


def _restore(model: SafModel, snap) -> None:
    params, buffers = snap
    for k, v in params.items():
        model.params[k].data[...] = v
    for k, v in buffers.items():
        model.buffers[k][...] = v


def fit(train_data, val_data, model: SafModel, cfg: TrainConfig,
        weights: LossWeights) -> tuple[SafModel, TrainLog]:
    """Train the model, monitor validation macro-accuracy, and return the
    model restored to its best epoch together with the per-epoch log.

    Three independent RNG streams are derived from cfg.seed (in order:
    batch shuffling, channel-swap augmentation, dropout), so a run with
    swap probability 0 and both lambdas 0 follows the exact parameter
    trajectory of a plain classifier loop that never touches the swap
    stream. The model is updated in place.

    A batch whose loss is not finite, or whose l_total exceeds
    DIVERGENCE_FACTOR * max(1, first step's l_total), stops training with a
    ValidationError that names its epoch and step, before that batch
    updates the weights. An empty set, and epochs of another shape or rate
    than the model's, are refused before the first step.
    """
    for epochs in (train_data, val_data):
        _check_epochs(model, epochs, "train and validation sets must be non-empty")

    subjects = sorted({ep.s for ep in train_data})
    subject_map = {s: i for i, s in enumerate(subjects)}
    labels = np.array([ep.y for ep in train_data], dtype=np.int64)
    domains = np.array([subject_map[ep.s] for ep in train_data], dtype=np.int64)
    if model.num_domains != len(subjects):
        raise ValidationError(
            f"model has {model.num_domains} domain outputs but the training "
            f"set has {len(subjects)} subjects")
    if len(subjects) < 2 and weights.lambda_grl > 0:
        warnings.warn(
            "adversarial term is active but the training set has a single "
            "subject; the domain task is degenerate", RuntimeWarning,
            stacklevel=2)

    shuffle_ss, swap_ss, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    swap_rng = np.random.default_rng(swap_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    adam = AdamState(model.params)
    lr = cfg.lr
    log = TrainLog()
    best_acc = -np.inf
    best_snap = _snapshot(model)
    loss_limit = None

    n = len(train_data)
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = np.zeros(4)
        for step, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = order[start:start + cfg.batch_size]
            x, _ = isbcs_augment_batch([train_data[i] for i in idx], cfg.swap,
                                       swap_rng)
            model.zero_grad()
            l_task, l_domain, l_mi, l_total = compute_losses(
                x, labels[idx], domains[idx], model, weights, dropout_rng)
            losses = np.array([float(l_task.data), float(l_domain.data),
                               float(l_mi.data), float(l_total.data)])
            if not np.isfinite(losses).all():
                raise ValidationError(
                    f"training diverged at epoch {epoch}, step {step}: loss "
                    f"(task, domain, mi, total) = {losses.tolist()} is not finite")
            if loss_limit is None:
                loss_limit = DIVERGENCE_FACTOR * max(1.0, losses[3])
            elif losses[3] > loss_limit:
                raise ValidationError(
                    f"training diverged at epoch {epoch}, step {step}: l_total "
                    f"{losses[3]:.3g} exceeds {DIVERGENCE_FACTOR:g} x max(1, first "
                    f"step's l_total) = {loss_limit:.3g}")
            l_total.backward()
            adam_step(model.params, adam, lr)
            sums += len(idx) * losses

        val_acc = evaluate_macro_accuracy(model, val_data)
        means = sums / n
        log.records.append(EpochRecord(
            epoch=epoch, l_task=means[0], l_domain=means[1], l_mi=means[2],
            l_total=means[3], lr=lr, val_macro_acc=val_acc))

        if val_acc > best_acc:
            best_acc = val_acc
            best_snap = _snapshot(model)
            log.best_epoch = epoch

        lr = scheduler_update(log.val_accuracies, lr, cfg)
        if early_stop_check(log.val_accuracies, cfg):
            log.stop_reason = "early_stop"
            break
    else:
        log.stop_reason = "max_epochs"

    _restore(model, best_snap)
    return model, log


def make_lambda_grid(n: int) -> list[float]:
    """n uniformly spaced values from LAMBDA_MIN to LAMBDA_MAX inclusive."""
    if n < 2:
        raise ValidationError(f"grid needs at least 2 points, got {n}")
    return [float(v) for v in np.linspace(LAMBDA_MIN, LAMBDA_MAX, n)]


# (train_data, val_data) of the grid search a pool worker runs cells for,
# set once by its initializer
_grid_data = None


def _openblas_fns(name: str) -> list:
    """The OpenBLAS function `name` ("set_num_threads", "get_num_threads")
    of each OpenBLAS library loaded in this process; empty where none is."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    fns = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                setter = name.startswith("set")
                fn.argtypes = [ctypes.c_int] if setter else []
                fn.restype = None if setter else ctypes.c_int
                fns.append(fn)
                break
    return fns


def _init_grid_worker(train_data, val_data) -> None:
    """Pool initializer: keep the epochs for every cell the worker runs, and
    give its BLAS one thread, so jobs workers keep to jobs CPUs."""
    global _grid_data
    _grid_data = (train_data, val_data)
    for set_threads in _openblas_fns("set_num_threads"):
        set_threads(1)


def _grid_cell(task):
    """A pool worker's cell task, on the epochs its initializer kept."""
    i, j, lam_mi, lam_grl, enc_cfg, cell_cfg, num_domains, model_seed = task
    model = SafModel(enc_cfg, num_domains=num_domains, seed=model_seed)
    _, log = fit(*_grid_data, model, cell_cfg,
                 LossWeights(lambda_mi=lam_mi, lambda_grl=lam_grl))
    return i, j, max(log.val_accuracies)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def grid_search(train_data, val_data, enc_cfg: EncoderConfig, cfg: TrainConfig,
                n_mi: int, n_grl: int, budget_epochs: int, jobs: int = 1):
    """Train one model per (lambda_mi, lambda_grl) grid cell under a reduced
    epoch budget and pick the cell with the best validation macro-accuracy;
    ties prefer smaller lambda_grl, then smaller lambda_mi.

    Returns (best LossWeights, rows of (lambda_mi, lambda_grl, val_macro_acc)
    ordered by (lambda_mi, lambda_grl)). Each cell is seeded from
    (cfg.seed, i, j), so the rows are the same for every jobs >= 1. The
    cells run on min(jobs, cells, usable CPUs) worker processes, one at
    jobs = 1; each worker gets the epochs once, when it starts, and runs its
    BLAS on one thread, and a cell task carries only the cell's lambdas,
    configs and seeds.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if budget_epochs < 1:
        raise ValidationError(f"budget_epochs must be >= 1, got {budget_epochs}")
    grid_mi = make_lambda_grid(n=n_mi)
    grid_grl = make_lambda_grid(n=n_grl)
    num_domains = len({ep.s for ep in train_data})

    tasks = []
    for i, lam_mi in enumerate(grid_mi):
        for j, lam_grl in enumerate(grid_grl):
            state = np.random.SeedSequence([cfg.seed, i, j]).generate_state(2)
            cell_cfg = replace(cfg, max_epochs=budget_epochs,
                               min_epochs=min(cfg.min_epochs, budget_epochs),
                               seed=int(state[0]))
            tasks.append((i, j, lam_mi, lam_grl, enc_cfg, cell_cfg,
                          num_domains, int(state[1])))

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), _usable_cpus()),
                             initializer=_init_grid_worker,
                             initargs=(train_data, val_data)) as pool:
        results = list(pool.map(_grid_cell, tasks))

    acc = {(i, j): v for i, j, v in results}
    rows = [(lam_mi, lam_grl, acc[(i, j)])
            for i, lam_mi in enumerate(grid_mi)
            for j, lam_grl in enumerate(grid_grl)]

    lam_mi, lam_grl, _ = max(rows, key=lambda r: (r[2], -r[1], -r[0]))
    return LossWeights(lambda_mi=lam_mi, lambda_grl=lam_grl), rows


def write_grid_table(rows, path: str) -> None:
    write_csv(path, GRID_TABLE_HEADER, rows)
