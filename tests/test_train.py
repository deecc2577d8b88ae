"""``train.fit``, the step loop of ``hlvc train``, from the library."""

import numpy as np
import pytest

from hlvc import baseline, binn, optim
from hlvc.data import SynthConfig, read_shard, synth_generate, write_shard
from hlvc.features import apply_normalizer, fit_znorm
from hlvc.train import fit

# 100 records in batches of 32: four steps per epoch, the last of 4 rows.
BATCH = 32
STEPS_PER_EPOCH = 4
ITERS = 11

FAMILIES = {"binn": binn, "logreg": baseline}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The vocabulary, float32 znorm features and per-layer ``CsrLabels`` of
    a 100-record synthetic shard."""
    hier, train, _ = synth_generate(SynthConfig(num_verticals=4, num_entities=12, dim=8,
                                                num_train=100, num_val=0))
    path = tmp_path_factory.mktemp("fit") / "train.shard"
    write_shard(path, train)
    shard = read_shard(path)
    x = shard.features()
    x[...] = apply_normalizer(fit_znorm(x), x)
    return hier, x, shard.labels


def run(family, params, x, labels, sizes, stops):
    """``params`` and its Adam state trained by one ``fit`` call per entry
    of ``stops``, each running to that step; returns the state and every
    line logged, each with the state's step when it was logged."""
    adam = optim.init_adam(params.tensors(), 0.01, weight_decay=1e-4, decay_factor=0.5,
                           decay_every=3)
    lines = []
    for iters in stops:
        fit(family, params, adam, x, labels, sizes, batch_size=BATCH, seed=7, iters=iters,
            log_every=2, log=lambda line: lines.append((line, adam.step)))
    return adam, lines


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("stop", [1, STEPS_PER_EPOCH - 1, STEPS_PER_EPOCH, 6, ITERS - 1])
def test_stopped_and_continued_run_equals_the_straight_run(data, family, stop):
    """Stopping inside an epoch (at 3, the short last batch still to run)
    and continuing on the same parameters and Adam state changes no bit."""
    hier, x, labels = data
    module = FAMILIES[family]
    straight = module.init(hier, x.shape[1], seed=0)
    want_adam, want_lines = run(module, straight, x, labels, hier.sizes, [ITERS])
    resumed = module.init(hier, x.shape[1], seed=0)
    adam, lines = run(module, resumed, x, labels, hier.sizes, [stop, ITERS])
    assert adam.step == want_adam.step == ITERS
    assert lines == want_lines
    for name, want in straight.tensors().items():
        assert resumed.tensors()[name].tobytes() == want.tobytes()
        assert adam.m[name].tobytes() == want_adam.m[name].tobytes()
        assert adam.v[name].tobytes() == want_adam.v[name].tobytes()


def test_logs_each_step_before_its_update(data):
    hier, x, labels = data
    _, lines = run(binn, binn.init(hier, x.shape[1], seed=0), x, labels, hier.sizes, [ITERS])
    assert [line.split()[0] for line, _ in lines] == [f"step={s}" for s in range(0, ITERS, 2)]
    assert all(line.startswith(f"step={step} ") for line, step in lines)


def test_a_finished_run_takes_no_step(data):
    hier, x, labels = data
    params = binn.init(hier, x.shape[1], seed=0)
    adam, _ = run(binn, params, x, labels, hier.sizes, [ITERS])
    before = {name: t.copy() for name, t in params.tensors().items()}
    lines = []
    fit(binn, params, adam, x, labels, hier.sizes, batch_size=BATCH, seed=7, iters=ITERS,
        log_every=1, log=lines.append)
    assert adam.step == ITERS and lines == []
    for name, t in params.tensors().items():
        np.testing.assert_array_equal(t, before[name])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_float64_model_trains(data, family):
    """A float64 model, as in README's example, trains on float64 features
    (the targets stay float32 and are cast per step) and keeps its dtype."""
    hier, x, labels = data
    x64 = x.astype(np.float64)
    if family == "binn":
        params = binn.init_params(hier.sizes, x.shape[1], seed=0)
    else:
        params = baseline.init_params(hier.sizes[-1], x.shape[1])
    adam, lines = run(FAMILIES[family], params, x64, labels, hier.sizes, [40])
    assert adam.step == 40
    assert {t.dtype for t in params.tensors().values()} == {np.dtype(np.float64)}
    losses = [float(line.split()[1].removeprefix("loss=")) for line, _ in lines]
    assert losses[-1] < losses[0]
