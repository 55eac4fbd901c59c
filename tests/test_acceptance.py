"""Acceptance suite: one test per shipped claim, each printing a summary
line (visible with ``pytest -s`` or on failure). Time-bounded checks
measure wall time and fail when the budget is exceeded.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np

import cylseg
from cylseg.cli import _scan_loaders, main
from cylseg.config import load_config
from cylseg.metrics import ConfusionMatrix, compute_miou
from cylseg.network import (
    DDCM,
    Affine,
    BatchNorm,
    Conv,
    DownBlock,
    RefineMLP,
    RulebookCache,
    SegmentationNetwork,
    UpBlock,
    make_res_block,
)
from cylseg.partition import (
    DEFAULT_CUBIC_GRID,
    DEFAULT_CYL_GRID,
    CylGridSpec,
    assign_cells,
    encode_cell_labels,
    encoding_upper_bound_miou,
    occupancy_by_distance,
    scatter_features,
    scatter_max_winners,
)
from cylseg.pointcloud import PointCloud, SyntheticSceneSpec, generate_synthetic_scene
from cylseg.selftest import (
    NETWORK_KERNELS,
    _network_loss,
    _toy_setup,
    conv_oracle_error,
    lovasz_brute_force,
    random_sparse,
)
from cylseg.sparse import (
    KernelSpec,
    SparseTensor,
    batch_norm_backward,
    batch_norm_forward,
    build_rulebook,
    inverse_conv_backward,
    inverse_conv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
    sigmoid_backward,
    sigmoid_forward,
    sparse_conv_backward,
    sparse_conv_forward,
)
from cylseg.training import (
    directional_grad_check,
    finite_diff_check,
    lovasz_softmax,
    softmax,
    train_network,
    weighted_cross_entropy,
)
from helpers import cell_points, conv_weight_count


def _report(tag, ok, detail=""):
    line = f"[acceptance] {tag}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# 1. sparse convolution equals the dense oracle on random instances


def test_01_sparse_conv_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    instances = 0
    worst = 0.0
    for kernel in NETWORK_KERNELS:
        for _ in range(64):
            x = random_sparse(rng, max_shape=(16, 16, 16), max_channels=8)
            c_out = int(rng.integers(1, 9))
            params = Conv(kernel, x.features.shape[1], c_out, rng)
            worst = max(worst, conv_oracle_error(x, kernel, params))
            instances += 1
    elapsed = time.perf_counter() - start
    ok = instances >= 500 and worst < 1e-10 and elapsed < 60.0
    assert _report(
        "conv vs dense oracle",
        ok,
        f"{instances} instances, worst abs err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. finite-difference gradient suite: isolated ops then the whole network


def _fd_conv(rng, kernel):
    x = random_sparse(rng, max_shape=(6, 6, 6), max_channels=3, max_sites=14)
    c_in = x.features.shape[1]
    params = Conv(kernel, c_in, 2, rng)
    rb = build_rulebook(x, kernel)
    probe = rng.standard_normal((len(rb.out_coords), 2))

    def objective():
        return float((sparse_conv_forward(x, params, rb).features * probe).sum())

    gin, gw, gb = sparse_conv_backward(x, params, rb, probe)
    return finite_diff_check(
        objective,
        {"x": x.features, "w": params.weights, "b": params.bias},
        {"x": gin, "w": gw, "b": gb},
    )


def _fd_inverse_conv(rng):
    x = random_sparse(rng, max_shape=(8, 8, 8), max_channels=3, max_sites=16)
    kernel = KernelSpec((3, 3, 3), (2, 2, 2), "strided")
    rb = build_rulebook(x, kernel)
    u = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 3)), rb.out_shape)
    params = Conv(kernel, 3, 2, rng)
    probe = rng.standard_normal((len(rb.in_coords), 2))

    def objective():
        return float((inverse_conv_forward(u, params, rb).features * probe).sum())

    gin, gw, gb = inverse_conv_backward(u, params, rb, probe)
    return finite_diff_check(
        objective,
        {"x": u.features, "w": params.weights, "b": params.bias},
        {"x": gin, "w": gw, "b": gb},
    )


def _fd_batch_norm(rng):
    feats = rng.standard_normal((15, 3))
    norm = BatchNorm(3)
    norm.scale[:] = rng.uniform(0.5, 1.5, 3)
    norm.shift[:] = rng.standard_normal(3)
    probe = rng.standard_normal((15, 3))
    running = (norm.running_mean.copy(), norm.running_var.copy())

    def objective():
        norm.running_mean[:], norm.running_var[:] = running
        return float((batch_norm_forward(feats, norm, training=True)[0] * probe).sum())

    _, ctx = batch_norm_forward(feats, norm, training=True)
    norm.running_mean[:], norm.running_var[:] = running
    gin, gs, gb = batch_norm_backward(probe, ctx)
    return finite_diff_check(
        objective,
        {"x": feats, "scale": norm.scale, "shift": norm.shift},
        {"x": gin, "scale": gs, "shift": gb},
    )


def _fd_pointwise(rng):
    feats = rng.standard_normal((10, 4)) + 0.05  # keep clear of the relu kink
    probe = rng.standard_normal((10, 4))
    worst = 0.0

    def leaky_obj():
        return float((leaky_relu_forward(feats, 0.1)[0] * probe).sum())

    _, ctx = leaky_relu_forward(feats, 0.1)
    worst = max(worst, finite_diff_check(leaky_obj, {"x": feats}, {"x": leaky_relu_backward(probe, ctx)}))

    def sigmoid_obj():
        return float((sigmoid_forward(feats)[0] * probe).sum())

    _, ctx = sigmoid_forward(feats)
    worst = max(worst, finite_diff_check(sigmoid_obj, {"x": feats}, {"x": sigmoid_backward(probe, ctx)}))
    return worst


def _fd_module(module, x, rng, samples=30):
    """FD over a sparse block's parameters and its input features."""
    cache = RulebookCache()
    probe = None

    def run():
        y, ctx = module.forward(x, cache, training=True)
        return y, ctx

    y, _ = run()
    probe = rng.standard_normal(y.features.shape)

    def objective():
        return float((run()[0].features * probe).sum())

    y, ctx = run()
    module.zero_grads()
    g_in = module.backward(probe, ctx)
    arrays = dict(module.named_params())
    analytic = dict(module.named_grads())
    arrays["input"] = x.features
    analytic["input"] = g_in
    return finite_diff_check(objective, arrays, analytic, rng=rng, samples=samples)


def _fd_affine_stack(rng):
    worst = 0.0
    aff = Affine(4, 3, rng)
    feats = rng.standard_normal((6, 4))
    probe = rng.standard_normal((6, 3))

    def objective():
        return float((aff.forward(feats, training=True)[0] * probe).sum())

    _, ctx = aff.forward(feats, training=True)
    aff.zero_grads()
    g_in = aff.backward(probe, ctx)
    arrays = dict(aff.named_params())
    analytic = dict(aff.named_grads())
    arrays["input"] = feats
    analytic["input"] = g_in
    worst = max(worst, finite_diff_check(objective, arrays, analytic))

    refine = RefineMLP(7, 6, 3, rng, slope=0.1)
    feats2 = rng.standard_normal((5, 7))
    probe2 = rng.standard_normal((5, 3))

    def objective2():
        return float((refine.forward(feats2, training=True)[0] * probe2).sum())

    _, ctx2 = refine.forward(feats2, training=True)
    refine.zero_grads()
    g_in2 = refine.backward(probe2, ctx2)
    arrays2 = dict(refine.named_params())
    analytic2 = dict(refine.named_grads())
    arrays2["input"] = feats2
    analytic2["input"] = g_in2
    worst = max(worst, finite_diff_check(objective2, arrays2, analytic2))
    return worst


def _fd_scatter_max(rng):
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(3, 3, 2))
    xyz = rng.uniform(-5, 5, size=(40, 3))
    cloud = PointCloud(xyz, rng.uniform(size=40))
    mapping = assign_cells(cloud, grid)
    feats = rng.standard_normal((40, 3))
    probe = rng.standard_normal((mapping.num_cells, 3))

    def objective():
        return float((scatter_features(feats, mapping).features * probe).sum())

    winners = scatter_max_winners(feats, mapping, scatter_features(feats, mapping).features)
    g = np.zeros_like(feats)
    for c in range(3):
        np.add.at(g[:, c], winners[:, c], probe[:, c])
    return finite_diff_check(objective, {"feats": feats}, {"feats": g})


def _fd_losses(rng):
    worst = 0.0
    logits = rng.standard_normal((8, 3))
    targets = rng.integers(0, 3, size=8)
    weights = rng.uniform(0.5, 2.0, size=3)

    def ce_obj():
        return weighted_cross_entropy(logits, targets, weights)[0]

    _, g = weighted_cross_entropy(logits, targets, weights)
    worst = max(worst, finite_diff_check(ce_obj, {"logits": logits}, {"logits": g}))

    def lovasz_obj():
        return lovasz_softmax(softmax(logits), targets)[0]

    probs = softmax(logits)
    _, gp = lovasz_softmax(probs, targets)
    gl = probs * (gp - (gp * probs).sum(axis=1, keepdims=True))
    worst = max(worst, finite_diff_check(lovasz_obj, {"logits": logits}, {"logits": gl}))
    return worst


def test_02_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_isolated = 0.0

    for kernel in (KernelSpec((3, 1, 3)), KernelSpec((1, 3, 3)), KernelSpec((3, 3, 3), (2, 2, 2), "strided")):
        worst_isolated = max(worst_isolated, _fd_conv(rng, kernel))
    worst_isolated = max(worst_isolated, _fd_inverse_conv(rng))
    worst_isolated = max(worst_isolated, _fd_batch_norm(rng))
    worst_isolated = max(worst_isolated, _fd_pointwise(rng))
    worst_isolated = max(worst_isolated, _fd_affine_stack(rng))
    worst_isolated = max(worst_isolated, _fd_scatter_max(rng))
    worst_isolated = max(worst_isolated, _fd_losses(rng))

    for variant in ("regular", "asym1d", "asym"):
        x = random_sparse(rng, max_shape=(7, 7, 7), max_channels=3, max_sites=18)
        block = make_res_block(variant, x.features.shape[1], 3, rng, 0.1)
        worst_isolated = max(worst_isolated, _fd_module(block, x, rng))

    x = random_sparse(rng, max_shape=(6, 6, 6), max_channels=3, max_sites=14)
    worst_isolated = max(worst_isolated, _fd_module(DDCM(x.features.shape[1], rng), x, rng))

    # whole network: directional derivative against the chained backward
    network, cloud = _toy_setup(seed=1)
    result, _, report = _network_loss(network, cloud)
    network.zero_grads()
    network.backward(result, report.grad_voxel_logits, report.grad_point_logits)
    grads = {k: v.copy() for k, v in network.named_grads().items()}
    err_e2e = directional_grad_check(
        lambda: _network_loss(network, cloud)[2].total,
        network.named_params(),
        grads,
        np.random.default_rng(2),
    )

    elapsed = time.perf_counter() - start
    ok = worst_isolated < 1e-6 and err_e2e < 1e-4 and elapsed < 300.0
    assert _report(
        "gradient suite",
        ok,
        f"isolated {worst_isolated:.2e}, end-to-end {err_e2e:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Jaccard-loss surrogate equals its brute-force extension


def test_03_lovasz_brute_force_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    for k in (2, 3):
        for m in range(1, 7):
            for targets in itertools.product(range(k), repeat=m):
                t = np.array(targets)
                for _ in range(2):
                    probs = softmax(rng.standard_normal((m, k)) * 2)
                    value, _ = lovasz_softmax(probs, t)
                    worst = max(worst, abs(value - lovasz_brute_force(probs, t)))
                    checked += 1
                perfect, _ = lovasz_softmax(np.eye(k)[t], t)
                if perfect != 0.0:
                    assert _report("lovasz matches brute force", False, "perfect != 0")
    ok = worst < 1e-10
    assert _report(
        "lovasz matches brute force", ok, f"{checked} instances, worst {worst:.2e}, perfect inputs cost 0"
    )


# ---------------------------------------------------------------------------
# 4. far-field occupancy: cylindrical vs cubic partition on 1/rho scenes


def test_04_far_field_occupancy():
    clouds = [
        generate_synthetic_scene(SyntheticSceneSpec(seed=i, num_points=524_288))
        for i in range(20)
    ]
    rows = occupancy_by_distance(clouds)
    by_bin = {}
    for r in rows:
        by_bin.setdefault((r.distance_lo, r.distance_hi), {})[r.scheme] = r.nonempty_proportion
    far = sorted(b for b in by_bin if b[0] >= 20.0)
    assert far, "no distance bins beyond 20 m"
    geq = all(by_bin[b]["cylindrical"] >= by_bin[b]["cubic"] for b in far)
    strict = sum(by_bin[b]["cylindrical"] > by_bin[b]["cubic"] for b in far)
    ratios = ", ".join(
        f"[{b[0]:.0f},{b[1]:.0f}) {by_bin[b]['cylindrical'] / by_bin[b]['cubic']:.2f}x" for b in far
    )
    ok = geq and strict >= len(far) / 2
    assert _report(
        "far-field occupancy ordering", ok, f"{strict}/{len(far)} bins strictly greater; {ratios}"
    )


# ---------------------------------------------------------------------------
# 5. label-encoding upper bounds


def _has_mixed_cell(cloud, grid, ignore_id=255):
    mapping = assign_cells(cloud, grid)
    for members in cell_points(mapping):
        labels = cloud.labels[members]
        labels = labels[labels != ignore_id]
        if len(np.unique(labels)) > 1:
            return True
    return False


def test_05_encoding_bounds():
    grid = CylGridSpec(rho_range=(0.0, 50.0), z_range=(-1.0, 6.0), resolution=(16, 16, 4))
    clouds = []
    for seed in range(100, 106):
        clouds.append(generate_synthetic_scene(SyntheticSceneSpec(seed=seed, num_points=4096)))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(-40, 40, size=(2000, 3))
        clouds.append(PointCloud(xyz, rng.uniform(size=2000), rng.integers(0, 3, size=2000)))

    checked_mixed = 0
    for cloud in clouds:
        maj = encoding_upper_bound_miou(cloud, grid, "majority", 3, 255)
        mino = encoding_upper_bound_miou(cloud, grid, "minority", 3, 255)
        mixed = _has_mixed_cell(cloud, grid)
        if not maj >= mino:
            assert _report("encoding bounds", False, f"majority {maj} < minority {mino}")
        if mixed:
            checked_mixed += 1
            if not (maj < 1.0 and mino < 1.0):
                assert _report("encoding bounds", False, "mixed cell but bound = 1")
        elif not (maj == 1.0 and mino == 1.0):
            assert _report("encoding bounds", False, "pure cloud but bound < 1")

    # constructed pure cloud: one point per cell
    xyz = np.array([[2.0, 0.0, 0.0], [12.0, 0.0, 1.0], [25.0, 0.0, 2.0]])
    pure = PointCloud(xyz, np.zeros(3), np.array([0, 1, 2]))
    pure_ok = (
        encoding_upper_bound_miou(pure, grid, "majority", 3, 255) == 1.0
        and encoding_upper_bound_miou(pure, grid, "minority", 3, 255) == 1.0
        and not _has_mixed_cell(pure, grid)
    )

    # constructed mixed cloud: two classes forced into one cell
    mixed_cloud = PointCloud(
        np.array([[2.0, 0.0, 0.0], [2.0, 0.01, 0.0]]), np.zeros(2), np.array([0, 1])
    )
    maj = encoding_upper_bound_miou(mixed_cloud, grid, "majority", 2, 255)
    mino = encoding_upper_bound_miou(mixed_cloud, grid, "minority", 2, 255)
    mixed_ok = maj < 1.0 and mino < 1.0 and maj >= mino

    ok = pure_ok and mixed_ok and checked_mixed > 0
    assert _report(
        "encoding bound ordering",
        ok,
        f"{len(clouds)} family clouds ({checked_mixed} with mixed cells), pure cloud = 1.0",
    )


# ---------------------------------------------------------------------------
# 6. asymmetric blocks carry exactly two thirds of the regular conv weights


def test_06_parameter_count_ratio():
    results = []
    for c in (4, 8, 16):
        asym = conv_weight_count(make_res_block("asym", c, c, np.random.default_rng(0), 0.1))
        regular = conv_weight_count(make_res_block("regular", c, c, np.random.default_rng(0), 0.1))
        results.append((c, asym, regular))
    ok = all(
        asym * 3 == regular * 2 and asym == 36 * c * c and regular == 54 * c * c
        for c, asym, regular in results
    )
    detail = "; ".join(f"width {c}: {a} vs {r}" for c, a, r in results)
    assert _report("asym weights are 2/3 of regular", ok, detail)


# ---------------------------------------------------------------------------
# 7. desk-scale training reaches useful accuracy, and always learns


def test_07_toy_training():
    cfg = load_config("configs/toy_train.cfg")
    train_clouds = [load() for _, load in _scan_loaders(cfg, "train")]
    val_clouds = [load() for _, load in _scan_loaders(cfg, "val")]
    iterations = len(train_clouds) * cfg.train.epochs
    assert iterations == 200, f"shipped schedule is {iterations} optimizer steps, expected 200"

    start = time.perf_counter()
    net = SegmentationNetwork(cfg.network, seed=cfg.train.seed)
    stats = train_network(
        net,
        train_clouds,
        val_clouds,
        epochs=cfg.train.epochs,
        lr=cfg.train.lr,
        seed=cfg.train.seed,
    )
    elapsed = time.perf_counter() - start
    miou = stats[-1].val_miou
    decreasing = {cfg.train.seed: (stats[0].total, stats[-1].total)}

    for seed in (1, 2):
        net_s = SegmentationNetwork(cfg.network, seed=seed)
        stats_s = train_network(
            net_s, train_clouds, epochs=cfg.train.epochs, lr=cfg.train.lr, seed=seed
        )
        decreasing[seed] = (stats_s[0].total, stats_s[-1].total)

    all_learn = all(final < first for first, final in decreasing.values())
    ok = miou >= 0.90 and elapsed < 600.0 and all_learn
    losses = ", ".join(f"seed {s}: {a:.2f}->{b:.2f}" for s, (a, b) in sorted(decreasing.items()))
    assert _report(
        "toy training",
        ok,
        f"val mIoU {miou:.4f} in {elapsed:.0f}s over {iterations} steps; {losses}",
    )


# ---------------------------------------------------------------------------
# 8. bitwise reproducibility of the command-line pipeline

_SMALL_CFG = """\
[grid]
rho_min = 0
rho_max = 12
z_min = -1
z_max = 6
radius_bins = 16
azimuth_bins = 16
height_bins = 4

[network]
num_classes = 3
base_channels = 4
stages = 2
block_variant = asym
point_mlp_widths = 8

[data]
kind = synthetic
train_scenes = 2
val_scenes = 2
points = 512
seed = 0
max_range = 12

[train]
epochs = 2
lr = 1e-3
seed = 0
"""


def test_08_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_SMALL_CFG)

    artifacts = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"net_{run}.ckpt"
        metrics = tmp_path / f"metrics_{run}.csv"
        preds = tmp_path / f"preds_{run}"
        preds.mkdir()
        assert main(["train", "--config", str(cfg), "--output", str(ckpt), "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        eval_out = capsys.readouterr().out
        assert main(["infer", "--config", str(cfg), "--checkpoint", str(ckpt), "--output", str(preds)]) == 0
        capsys.readouterr()
        label_bytes = {p.name: p.read_bytes() for p in sorted(preds.glob("*.label"))}
        artifacts.append(
            (ckpt.read_bytes(), metrics.read_bytes(), eval_out, label_bytes)
        )

    same_ckpt = artifacts[0][0] == artifacts[1][0]
    same_metrics = artifacts[0][1] == artifacts[1][1]
    same_eval = artifacts[0][2] == artifacts[1][2]
    same_preds = artifacts[0][3] == artifacts[1][3] and artifacts[0][3]
    ok = same_ckpt and same_metrics and same_eval and bool(same_preds)
    assert _report(
        "train/eval/infer determinism",
        ok,
        f"checkpoint {same_ckpt}, metrics {same_metrics}, eval {same_eval}, "
        f"{len(artifacts[0][3])} prediction files identical",
    )


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cli_in_fresh_process(args, blas_threads):
    """Run the CLI in a fresh process with ``OPENBLAS_NUM_THREADS`` set to
    ``blas_threads``, and every BLAS thread variable unset when it is None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cylseg.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    env["PYTHONPATH"] = path
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    code = "import sys; from cylseg.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                   check=True, capture_output=True, timeout=600)


def test_08_cli_determinism_at_each_blas_thread_count(tmp_path):
    # bytes are promised at a fixed OPENBLAS_NUM_THREADS only: the thread
    # count can change the order of GEMM sums. OpenBLAS reads it when it
    # loads, so each run is a fresh process.
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_SMALL_CFG)
    runs = {}
    for threads in (1, 2):
        for run in ("a", "b"):
            out = tmp_path / f"threads{threads}_{run}"
            (out / "preds").mkdir(parents=True)
            _cli_in_fresh_process(["train", "--config", cfg, "--output", out / "net.ckpt",
                                   "--metrics", out / "metrics.csv"], threads)
            _cli_in_fresh_process(["infer", "--config", cfg, "--checkpoint", out / "net.ckpt",
                                   "--output", out / "preds"], threads)
            labels = {p.name: p.read_bytes() for p in sorted((out / "preds").glob("*.label"))}
            assert labels
            runs[threads, run] = ((out / "net.ckpt").read_bytes(),
                                  (out / "metrics.csv").read_bytes(), labels)
    same = {t: [a == b for a, b in zip(runs[t, "a"], runs[t, "b"])] for t in (1, 2)}
    across = runs[1, "a"][0] == runs[2, "a"][0]
    assert _report(
        "train/infer determinism per BLAS thread count",
        all(all(v) for v in same.values()),
        "; ".join(f"{t} thread(s): checkpoint, metrics, labels identical {v}"
                  for t, v in same.items())
        + f"; checkpoint identical across counts {across} (not promised)",
    )


_ONE_SCENE_TOY_CFG = """\
[grid]
rho_min = 0
rho_max = 20
z_min = -1
z_max = 6
radius_bins = 64
azimuth_bins = 64
height_bins = 8

[network]
num_classes = 3
base_channels = 8
stages = 2
block_variant = asym
point_mlp_widths = 64

[data]
kind = synthetic
train_scenes = 1
val_scenes = 1
points = 8192
seed = 0
max_range = 20

[train]
epochs = 1
lr = 1e-3
seed = 0
"""


def test_08_train_with_no_blas_setting_writes_the_one_thread_checkpoint(tmp_path):
    # cylseg sets each BLAS thread variable left unset to 1 before numpy
    # loads; on a machine of two or more CPUs OpenBLAS would otherwise run
    # one thread per CPU, and this network's checkpoint bytes differ then
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(_ONE_SCENE_TOY_CFG)
    ckpts = {}
    for threads in (None, 1):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        _cli_in_fresh_process(["train", "--config", cfg, "--output", out / "net.ckpt",
                               "--metrics", out / "metrics.csv"], threads)
        ckpts[threads] = (out / "net.ckpt").read_bytes()
    assert _report(
        "train with no BLAS setting",
        ckpts[None] == ckpts[1],
        "checkpoint identical to OPENBLAS_NUM_THREADS=1",
    )


# ---------------------------------------------------------------------------
# 9. full-scale machinery present; benchmark-scale accuracy out of scope


def test_09_full_scale_machinery():
    grid_ok = (
        DEFAULT_CYL_GRID.resolution == (480, 360, 32)
        and DEFAULT_CYL_GRID.rho_range == (0.0, 50.0)
        and DEFAULT_CYL_GRID.z_range == (-4.0, 2.0)
        and DEFAULT_CUBIC_GRID.num_cells == DEFAULT_CYL_GRID.num_cells
    )

    cfg = load_config("configs/semantic_kitti.cfg")
    lm = cfg.label_map
    map_ok = (
        cfg.network.num_classes == 19
        and cfg.grid.resolution == (480, 360, 32)
        and lm is not None
        and lm.remap(np.array([10, 40, 81, 0, 252])).tolist() == [0, 8, 18, 255, 0]
        and lm.to_raw(np.array([0])).tolist() == [10]
    )

    # the 19-class network at default widths must run end to end on CPU
    net = SegmentationNetwork(cfg.network, seed=0)
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=0, num_points=200))
    result = net.forward(cloud)
    pred = net.predict(cloud)
    cm = ConfusionMatrix(19, ignore_id=255)
    cm.update(np.zeros(200, dtype=np.int64), pred)
    _, miou = compute_miou(cm)
    run_ok = (
        result.point_logits.shape == (200, 19)
        and pred.shape == (200,)
        and (math.isnan(miou) or 0.0 <= miou <= 1.0)
    )

    params = sum(a.size for a in net.named_params().values())
    ok = grid_ok and map_ok and run_ok
    assert _report(
        "full-scale machinery",
        ok,
        f"480x360x32 grid, 19-class mapping, {params/1e6:.1f}M-parameter forward; "
        "benchmark-scale accuracy is intentionally not validated at desk scale",
    )
