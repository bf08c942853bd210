"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The two desk-scale reproduction criteria share a single full pipeline run
(module-scoped fixture) on the standard synthetic corpus.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from signweave.duration import (
    DurationModelConfig,
    DurationPrediction,
    DurationTrainConfig,
    GlossDurationPredictor,
    duration_loss,
    integer_plan,
    pair_features,
    pinball_loss,
)
from signweave.glossnorm import (
    KIND_FINGERSPELL,
    KIND_LEXICAL,
    KIND_LOAN,
    KIND_NAME,
    KIND_POINTER,
    KIND_POSSESSIVE,
    KIND_REFLEXIVE,
    collapse_fingerspell,
    normalize,
    tokenize,
)
from signweave.inpaint import (
    Denoiser,
    DenoiserConfig,
    DiffusionSchedule,
    InpaintTrainConfig,
    LossConfig,
    PairItem,
    ddim_refine,
    make_boundary_mask,
    sample_step_loss,
)
from signweave.metrics import (
    dtw_align,
    fgd,
    frame_cost_matrix,
    procrustes,
    ranking_metrics,
)
from signweave.neuralkit import ParameterSet, Tensor, dense, gelu, layer_norm, rope_apply, scaled_dot_attention, softmax, tensor
from signweave.neuralkit.gradcheck import check_directional, check_gradients
from signweave.objectives import BoundaryTargets, boundary_loss, ctc_loss, fm_loss
from signweave.pipeline import PipelineConfig, run_pipeline
from signweave.retrieval import Corpus, Document, TrigramSparseScorer, bm25_score, retrieve
from signweave.stitch import assemble_sentence, cosine_fuse
from signweave.duration import GlossPlan


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle


def test_acceptance_01_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(0)

    def leaf(shape, name):
        t = Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)
        t.name = name
        return t

    # every kernel, coordinate-wise central differences
    x, w, b = leaf((3, 4), "x"), leaf((4, 5), "w"), leaf((5,), "b")
    check_gradients(lambda: (dense(x, w, b) ** 2).sum(), [x, w, b], h=1e-5, tol=1e-4)
    g = leaf((6,), "g")
    check_gradients(lambda: gelu(g).sum(), [g], h=1e-5, tol=1e-4)
    ln_x, gamma, beta = leaf((3, 6), "ln_x"), leaf((6,), "gamma"), leaf((6,), "beta")
    check_gradients(lambda: (layer_norm(ln_x, gamma, beta) ** 3).sum(), [ln_x, gamma, beta], h=1e-5, tol=1e-4)
    sm = leaf((4, 5), "sm")
    check_gradients(lambda: ((softmax(sm) - 0.3) ** 2).sum(), [sm], h=1e-5, tol=1e-4)
    q, k, v = leaf((2, 4, 6), "q"), leaf((2, 5, 6), "k"), leaf((2, 5, 6), "v")
    check_gradients(lambda: (scaled_dot_attention(q, k, v) ** 2).sum(), [q, k, v], h=1e-5, tol=1e-4)
    qc, kc, vc = leaf((4, 6), "qc"), leaf((4, 6), "kc"), leaf((4, 6), "vc")
    check_gradients(lambda: (scaled_dot_attention(qc, kc, vc, causal=True) ** 2).sum(),
                    [qc, kc, vc], h=1e-5, tol=1e-4)
    r = leaf((5, 8), "r")
    check_gradients(lambda: (rope_apply(r, np.arange(5)) ** 2).sum(), [r], h=1e-5, tol=1e-4)

    # composed boundary-inpainting objective through a small denoiser
    cfg = DenoiserConfig(latent=8, layers=1, heads=2, ffn=16, hand_head_depth=2, dtype=np.float64)
    denoiser = Denoiser(cfg, seed=1)
    x_tilde = rng.normal(size=(9, 206)) * 0.5
    x0 = x_tilde + rng.normal(size=x_tilde.shape) * 0.1
    item = PairItem(x_tilde, x0, boundary_index=4)
    schedule = DiffusionSchedule()
    noise = rng.standard_normal(x0.shape)
    weights = LossConfig().part_weights(denoiser.layout)
    check_directional(
        lambda: sample_step_loss(item, denoiser, schedule, LossConfig(), 250, 3, noise, weights),
        denoiser.params, rng, directions=3, h=1e-5, tol=1e-4)

    # composed duration loss through the gloss predictor
    dcfg = DurationModelConfig(motion_dim=5, hidden=8, mlp_layers=2, dtype=np.float64)
    model = GlossDurationPredictor(dcfg, seed=2)
    for name in ("scale_head.weight", "alloc_head.weight"):
        model.params[name].data += rng.normal(size=model.params[name].shape) * 0.05
    feats = pair_features(rng.normal(size=(10, 5)), rng.normal(size=(8, 5)))

    def dur_f():
        scale, alloc = model.forward(feats)
        return duration_loss(scale.reshape(()), alloc, 0.4, np.array([0.3, 0.7]), tau=0.55)

    check_directional(dur_f, model.params, rng, directions=3, h=1e-5, tol=1e-4)

    # flow-matching and boundary losses
    v_pred = {p: leaf((4, 3), f"v_{p}") for p in ("body", "face", "hand")}
    fx0 = {p: rng.normal(size=(4, 3)) for p in v_pred}
    fx1 = {p: rng.normal(size=(4, 3)) for p in v_pred}
    check_gradients(lambda: fm_loss(v_pred, fx0, fx1)[0], list(v_pred.values()), h=1e-5, tol=1e-4)
    z_sent, z_turn = leaf((5,), "z_sent"), leaf((5,), "z_turn")
    targets = BoundaryTargets((rng.random(5) > 0.5).astype(float), (rng.random(5) > 0.5).astype(float),
                              np.array([True, True, True, True, False]))
    check_gradients(lambda: boundary_loss(z_sent, z_turn, targets), [z_sent, z_turn], h=1e-5, tol=1e-4)

    elapsed = time.time() - start
    report(f"criterion 1: gradient oracle (kernels + composed losses, {elapsed:.1f}s < 120s)",
           elapsed < 120.0)


# ---------------------------------------------------------------------------
# criterion 2: DTW oracle


def enumerate_paths(t_a, t_b):
    paths = []

    def walk(i, j, acc):
        if i == t_a - 1 and j == t_b - 1:
            paths.append(list(acc))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < t_a and nj < t_b:
                acc.append((ni, nj))
                walk(ni, nj, acc)
                acc.pop()

    walk(0, 0, [(0, 0)])
    return paths


def test_acceptance_02_dtw_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t_a = int(rng.integers(1, 6))
        t_b = int(rng.integers(1, 6))
        a = rng.normal(size=(t_a, 3, 3))
        b = rng.normal(size=(t_b, 3, 3))
        cost = frame_cost_matrix(a, b)
        best = min(sum(cost[i, j] for i, j in p) for p in enumerate_paths(t_a, t_b))
        _, got = dtw_align(a, b)
        assert got == pytest.approx(best, abs=1e-12)
    report("criterion 2: DTW equals exhaustive-path minimum on 200 cases", True)


# ---------------------------------------------------------------------------
# criterion 3: CTC oracle


def ctc_brute_force(logprobs, target, blank):
    length, n_classes = logprobs.shape
    total = 0.0
    for path in itertools.product(range(n_classes), repeat=length):
        collapsed = []
        prev = None
        for sym in path:
            if sym != prev and sym != blank:
                collapsed.append(sym)
            prev = sym
        if collapsed == list(target):
            total += math.exp(sum(logprobs[t, s] for t, s in enumerate(path)))
    return -math.log(total) if total > 0 else math.inf


def test_acceptance_03_ctc_oracle():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(200):
        v = int(rng.integers(2, 5))
        length = int(rng.integers(1, 7))
        target = list(rng.integers(0, v, size=int(rng.integers(1, 4))))
        logits = rng.normal(size=(length, v + 1))
        logprobs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = ctc_brute_force(logprobs, target, blank=v)
        got = ctc_loss(logprobs, target)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, abs=1e-6)
        checked += 1
    report(f"criterion 3: CTC matches alignment enumeration on {checked} cases", True)


# ---------------------------------------------------------------------------
# criterion 4: Procrustes


def test_acceptance_04_procrustes():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.normal(size=(10, 3))
        q_mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q_mat) < 0:
            q_mat[:, 0] = -q_mat[:, 0]
        s = float(rng.uniform(0.5, 2.0))
        t = rng.normal(size=3)
        q = s * p @ q_mat.T + t
        rot, s_hat, t_hat, fb = procrustes(p, q)
        assert not fb
        residual = np.linalg.norm(s_hat * p @ rot.T + t_hat - q)
        assert residual < 1e-9
    for _ in range(100):
        p = rng.normal(size=(8, 3))
        q = rng.normal(size=(8, 3))
        rot, s_hat, t_hat, _ = procrustes(p, q)
        pa_err = np.linalg.norm(s_hat * p @ rot.T + t_hat - q, axis=-1).mean()
        plain_err = np.linalg.norm(p - q, axis=-1).mean()
        assert pa_err <= plain_err + 1e-12
    report("criterion 4: similarity recovery < 1e-9 and per-frame PA error never above plain", True)


# ---------------------------------------------------------------------------
# criterion 5: diffusion composition


class OracleDenoiser:
    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def predict_x0(self, x_t, t, cond, mask_values):
        return self.target.copy()


def test_acceptance_05_diffusion_composition():
    rng = np.random.default_rng(4)
    x_tilde = rng.normal(size=(30, 12))
    target = rng.normal(size=(30, 12))
    schedule = DiffusionSchedule()
    mask = make_boundary_mask(15, 15, 6)
    m = mask.values[:, None]
    expected = np.where(m > 0.5, target, x_tilde)
    for steps in (1, 10, 50):
        out = ddim_refine(x_tilde, mask, OracleDenoiser(target), schedule, steps=steps,
                          rng=np.random.default_rng(5))
        keep = mask.values < 0.5
        assert np.array_equal(out[keep], x_tilde[keep])  # bitwise context preservation
        assert np.array_equal(out, expected)
    report("criterion 5: DDIM pins context bitwise; oracle composition exact for S in {1,10,50}", True)


# ---------------------------------------------------------------------------
# criterion 6: planning


def test_acceptance_06_planning():
    rng = np.random.default_rng(5)
    for _ in range(10000):
        k = int(rng.integers(1, 9))
        w = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
        s = float(rng.uniform(-3, 3))
        t_src = int(rng.integers(1, 500))
        plan = integer_plan(t_src, DurationPrediction(s, w), min_len=4)
        assert sum(plan.lengths) == plan.total
        assert all(length >= 4 for length in plan.lengths)
    for tau in (0.55, 0.60):
        samples = np.sort(rng.normal(size=201))
        risks = [float(pinball_loss(samples - c, tau).sum()) for c in samples]
        c_star = int(np.argmin(risks))
        expected = math.ceil(tau * len(samples)) - 1
        assert abs(c_star - expected) <= 1
    report("criterion 6: integer plans exact on 10k draws; pinball minimizer at the tau-quantile", True)


# ---------------------------------------------------------------------------
# criterion 7: stitching


def test_acceptance_07_stitching():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        lengths = [int(rng.integers(4, 20)) for _ in range(k)]
        pairs = []
        for _ in range(k - 1):
            t = int(rng.integers(6, 30))
            pairs.append((rng.normal(size=(t, 3)), int(rng.integers(1, t))))
        out = assemble_sentence(pairs, GlossPlan(lengths, sum(lengths)))
        assert out.num_frames == sum(lengths)
    seg = rng.normal(size=(9, 5)).astype(np.float32).astype(np.float64)
    fused = cosine_fuse(seg, seg)
    assert np.allclose(fused, seg, atol=np.finfo(np.float32).eps)
    report("criterion 7: stitched length exact on 1000 plans; self-fusion is the identity", True)


# ---------------------------------------------------------------------------
# criterion 8: gloss parser


def test_acceptance_08_gloss_parser():
    table = [
        ("THANK-YOU", KIND_LEXICAL),
        ("fs-J-O-H-N", KIND_FINGERSPELL),
        ("#-E-A-R-L-Y", KIND_LOAN),
        ("ns-P-A-R-I-S", KIND_NAME),
        ("IX-1p", KIND_POINTER), ("IX-2p", KIND_POINTER), ("IX-3p", KIND_POINTER),
        ("POSS-1p", KIND_POSSESSIVE), ("POSS-2p", KIND_POSSESSIVE), ("POSS-3p", KIND_POSSESSIVE),
        ("SELF-1p", KIND_REFLEXIVE), ("SELF-2p", KIND_REFLEXIVE), ("SELF-3p", KIND_REFLEXIVE),
    ]
    for surface, kind in table:
        assert tokenize(surface)[0].kind == kind, surface

    rng = np.random.default_rng(7)
    pool = ["BOOK", "IX-1p", "IX-3p:i", "IX-loc:j", "POSS-3p:i", "SELF-2p", "fs-J-O-H-N",
            "#-E-A-R-L-Y", "ns-P-A-R-I-S", "ns-fs-P-A-R-I-S", 'DCL"crawl"', "TCL:3",
            "[false-start]", '5"wow"', "NEXT-TOPIC", "CURRENT-TOPIC"]
    for _ in range(1000):
        line = " ".join(rng.choice(pool, size=int(rng.integers(0, 10))))
        once = normalize(tokenize(line))
        assert normalize(once) == once

    assert normalize(tokenize("IX-3p:i"))[0].surface == "IX-3p"
    assert collapse_fingerspell(tokenize("ns-fs-P-A-R-I-S"))[0].surface == "PARIS"
    report("criterion 8: convention-table kinds, idempotent normalize, locus/fingerspell fixtures", True)


# ---------------------------------------------------------------------------
# criterion 9: retrieval


def test_acceptance_09_retrieval():
    corpus = Corpus([
        Document("sign language motion", "SIGN LANGUAGE MOTION", "d0"),
        Document("motion synthesis model", "MOTION SYNTHESIS MODEL", "d1"),
        Document("retrieval augmented translation memory", "RETRIEVAL MEMORY", "d2"),
    ])
    # hand-evaluated BM25 for the query "motion model" (k1=1.5, b=0.75)
    expected = {"d0": 0.4921503971159535, "d1": 1.5191967353481277, "d2": 0.0}
    for i, doc_id in enumerate(["d0", "d1", "d2"]):
        got = bm25_score("motion model".split(), corpus, i)
        assert got == pytest.approx(expected[doc_id], abs=1e-9)

    class ScaledSparse:
        def __init__(self, a, b):
            self.a, self.b = a, b
            self.inner = TrigramSparseScorer()

        def score(self, query, corpus):
            return self.a * self.inner.score(query, corpus) + self.b

    base = retrieve("motion model", corpus, sparse=ScaledSparse(1.0, 0.0))
    scaled = retrieve("motion model", corpus, sparse=ScaledSparse(42.0, -7.0))
    assert [c.document.doc_id for c in base.candidates] == [c.document.doc_id for c in scaled.candidates]
    for x, y in zip(base.candidates, scaled.candidates):
        assert x.s_final == pytest.approx(y.s_final, abs=1e-12)

    dup_corpus = Corpus([
        Document("I like tea", "LIKE TEA", "a"),
        Document("i like TEA", "LIKE TEA", "b"),
        Document("I like tea!", "LIKE TEA", "c"),
        Document("we drink coffee", "DRINK COFFEE", "d"),
        Document("cats sleep all day", "CAT SLEEP", "e"),
        Document("dogs bark at night", "DOG BARK", "f"),
        Document("birds sing in the morning", "BIRD SING", "g"),
        Document("fish swim in rivers", "FISH SWIM", "h"),
    ])
    result = retrieve("like tea", dup_corpus, k_out=6)
    ids = [c.document.doc_id for c in result.candidates]
    assert len(ids) == 6
    assert len([i for i in ids if i in ("a", "b", "c")]) == 1  # duplicates collapsed
    report("criterion 9: BM25 hand values, affine-invariant fusion, dedup/top-6", True)


# ---------------------------------------------------------------------------
# criterion 10: FGD


def test_acceptance_10_fgd():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(300, 10))
    assert fgd(feats, feats) < 1e-6
    z = rng.normal(size=(5000, 1))
    z = (z - z.mean()) / z.std(ddof=1)
    a = 0.0 + 1.0 * z
    b = 2.0 + 1.5 * z
    expected = (0.0 - 2.0) ** 2 + (1.0 - 1.5) ** 2
    assert fgd(a, b) == pytest.approx(expected, abs=1e-6)
    report("criterion 10: FGD zero on identical sets and exact on the 1D closed form", True)


# ---------------------------------------------------------------------------
# criteria 11 and 12: desk-scale reproduction (shared pipeline run)


@pytest.fixture(scope="module")
def desk_scale_report(tmp_path_factory):
    config = PipelineConfig(
        work_dir=str(tmp_path_factory.mktemp("desk_scale")),
        dur_gloss=DurationTrainConfig(tau=0.55, epochs=20),
        dur_sent=DurationTrainConfig(tau=0.60, epochs=30),
        inpaint_train=InpaintTrainConfig(steps=2000, batch_size=8, ema_decay=0.995, lr=1e-3),
        ddim_steps=50,
    )
    assert config.synth.vocab_size == 30
    assert config.synth.variants_per_gloss == 14
    assert config.synth.n_sentences == 500
    assert config.denoiser.latent == 64
    start = time.time()
    report_dict = run_pipeline(config)
    report_dict["elapsed_seconds"] = time.time() - start
    return report_dict


@pytest.mark.desk
def test_acceptance_11_desk_scale_inpainting(desk_scale_report):
    r = desk_scale_report
    ours = r["sentence"]["ours"]
    base = r["sentence"]["baseline"]
    assert not r["denoiser_fallback"]
    assert ours["dtw_mpjpe_overall"] < base["dtw_mpjpe_overall"]
    assert abs(ours["length_ratio"] - 1.0) < abs(base["length_ratio"] - 1.0)
    assert r["elapsed_seconds"] < 1800.0
    report(
        "criterion 11: trained refinement beats the 4-frame linear baseline "
        f"(DTW-MPJPE {ours['dtw_mpjpe_overall']:.4f} < {base['dtw_mpjpe_overall']:.4f}, "
        f"|LR-1| {abs(ours['length_ratio'] - 1):.3f} < {abs(base['length_ratio'] - 1):.3f}, "
        f"{r['elapsed_seconds']:.0f}s < 1800s)",
        True,
    )


@pytest.mark.desk
def test_acceptance_12_desk_scale_duration(desk_scale_report):
    r = desk_scale_report
    dur = r["duration_eval"]
    assert dur["model_mae"] <= 0.5 * dur["identity_mae"]
    ratio = r["sentence"]["ours"]["length_ratio"]
    assert 0.9 <= ratio <= 1.1
    report(
        "criterion 12: scale error reduced by "
        f"{100 * (1 - dur['model_mae'] / dur['identity_mae']):.0f}% (>= 50%), "
        f"sentence length ratio {ratio:.4f} in [0.9, 1.1]",
        True,
    )


# ---------------------------------------------------------------------------
# criterion 13: ranking-metrics calibration fixture


def test_acceptance_13_ranking_fixture():
    # rank histogram chosen to reproduce the calibration row exactly:
    # 415 hits at rank 1, 134 at rank 2, 35 at rank 5, 60 at rank 10, 356 misses
    rank_lists = []
    refs = []

    def add(count, rank):
        for _ in range(count):
            ranked = [f"x{j}" for j in range(10)]
            if rank is not None:
                ranked[rank - 1] = "ref"
            rank_lists.append(ranked)
            refs.append("ref")

    add(415, 1)
    add(134, 2)
    add(35, 5)
    add(60, 10)
    add(356, None)
    table = ranking_metrics(rank_lists, refs, ks=(1, 5, 10))
    assert table["mrr"] == pytest.approx(0.495, abs=1e-12)
    assert table["r@1"] == pytest.approx(0.415, abs=1e-12)
    assert table["r@5"] == pytest.approx(0.584, abs=1e-12)
    assert table["r@10"] == pytest.approx(0.644, abs=1e-12)
    report("criterion 13: aggregator reproduces MRR 0.495 / R@1 0.415 / R@5 0.584 / R@10 0.644", True)
