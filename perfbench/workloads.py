"""The benchmark's two workloads: train_fresh and compose_eval.

Both are closed loops with one client: the next iteration starts when the
previous one has finished. Both run on a corpus drawn with SynthSpec's default
shape ranges (3 to 8 glosses per sentence, ragged gloss durations, prep and
retract lengths and variant stretches) and its default seed, at a small
vocabulary. The run's seed generates everything else: the training seeds of
the duration predictors and the denoiser, the retrieval memory and its
queries, and the gloss lines. README.md says why the corpus is not drawn from
the run's seed, and why each workload exists.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from signweave import glossnorm, metrics, pipeline, qc, records, retrieval, synth
from signweave.duration import DurationTrainConfig, integer_plan
from signweave.inpaint import InpaintTrainConfig
from signweave.motion import read_motion
from signweave.synth import SynthSpec
from speed import Clock

SIZES = {
    "bench": {
        "train_fresh": dict(vocab=6, variants=3, sentences=20, held_out=1, gloss_epochs=8,
                            sent_epochs=8, inpaint_steps=24, batch=4, ddim=10, setup_reps=5,
                            resumes=2, memory_docs=300, queries=8, gloss_lines=500),
        # set-up trains these checkpoints three times, so training is kept short;
        # the two held-out sentences have 4 and 8 glosses (107 and 250 frames)
        "compose_eval": dict(vocab=6, variants=3, sentences=24, held_out=2, gloss_epochs=4,
                             sent_epochs=4, inpaint_steps=12, batch=4, ddim=20, setup_reps=3,
                             resumes=4),
    },
    # seconds-long variant for the self-test
    "tiny": {
        "train_fresh": dict(vocab=3, variants=2, sentences=8, held_out=1, gloss_epochs=1,
                            sent_epochs=1, inpaint_steps=2, batch=2, ddim=2, setup_reps=2,
                            resumes=1, memory_docs=30, queries=3, gloss_lines=20),
        "compose_eval": dict(vocab=3, variants=2, sentences=8, held_out=1, gloss_epochs=1,
                             sent_epochs=1, inpaint_steps=2, batch=2, ddim=2, setup_reps=2,
                             resumes=1),
    },
}

# relative tolerance against the recorded reference values: the models run in
# float32, so a change that only reorders float32 arithmetic stays within it
REFERENCE_RTOL = 1e-6

WORDS = ("my mother father sister brother friend teacher doctor house school work car book "
         "dog cat coffee water bread city train bus morning evening night today tomorrow "
         "yesterday week year still always never often soon late early happy tired busy "
         "sick ready new old big small long short good bad cold warm go come see meet "
         "call help learn teach read write cook eat drink buy sell pay live move stay "
         "visit wait finish start want need like love know think forget remember ask "
         "answer tell show open close clean fix drive walk run play watch listen sign").split()

GLOSS_TOKENS = ("IX-1p IX-2p IX-3p:a IX-3p:b POSS-1p POSS-3p:a SELF-2p fs-J-O-H-N fs-A-B "
                "ns-fs-P-A-R-I-S ns-BOSTON #OK #BACK DCL\"flat-surface\" TCL:1 [laugh] "
                "NEXT-TOPIC HOUSE SCHOOL WORK GO FINISH WANT NOT-YET MOTHER TEACHER").split()


def pipeline_config(work_dir: Path, seed: int, sz: dict) -> pipeline.PipelineConfig:
    """The config for a run's seed. The corpus and the pipeline's own seed
    (held-out split, model initialization, DDIM noise) keep their defaults;
    the seed sets the training seeds."""
    return pipeline.PipelineConfig(
        work_dir=str(work_dir),
        synth=SynthSpec(vocab_size=sz["vocab"], variants_per_gloss=sz["variants"],
                        n_sentences=sz["sentences"]),
        pair_rounds=1,
        holdout_fraction=sz["held_out"] / sz["sentences"],
        dur_gloss=DurationTrainConfig(tau=0.55, epochs=sz["gloss_epochs"], seed=seed),
        dur_sent=DurationTrainConfig(tau=0.60, epochs=sz["sent_epochs"], seed=seed),
        inpaint_train=InpaintTrainConfig(steps=sz["inpaint_steps"], batch_size=sz["batch"],
                                         ema_decay=0.98, lr=1e-3, seed=seed),
        ddim_steps=sz["ddim"],
    )


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)


@dataclass
class Outcome:
    """One iteration: calibrated timings plus what the checks need of each pass."""

    run_s: float
    resume_s: list[float]
    outputs: list[dict]     # per pass: op id -> digest of its output
    invalid: list[set]      # per pass: op ids whose output failed a check


@dataclass
class Verdict:
    """Operations attempted, and the set of failed ones as (iteration, pass, op id)."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    reasons: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, keys, reason: str) -> None:
        keys = set(keys)
        if keys:
            self.failed_ops |= keys
            self.reasons[reason] = self.reasons.get(reason, 0) + len(keys)

    def fail_everywhere(self, outcomes, op_ids, reason: str) -> None:
        """Fail op ids in every pass of every iteration that produced them
        (for outputs that the iteration check has already shown to repeat)."""
        self.fail({(i, p, k) for i, out in enumerate(outcomes) for p, outputs in enumerate(out.outputs)
                   for k in op_ids if k in outputs}, reason)


class PipelineWorkload:
    """`run_pipeline` end to end. Operations are held-out sentences, per pass."""

    name = ""

    def __init__(self, size: str, seed: int, root: Path):
        self.sz = SIZES[size][self.name]
        self.seed = seed
        self.root = root
        self.setup_reps = self.sz["setup_reps"]
        self.clock = Clock()

    def setup(self, rep: int) -> None:
        """Generate the config."""
        self.work = self.root / f"setup{rep}"
        self.config = pipeline_config(self.work, self.seed, self.sz)

    def input_digest(self) -> str:
        return digest(pipeline.config_to_dict(self.config) | {"work_dir": None})

    def trained_state(self):
        """The prepare, duration and inpaint stages: on a fresh work directory
        they train, on a finished one they load what they wrote."""
        store = pipeline.StageStore(self.work)
        data = pipeline.prepare_data(self.config, store)
        gloss_model, sent_model = pipeline.train_duration_stage(self.config, store, data)
        pipeline.train_inpaint_stage(self.config, store, data, gloss_model)
        return data, sent_model

    def _pass(self, label: str, then=None) -> tuple[float, dict, set]:
        """One timed pass of `run_pipeline`, and of `then` if given (it
        returns its own outputs and failed op ids): calibrated seconds,
        outputs, failed op ids."""
        def work():
            pipeline.run_pipeline(self.config)
            return then() if then else ({}, set())

        seconds, (extra_outputs, extra_invalid) = self.clock.time(label, work)
        outputs, invalid = self._read()
        return seconds, outputs | extra_outputs, invalid | extra_invalid

    def _read(self) -> tuple[dict, set]:
        """Per held-out sentence: digest of its SVMX outputs and metric rows,
        and whether every output value is finite."""
        eval_dir, compose_dir = self.work / "eval", self.work / "compose"
        rows: dict[str, list] = {}
        for line in (eval_dir / "metrics.jsonl").read_text().splitlines():
            row = json.loads(line)
            rows.setdefault(row["sentence_id"], []).append(row)
        outputs, invalid = {}, set()
        for sid, sid_rows in sorted(rows.items()):
            blobs = [(compose_dir / f"{sid}.{m}.svmx").read_bytes() for m in ("ours", "baseline")]
            frames = [read_motion(compose_dir / f"{sid}.{m}.svmx").frames for m in ("ours", "baseline")]
            values = [v for r in sid_rows for v in r.values() if isinstance(v, float)]
            if not (all(np.isfinite(f).all() for f in frames) and np.isfinite(values).all()):
                invalid.add(sid)
            outputs[sid] = digest(*blobs, sid_rows)
        self.report = json.loads((eval_dir / "report.json").read_text())
        self.rows = rows
        return outputs, invalid

    def plan_totals(self) -> dict[str, int]:
        """Expected frame count of each composed sentence: its sentence-level
        duration plan, recomputed from the trained checkpoints."""
        data, sent_model = self.trained_state()
        variants: dict[str, dict[int, int]] = {}
        for spec in data.corpus.pair_specs:
            if spec.sentence_id.endswith(".r0"):
                sid = spec.sentence_id.rsplit(".r", 1)[0]
                variants.setdefault(sid, {})[spec.pair_index] = spec.variant_a
                variants[sid][spec.pair_index + 1] = spec.variant_b
        by_id = {s.sentence_id: s for s in data.corpus.sentences}
        totals = {}
        for sid in data.eval_ids:
            segments = [data.cores[f"{g}.v{variants.get(sid, {}).get(i, 0)}"]
                        for i, g in enumerate(by_id[sid].glosses)]
            pred = sent_model.predict(segments)
            totals[sid] = integer_plan(sum(s.shape[0] for s in segments), pred,
                                       self.config.min_gloss_len).total
        return totals

    def check(self, outcomes: list[Outcome], reference: dict | None) -> tuple[Verdict, dict]:
        """Count failed operations over every pass of every iteration and
        return the quality metrics of the outputs."""
        verdict = Verdict()
        first = outcomes[0].outputs[0]
        for i, out in enumerate(outcomes):
            for p, (outputs, invalid) in enumerate(zip(out.outputs, out.invalid)):
                verdict.attempted += len(outputs)
                verdict.fail({(i, p, k) for k in invalid}, "output failed its check")
                verdict.fail({(i, p, k) for k, v in outputs.items() if first.get(k) != v},
                             "output differs from the first pass of the first iteration")
        totals = self.plan_totals()
        wrong = [r["sentence_id"] for rows in self.rows.values() for r in rows
                 if r["method"] == "ours" and r["pred_frames"] != totals.get(r["sentence_id"])]
        verdict.fail_everywhere(outcomes, wrong, "composed length differs from its plan total")
        quality = self.quality()
        if reference is not None:
            # agreement with the recorded reference counts as one more operation
            verdict.attempted += 1
            for reason in self.reference_mismatches(quality, reference):
                verdict.fail({("reference",)}, reason)
        return verdict, quality

    def quality(self) -> dict:
        ours = self.report["sentence"]["ours"]
        return {
            "dtw_mpjpe_overall": ours["dtw_mpjpe_overall"],
            "dtw_pa_mpjpe": ours["dtw_pa_mpjpe"],
            "length_ratio_err": abs(ours["length_ratio"] - 1.0),
            "fgd": ours["fgd"],
            "duration_mae": self.report["duration_eval"]["model_mae"],
        }

    def reference(self, quality: dict) -> dict:
        keys = ("pred_frames", "dtw_mpjpe_overall", "dtw_pa_mpjpe")
        return {"quality": quality,
                "sentences": {sid: {k: r[k] for k in keys}
                              for sid, rows in self.rows.items() for r in rows if r["method"] == "ours"}}

    def reference_mismatches(self, quality: dict, reference: dict) -> list[str]:
        found = [f"{k} differs from the reference" for k, v in reference["quality"].items()
                 if not close(quality[k], v)]
        for sid, ref_row in reference["sentences"].items():
            row = next((r for r in self.rows.get(sid, []) if r["method"] == "ours"), None)
            if row is None or any(not close(row[k], v) for k, v in ref_row.items()):
                found.append(f"sentence {sid} differs from the reference")
        return found


class TrainFresh(PipelineWorkload):
    """A fresh pipeline run and the corpus tools no pipeline stage runs, then
    unchanged reruns of the pipeline.

    The tools' operations are clips (dominant split) and retrieval queries;
    the dialogue file and the batch of gloss lines count as one each.
    """

    name = "train_fresh"

    def setup(self, rep: int) -> None:
        """Also generate the corpus the config names, the retrieval memory
        with queries whose answers are known, and the gloss lines."""
        super().setup(rep)
        sz = self.sz
        self.root.mkdir(parents=True, exist_ok=True)
        self.corpus = synth.synth_generate(self.config.synth, rounds=self.config.pair_rounds)
        rng = np.random.default_rng(self.seed + 1)
        docs = []
        for i in range(sz["memory_docs"]):
            text = list(rng.choice(WORDS, size=int(rng.integers(6, 13))))
            docs.append(retrieval.Document(" ".join(text), " ".join(t.upper() for t in text[:6]),
                                           f"d{i:04d}"))
        self.memory_path = self.root / "memory.jsonl"
        retrieval.save_corpus(self.memory_path, docs)
        self.queries = []
        for idx in rng.choice(len(docs), size=sz["queries"], replace=False):
            words = docs[idx].english.split()
            del words[int(rng.integers(len(words)))]
            self.queries.append((" ".join(words), docs[idx].doc_id))
        self.lines = [" ".join(rng.choice(GLOSS_TOKENS, size=int(rng.integers(4, 11))))
                      for _ in range(sz["gloss_lines"])]

    def op(self, i: int) -> Outcome:
        """A fresh run in a new work directory with the corpus tools, then
        unchanged reruns of the pipeline, each timed on its own."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work = self.root / f"iter{i}"
        self.config.work_dir = str(self.work)
        run_s, first, invalid = self._pass("run_s", self.corpus_tools)
        out = Outcome(run_s, [], [first], [invalid])
        for _ in range(self.sz["resumes"]):
            resume_s, outputs, invalid = self._pass("resume_s")
            out.resume_s.append(resume_s)
            out.outputs.append(outputs)
            out.invalid.append(invalid)
        return out

    def input_digest(self) -> str:
        return digest(super().input_digest(), self.queries, self.lines,
                      *[s.frames.tobytes() for s in self.corpus.sentences])

    def corpus_tools(self) -> tuple[dict, set]:
        """Ingest the records the synth stage exported, split each gloss's
        clips into dominant and non-dominant, normalize the gloss lines and
        run the retrieval queries."""
        synth_dir = self.work / "synth"
        words = records.ingest(synth_dir / "words.json", "W")
        dialogues = records.ingest(synth_dir / "dialogues.json", "U")
        by_gloss: dict[str, list] = {}
        for record in words:
            by_gloss.setdefault(record.gloss, []).append(record)
        labels = {}
        for group in by_gloss.values():
            frames = [records.word_record_to_clip(r).motion.frames for r in group]
            for record, label in zip(group, qc.dominant_split(frames)):
                labels[record.source_info["id"]] = label
        lines = [glossnorm.normalize_line(line) for line in self.lines]
        memory = retrieval.load_corpus(self.memory_path)
        rankings = [[c.document.doc_id for c in retrieval.retrieve(q, memory).candidates]
                    for q, _ in self.queries]
        sentences = sum(len(t.sentences) for d in dialogues for t in d.conversation)
        self.normalized, self.rankings = lines, rankings

        clip_ids = [c.source["id"] for clips in self.corpus.clips.values() for c in clips]
        outputs = {f"clip:{cid}": digest(labels.get(cid)) for cid in clip_ids}
        outputs.update({f"query:{i}": digest(r) for i, r in enumerate(rankings)})
        outputs["dialogues"] = digest(sentences)
        outputs["glossnorm"] = digest(lines)
        invalid = {f"clip:{cid}" for cid in clip_ids if cid not in labels}
        invalid |= {f"query:{i}" for i, r in enumerate(rankings) if not r}
        if sentences != len(self.corpus.sentences):
            invalid.add("dialogues")
        return outputs, invalid

    def check(self, outcomes, reference):
        verdict, quality = super().check(outcomes, reference)
        if any(glossnorm.normalize_line(line) != line for line in self.normalized):
            verdict.fail_everywhere(outcomes, ["glossnorm"], "a normalized gloss line is not a fixed point")
        return verdict, quality

    def quality(self) -> dict:
        table = metrics.ranking_metrics(self.rankings, [r for _, r in self.queries])
        return super().quality() | {"retrieval_mrr": table["mrr"]}

    def corpus_digests(self) -> dict:
        """QC kept count and trim spans from the pipeline's own stages, and
        the retrieval rankings."""
        qc_manifest = json.loads((self.work / "qc" / "manifest.json").read_text())
        return {"qc_kept": qc_manifest["kept_clips"],
                "trim_spans": digest((self.work / "trim" / "spans.json").read_bytes()),
                "retrieval_rankings": digest(self.rankings)}

    def reference(self, quality: dict) -> dict:
        return super().reference(quality) | {"digests": self.corpus_digests()}

    def reference_mismatches(self, quality: dict, reference: dict) -> list[str]:
        found = super().reference_mismatches(quality, reference)
        digests = self.corpus_digests()
        return found + [f"{k} differs from the reference" for k, v in reference["digests"].items()
                        if digests.get(k) != v]


class ComposeEval(PipelineWorkload):
    """Compose and evaluate with checkpoints that set-up trained."""

    name = "compose_eval"

    def setup(self, rep: int) -> None:
        super().setup(rep)
        self.trained_state()

    def op(self, i: int) -> Outcome:
        """Reload the trained state from the work directory a few times, timed
        together (`resume_s` is the time of one reload); then run the pipeline
        with `compose/` and `eval/` removed (`run_s`)."""
        for stage in ("compose", "eval"):
            shutil.rmtree(self.work / stage, ignore_errors=True)
        reloads = self.sz["resumes"]
        resume_s, _ = self.clock.time("resume_s", lambda: [self.trained_state() for _ in range(reloads)])
        run_s, outputs, invalid = self._pass("run_s")
        return Outcome(run_s, [resume_s / reloads], [outputs], [invalid])


WORKLOADS = {w.name: w for w in (TrainFresh, ComposeEval)}
