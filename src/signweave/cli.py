"""Command-line entry points for the batch toolkit."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import glossnorm as gn
from .duration import GlossPlan
from .metrics import ranking_metrics
from .motion import read_motion, write_motion
from .pipeline import PipelineConfig, apply_overrides, config_from_dict, config_to_dict, run_pipeline, write_corpus
from .qc import QcConfig, qc_filters
from .records import export_canonical, ingest, read_json_lines, word_record_to_clip
from .retrieval import load_corpus, retrieve
from .stitch import assemble_sentence
from .synth import synth_generate
from .trimming import TrimConfig, trim


def _load_config(args) -> PipelineConfig:
    """The config of a command with the --config, --set and --work-dir flags."""
    config = config_from_dict(json.loads(Path(args.config).read_text())) if args.config else PipelineConfig()
    apply_overrides(config, args.set or [])
    if args.work_dir:
        config.work_dir = args.work_dir
    return config


def cmd_synth(args) -> int:
    config = args.pipeline_config
    corpus = synth_generate(config.synth, rounds=config.pair_rounds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_words = write_corpus(corpus, out)
    print(f"wrote {n_words} word records and {len(corpus.sentences)} sentences to {out}")
    return 0


def cmd_ingest(args) -> int:
    records = args.records
    print(f"{args.path}: {len(records)} valid {args.schema} records")
    if args.export:
        export_canonical(records, args.export, args.schema)
        print(f"canonical export written to {args.export}")
    return 0


def cmd_qc(args) -> int:
    records = args.records
    cfg = QcConfig()
    kept = 0
    dominant_labels: dict[str, bool] = {}
    if args.dominant_split:
        from collections import defaultdict

        from .qc import dominant_split

        by_gloss = defaultdict(list)
        for record in records:
            by_gloss[record.gloss].append(record)
        for gloss, group in by_gloss.items():
            clips = [word_record_to_clip(r).motion.frames for r in group]
            labels = dominant_split(clips)
            for record, label in zip(group, labels):
                dominant_labels[str(record.source_info.get("id"))] = label
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in records:
            clip = word_record_to_clip(record)
            result = qc_filters(clip, cfg)
            kept += int(result.keep)
            row = {
                "id": record.source_info.get("id"),
                "keep": result.keep,
                "reasons": result.reasons,
            }
            if args.dominant_split:
                row["is_dominant"] = dominant_labels.get(str(record.source_info.get("id")), True)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"kept {kept}/{len(records)}; report at {args.out}")
    return 0


def cmd_trim(args) -> int:
    records = args.records
    cfg = TrimConfig()
    spans = {}
    for record in records:
        clip = word_record_to_clip(record)
        result = trim(clip, None, cfg)
        spans[record.source_info.get("id", record.gloss)] = {
            "span": list(result.span),
            "flags": result.flags,
        }
    Path(args.out).write_text(json.dumps(spans, sort_keys=True, indent=1))
    print(f"trimmed {len(spans)} clips; spans at {args.out}")
    return 0


def _read_json_object(path: str | Path, key: str) -> dict:
    """A JSON file holding an object with a list under `key`; anything else
    raises a ValueError naming the path."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err.msg})") from None
    if not isinstance(obj, dict) or not isinstance(obj.get(key), list):
        raise ValueError(f"{path}: expected a JSON object with a {key} list")
    return obj


def _load_stitch_inputs(manifest_path: str, plan_path: str) -> tuple[list, GlossPlan]:
    """The (frames, boundary) pairs a stitch manifest names, and the plan."""
    base = Path(manifest_path).parent
    pairs = []
    for i, entry in enumerate(_read_json_object(manifest_path, "pairs")["pairs"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str) \
                or not isinstance(entry.get("boundary"), int):
            raise ValueError(f"{manifest_path}: pair {i} is not an object with a file and an integer boundary")
        pairs.append((read_motion(base / entry["file"]).frames, entry["boundary"]))
    lengths = list(_read_json_object(plan_path, "lengths")["lengths"])
    return pairs, GlossPlan(lengths, sum(lengths))


def cmd_stitch(args) -> int:
    pairs = args.stitch_pairs
    out = assemble_sentence(pairs, args.gloss_plan)
    write_motion(args.out, out)
    print(f"stitched {len(pairs)} pairs into {out.num_frames} frames at {args.out}")
    return 0


def cmd_glossnorm(args) -> int:
    if args.pairs:
        # filter mode: JSONL of {english, gloss}; emits one report per line
        reports = []
        for rec in args.pair_records:
            tokens = gn.normalize(gn.tokenize(rec["gloss"]))
            report = gn.filter_pair(rec["english"], tokens)
            reports.append(json.dumps({
                "english": rec["english"],
                "gloss": gn.detokenize(tokens),
                "decision": report.decision,
                "reasons": report.reasons,
            }, sort_keys=True))
        text = "\n".join(reports) + ("\n" if reports else "")
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    out_lines = []
    for line in args.lines:
        tokens = gn.normalize(gn.tokenize(line))
        if args.collapse_fingerspell:
            tokens = gn.collapse_fingerspell(tokens)
        out_lines.append(gn.detokenize(tokens))
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_retrieve(args) -> int:
    corpus = args.memory
    if args.eval_queries:
        rank_lists, refs = [], []
        for rec in args.queries:
            result = retrieve(rec["query"], corpus, k_out=args.k)
            rank_lists.append([c.document.doc_id for c in result.candidates])
            refs.append(rec.get("reference_id"))
        table = ranking_metrics(rank_lists, refs, ks=(1, 5, 10))
        print(json.dumps(table, sort_keys=True))
        return 0
    result = retrieve(args.query, corpus, k_out=args.k)
    for cand in result.candidates:
        print(json.dumps({
            "id": cand.document.doc_id,
            "english": cand.document.english,
            "gloss": cand.document.gloss,
            "s_final": round(cand.s_final, 6),
            "s_first": round(cand.s_first, 6),
        }, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    """The stage commands: run the pipeline through `args.until`."""
    config = args.pipeline_config
    report = run_pipeline(config, until=args.until, dump_paths=getattr(args, "dump_paths", False))
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_show_config(args) -> int:
    config = args.pipeline_config
    print(json.dumps(config_to_dict(config), indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signweave",
        description="Compose isolated sign-motion clips into continuous sentences and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON pipeline config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted config override, e.g. --set inpaint_train.steps=500")
        p.add_argument("--work-dir", help="stage output directory")

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a W or U annotation file")
    p.add_argument("--path", required=True)
    p.add_argument("--schema", choices=["W", "U"], required=True)
    p.add_argument("--lenient", action="store_true", help="allow unknown keys")
    p.add_argument("--export", help="write a canonical re-export here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("qc", help="quality-control report for a W file")
    p.add_argument("--path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--dominant-split", action="store_true",
                   help="also label dominant/non-dominant clips per gloss")
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser("trim", help="articulation spans for a W file")
    p.add_argument("--path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_trim)

    p = sub.add_parser("train-duration", help="run the pipeline through training the duration predictors")
    common(p)
    p.set_defaults(func=cmd_run, until="duration")

    p = sub.add_parser("train-inpainter", help="run the pipeline through training the boundary-inpainting denoiser")
    common(p)
    p.set_defaults(func=cmd_run, until="inpaint")

    p = sub.add_parser("compose", help="run the pipeline through refining pairs and stitching held-out sentences")
    common(p)
    p.set_defaults(func=cmd_run, until="compose")

    p = sub.add_parser("stitch", help="assemble pair motion files into one sentence")
    p.add_argument("--pairs-manifest", required=True,
                   help='JSON: {"pairs": [{"file": ..., "boundary": ...}, ...]}')
    p.add_argument("--plan", required=True, help='JSON: {"lengths": [...]}')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("glossnorm", help="normalize gloss lines or filter english-gloss pairs")
    p.add_argument("--input", help="text file, one gloss sequence per line (stdin otherwise)")
    p.add_argument("--out", help="output file (stdout otherwise)")
    p.add_argument("--collapse-fingerspell", action="store_true")
    p.add_argument("--pairs", help="JSONL of {english, gloss}; emits filter reports instead")
    p.set_defaults(func=cmd_glossnorm)

    p = sub.add_parser("retrieve", help="query the translation memory")
    p.add_argument("--corpus", required=True, help="line-delimited JSON corpus")
    p.add_argument("--query")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--eval-queries", help="JSONL of {query, reference_id}; prints MRR/R@k")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="run every stage and score the composed sentences")
    common(p)
    p.add_argument("--dump-paths", action="store_true",
                   help="also write the DTW alignment paths for debugging")
    p.set_defaults(func=cmd_run, until="eval")

    p = sub.add_parser("pipeline", help="run every stage end to end")
    common(p)
    p.set_defaults(func=cmd_run, until="eval")

    p = sub.add_parser("show-config", help="print the resolved configuration")
    common(p)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "retrieve" and not args.query and not args.eval_queries:
        parser.error("retrieve requires --query or --eval-queries")
    # input files are read before dispatch: a missing or malformed one is a
    # usage error, with the path and the line
    try:
        if args.command == "retrieve":
            args.memory = load_corpus(args.corpus)
            if args.eval_queries:
                args.queries = [rec for _, rec in read_json_lines(args.eval_queries, ("query",))]
        if args.command == "glossnorm" and args.pairs:
            args.pair_records = [rec for _, rec in read_json_lines(args.pairs, ("english", "gloss"))]
        elif args.command == "glossnorm":
            args.lines = (Path(args.input).read_text() if args.input else sys.stdin.read()).splitlines()
        if args.command in ("ingest", "qc", "trim"):
            args.records = ingest(args.path, getattr(args, "schema", "W"), strict=not args.lenient)
        if args.command == "stitch":
            args.stitch_pairs, args.gloss_plan = _load_stitch_inputs(args.pairs_manifest, args.plan)
        if hasattr(args, "set"):
            args.pipeline_config = _load_config(args)
    except (OSError, ValueError) as err:
        parser.error(str(err))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
