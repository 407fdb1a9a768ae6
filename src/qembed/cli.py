"""Command-line pipeline driver.

Exit codes: 0 success, 2 configuration problem, 3 missing or inconsistent
workspace artifacts, 4 provider failure.
"""

import argparse
import logging
import sys
from pathlib import Path

from .binary import BinaryMatrixError
from .config import ConfigError, load_config, with_seed
from .corpus import CorpusError
from .evaluation import BankMismatchError, TaskError
from .heads import TrainingError
from .jsonl import CorruptFileError, parse
from .pipeline import STAGE_ORDER, run_all, run_stage, write_demo_workspace
from .prompts import QuestionParseError
from .providers import ProviderError
from .question_gen import SamplingError
from .workspace import (DependencyError, FingerprintError, Workspace,
                        WorkspaceLockedError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_PROVIDER = 4

_CONFIG_ERRORS = (ConfigError, TaskError, SamplingError, CorpusError,
                  QuestionParseError)
_DEPENDENCY_ERRORS = (DependencyError, FingerprintError, WorkspaceLockedError,
                      BankMismatchError, TrainingError, BinaryMatrixError, CorruptFileError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qembed",
        description="Interpretable binary text embeddings from yes/no question banks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run pipeline stages from a config file")
    run.add_argument("--config", required=True, help="INI config file")
    run.add_argument("--workspace", required=True, help="artifact directory")
    run.add_argument("--stage", choices=STAGE_ORDER,
                     help="run a single stage instead of all applicable stages")
    run.add_argument("--seed", type=int, help="override the root seed")
    run.add_argument("--force", action="store_true",
                     help="re-run even if up to date; skip fingerprint checks")

    demo = sub.add_parser("demo",
                          help="build a synthetic workspace and run the full pipeline")
    demo.add_argument("--workspace", required=True, help="directory to create")
    demo.add_argument("--seed", type=int, default=0, help="root seed")
    demo.add_argument("--force", action="store_true")
    return parser


def _report_results(results, ws: Workspace) -> None:
    for result in results:
        if result.skipped:
            print(f"  {result.stage:16} skipped (up to date)")
        else:
            parts = " ".join(f"{k}={v}" for k, v in result.summary.items())
            print(f"  {result.stage:16} ran  {parts}")
    print(f"reports in {ws.root / 'reports'}")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    config_dir = Path(args.config).resolve().parent
    ws = Workspace(args.workspace)
    with ws.locked():
        if args.stage:
            result = run_stage(args.stage, cfg, ws, config_dir, force=args.force)
            _report_results([result], ws)
        else:
            results = run_all(cfg, ws, config_dir, force=args.force)
            _report_results(results, ws)
    return EXIT_OK


def _cmd_demo(args) -> int:
    ws = Workspace(args.workspace)
    config_path = write_demo_workspace(ws.root, seed=args.seed)
    cfg = load_config(config_path)
    with ws.locked():
        results = run_all(cfg, ws, config_path.resolve().parent, force=args.force)
    _report_results(results, ws)
    _print_demo_summary(ws)
    return EXIT_OK


def _print_demo_summary(ws: Workspace) -> None:
    def read(artifact):
        path = ws.path(artifact)
        return parse(path.read_bytes(), path) if path.exists() else None

    heldout = read("heldout_report")
    sts = read("sts_report")
    retrieval = read("retrieval_report")
    clustering = read("clustering_report")
    print("demo summary:")
    if heldout and heldout.get("accuracy") is not None:
        print(f"  held-out answer accuracy  {heldout['accuracy']:.4f}")
    if sts:
        rho = "n/a" if sts["spearman"] is None else f"{sts['spearman']:.4f}"
        print(f"  semantic similarity rho   {rho}")
        print(f"  mean cognitive load       {sts['mean_cognitive_load']:.2f}")
    if retrieval:
        print(f"  retrieval mean nDCG@10    {retrieval['mean_ndcg']:.4f}")
    if clustering:
        print(f"  clustering v-measure      {clustering['v_measure']:.4f}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_demo(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DEPENDENCY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


if __name__ == "__main__":
    sys.exit(main())
