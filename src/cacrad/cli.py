"""Command line front end.

Subcommands: extract, train-eval, phantom, stats, catalog. Exit codes:
0 success, 2 configuration problem, 3 data problem, 4 degenerate cohort.
Flags override config-file values; no config file is needed when
the flags alone describe the run.
"""

import argparse
import sys
from dataclasses import replace

from .config import _FIELD_PARSERS, COMPOSITIONS, MODES, RunConfig, load_config
from .errors import CacradError, ConfigError, DegenerateCohortError
from .features.catalog import catalog_text
from .phantom import generate_cohort
from .pipeline import run_extract, run_stats, run_train_eval

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cacrad",
        description="Calcium-score classification from CT radiomics or "
                    "precomputed embeddings.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_mode=True):
        sp.add_argument("--config", help="key = value run configuration file")
        sp.add_argument("--manifest", help="cohort manifest CSV")
        sp.add_argument("--seed", help="master seed")
        sp.add_argument("--out", help="output directory")
        if with_mode:
            sp.add_argument("--mode", choices=MODES)

    sp = sub.add_parser("extract", help="compute the feature table for a cohort")
    add_common(sp, with_mode=False)
    sp.add_argument("--features-csv", dest="features_csv",
                    help="where to write the feature table (default <out>/features.csv)")

    sp = sub.add_parser("train-eval", help="split, select, tune, fit, and score")
    add_common(sp)
    sp.add_argument("--train-composition", dest="train_composition",
                    choices=COMPOSITIONS)
    sp.add_argument("--features-csv", dest="features_csv")
    sp.add_argument("--embeddings-csv", dest="embeddings_csv")
    sp.add_argument("--n-seeds", dest="n_seeds")
    sp.add_argument("--label-shuffle", dest="label_shuffle",
                    action="store_const", const="true", default=None,
                    help="permute training labels (null-hypothesis control)")
    sp.add_argument("--models", help="comma-separated model kinds")

    sp = sub.add_parser("phantom", help="generate a synthetic NIfTI cohort")
    sp.add_argument("--n", type=int, required=True, help="number of subjects")
    sp.add_argument("--balance", type=float, default=0.5,
                    help="fraction of NonZero subjects")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="cohort directory to create")

    sp = sub.add_parser("stats", help="paired t-tests between two run reports")
    sp.add_argument("report_a", help="run_report.json from the first arm")
    sp.add_argument("report_b", help="run_report.json from the second arm")
    sp.add_argument("--out", help="also write stats.json here")

    sub.add_parser("catalog", help="print the feature schema")
    return p


def _config_from_args(args) -> RunConfig:
    """The config file's settings, then each flag given, its text parsed
    as the config line of the same key is."""
    cfg = load_config(args.config) if args.config else RunConfig()
    given = {}
    for name, text in vars(args).items():
        if name not in _FIELD_PARSERS or text is None:
            continue
        try:
            given[name] = _FIELD_PARSERS[name].read(text.strip())
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for --{name.replace('_', '-')}: {text!r}") from exc
    return replace(cfg, **given)


def _say(line: str) -> None:
    """Print one line to stdout, escaping what its encoding cannot hold (a
    subject id or path in an ASCII locale); a StringIO has no encoding."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            _say(catalog_text())
        elif args.command == "phantom":
            manifest = generate_cohort(args.out, args.n, args.balance, args.seed)
            _say(f"wrote {args.n} subjects, manifest {manifest}")
        elif args.command == "extract":
            cfg = _config_from_args(args)
            report = run_extract(cfg)
            _say(f"extracted {report['n_extracted']}/{report['n_subjects']} subjects "
                 f"-> {report['features_csv']}")
            for exc in report["excluded"]:
                _say(f"excluded {exc['subject_id']}: {exc['error']}: {exc['message']}")
        elif args.command == "train-eval":
            cfg = _config_from_args(args)
            report = run_train_eval(cfg)
            _say(f"{len(report['runs'])} run(s), models: {', '.join(report['models'])}, "
                 f"reports under {cfg.out}")
        elif args.command == "stats":
            doc = run_stats(args.report_a, args.report_b, out_dir=args.out)
            for line in doc["lines"]:
                _say(line)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateCohortError as exc:
        print(f"degenerate cohort: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CacradError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
