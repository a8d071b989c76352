"""Command-line interface.

Subcommands
-----------
gen-data       generate a labeled/unlabeled/test split and save it as CSV
train          run one training configuration and record per-step metrics
compare        train runs over a grid of config values x seeds, with a summary table
theory-verify  convergence-bound checks on a constructed quadratic problem
plot-data      turn metrics.csv files into plain two-column .dat series

Configuration is JSON (``--config file.json``) merged over built-in
defaults, then ``--set dotted.key=value`` overrides on top.  Unknown
keys are rejected, and each value is cast once to the type annotated on
the record or function it builds.  Every command writes
``resolved-config.json`` into its output directory so a run can be
reproduced exactly; a run that reads its data from ``data.load_dir``
records only that key of its ``data`` section.

Every input is checked where it is read, before anything is written
(``compare`` checks every run of its grid before the first), and an
invalid one is a configuration error naming its key or section.

Exit codes: 0 success, 2 configuration error (including a mistyped value,
a ``data.load_dir`` that cannot be read, a ``compare`` grid key its runs
do not record, such as a ``data`` key beside ``data.load_dir``, a
``with-labeled`` batch no larger than the labeled set and a
``theory-verify`` T with a draw over the sample cap ``theory.DEFAULT_N_CAP``),
3 divergence during training (the run directory keeps the partial
metrics.csv and an error.json), 4 infeasible theory constants.  Any other
exception raised during a run is a bug and surfaces as a traceback.
"""

import argparse
import copy
import csv
import dataclasses
import inspect
import itertools
import json
import os
import shutil
import sys
from typing import (Dict, List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np

from . import dash, data, models, theory
from .augment import AugmentPolicy
from .errors import ConfigError, DivergenceError, InfeasibleConstantsError

OUT_ENV_VAR = "DASHSSL_OUT"


# ---------------------------------------------------------------------------
# defaults: each section is read off the record or function it builds

def _make_bundle(seed: int, at: str, kind: str = "two-moons", n: int = 1008,
                 noise: float = 0.08, num_classes: int = 2, dim: int = 2,
                 separation: float = 4.0, test_n: int = 512, labels_per_class: int = 4,
                 q: float = 0.8, ood_kind: str = "label-flip",
                 ood_offset: Union[float, List[float]] = 0.0,
                 load_dir: Optional[str] = None) -> data.DatasetBundle:
    """The run's data, loaded from load_dir when it is set, else generated.

    A file that cannot be read is a ConfigError naming load_dir; a generator's
    or split's own check is a ValueError, which _build reports under the section.
    """
    if load_dir:
        try:
            return data.load_bundle(load_dir)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{at}data.load_dir: {exc}") from exc
    if _choice(kind, ("two-moons", "blobs"), f"{at}data.kind") == "two-moons":
        pool = data.make_two_moons(n, noise, seed)
        test = data.make_two_moons(test_n, noise, seed + 1)
    else:
        pool = data.make_blobs(n, num_classes, dim, separation, noise, seed)
        test = data.make_blobs(test_n, num_classes, dim, separation, noise, seed + 1)
    # one number is that number for every coordinate
    width = pool.X.shape[1]
    offset = ood_offset if isinstance(ood_offset, list) else [ood_offset] * width
    if len(offset) != width:
        raise ConfigError(f"{at}data.ood_offset must be a number or a list of {width} "
                          f"numbers, got {ood_offset!r}")
    spec = data.SplitSpec(labels_per_class, q, ood_kind, np.array(offset, dtype=np.float64))
    return data.split_ssl(pool, spec, seed + 2, test=test)


def _keyword_defaults(target) -> Dict:
    """The parameters of target that have a default, with it: the section it builds."""
    return {name: p.default for name, p in inspect.signature(target).parameters.items()
            if p.default is not p.empty}


def _train_defaults() -> Dict:
    """The train defaults, read off DashConfig(): one source for both."""
    fields = dataclasses.asdict(dash.DashConfig())
    schedule, augment = fields.pop("schedule"), fields.pop("augment")
    # set per run: the step count and steps per epoch from train.epochs and the
    # data, the seed from the top-level seed
    del schedule["steps_per_epoch"], fields["T"], fields["seed"]
    return {
        "seed": 0,
        "algorithm": fields.pop("algorithm"),
        "data": _keyword_defaults(_make_bundle),
        "model": {"arch": "mlp-1hidden", "hidden": 32},
        "train": {"epochs": 45, **fields},
        "schedule": schedule,
        "augment": augment,
    }


_TRAIN_DEFAULTS = _train_defaults()

_COMPARE_DEFAULTS = {
    # [dotted key under base, [values]] pairs; each run takes one value of each
    "grid": [["algorithm", list(dash.ALGORITHMS)]],
    "seeds": [0, 1, 2, 3, 4],
    # every run's seed comes from seeds
    "base": {key: value for key, value in _TRAIN_DEFAULTS.items() if key != "seed"},
}

_THEORY_DEFAULTS = {
    "problem": _keyword_defaults(theory.make_pl_problem),
    "q_dist": _keyword_defaults(theory.make_q_distribution),
    # manual, when set, replaces the derived constants
    "constants": {"mode": "derive", "manual": None,
                  **_keyword_defaults(theory.derive_constants)},
    "T": 12,
    "seeds": 20,
    "thresholded": True,
}

_DEFAULTS = {
    "gen-data": {"seed": 0, "data": _keyword_defaults(_make_bundle)},
    "train": _TRAIN_DEFAULTS,
    "compare": _COMPARE_DEFAULTS,
    "theory-verify": _THEORY_DEFAULTS,
}


# ---------------------------------------------------------------------------
# configuration plumbing

def _merge(defaults: Dict, override: Dict, path: str = "") -> Dict:
    """Deep-merge override onto defaults, rejecting keys not in defaults."""
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        merged[key] = _merge_value(defaults[key], value, where)
    return merged


def _merge_value(default, value, where: str):
    """A config section merges key by key; any other value replaces its default."""
    if not isinstance(default, dict):
        return copy.deepcopy(value)
    if not isinstance(value, dict):
        raise ConfigError(f"config key {where} is a section and takes an object, "
                          f"got {value!r}")
    return _merge(default, value, where)


def _apply_set(cfg: Dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects dotted.key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set_key(cfg, dotted, value)


def _section(cfg: Dict, dotted: str) -> Optional[Dict]:
    """The section of cfg that holds the dotted key, or None if cfg has no such key."""
    *path, last = dotted.split(".")
    for part in path:
        cfg = cfg.get(part) if isinstance(cfg, dict) else None
    return cfg if isinstance(cfg, dict) and last in cfg else None


def _set_key(cfg: Dict, dotted: str, value, at: str = "") -> None:
    """Set the dotted key of cfg as --set does; errors name the key prefixed by at."""
    node = _section(cfg, dotted)
    if node is None:
        raise ConfigError(f"unknown config key: {at}{dotted}")
    last = dotted.rsplit(".", 1)[-1]
    node[last] = _merge_value(node[last], value, at + dotted)


def _load_config(command: str, config_path: Optional[str],
                 assignments: Sequence[str]) -> Dict:
    cfg = copy.deepcopy(_DEFAULTS[command])
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = _merge(cfg, loaded)
    for assignment in assignments:
        _apply_set(cfg, assignment)
    return cfg


def _cast(value, annotation, where: str):
    """value as the annotated type, or a ConfigError naming the key.

    A float takes a finite float64, an int a whole number, and a bool is no number.
    """
    arms = get_args(annotation)
    if get_origin(annotation) is Union:  # Optional too: the first arm that fits
        for arm in arms:
            try:
                return _cast(value, arm, where)
            except ConfigError:
                pass
    elif get_origin(annotation) is list:
        if isinstance(value, list):
            return [_cast(v, arms[0], where) for v in value]
    elif isinstance(value, bool) or value is None:
        if annotation is type(value):
            return value
    elif (annotation is float and isinstance(value, (int, float))
          and abs(value) <= sys.float_info.max):  # False for nan too
        return float(value)
    elif annotation is int and (isinstance(value, int)
                                or isinstance(value, float) and value.is_integer()):
        return int(value)
    elif annotation is str and isinstance(value, str):
        return value
    name = (annotation.__name__ if isinstance(annotation, type)
            else str(annotation).replace("typing.", ""))
    raise ConfigError(f"config key {where} takes {name}, got {value!r}")


def _choice(value, choices, where: str) -> str:
    """value as one of choices, or a ConfigError naming the key."""
    value = _cast(value, str, where)
    if value not in choices:
        raise ConfigError(f"config key {where} takes one of {list(choices)}, "
                          f"got {value!r}")
    return value


def _seed(value, where: str) -> int:
    """value as a seed: an int >= 0, as numpy's generators take it."""
    seed = _cast(value, int, where)
    if seed < 0:
        raise ConfigError(f"config key {where} takes an int >= 0, got {seed}")
    return seed


def _distinct(value, annotation, where: str) -> list:
    """value as a list of at least one entry, none repeated; an int n is 0 .. n-1."""
    values = _cast(value, annotation, where)
    values = list(range(values)) if isinstance(values, int) else values
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"config key {where} takes distinct entries, at least "
                          f"one, got {value!r}")
    return values


def _build(target, section, where: str, **given):
    """target(**section, **given), each section value cast to target's annotation.

    A ValueError of target's own checks is a ConfigError naming the section.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"config key {where} takes an object, got {section!r}")
    hints = get_type_hints(target)
    for key in section:
        if key not in hints:
            raise ConfigError(f"unknown config key: {where}.{key}")
    kwargs = {key: _cast(value, hints[key], f"{where}.{key}")
              for key, value in section.items()}
    try:
        return target(**kwargs, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _prepare_out_dir(out: str, overwrite: bool) -> str:
    root = os.environ.get(OUT_ENV_VAR)
    out = os.path.abspath(os.path.join(root, out) if root else out)
    if os.path.exists(out):
        if not os.path.isdir(out):
            raise ConfigError(f"output path exists and is not a directory: {out}")
        if os.listdir(out):
            if not overwrite:
                raise ConfigError(
                    f"output directory {out} is not empty (use --overwrite)")
            shutil.rmtree(out)
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(out: str, name: str, obj: Dict) -> None:
    _write_text(os.path.join(out, name), json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _recorded(cfg: Dict) -> Dict:
    """cfg as a run records it: of the data keys, load_dir alone when it is set."""
    if cfg["data"]["load_dir"]:
        return dict(cfg, data={"load_dir": cfg["data"]["load_dir"]})
    return cfg


def _write_series(path: str, xs: Sequence, ys: Sequence) -> None:
    _write_text(path, "".join(f"{x} {float(y)!r}\n" for x, y in zip(xs, ys)))


# ---------------------------------------------------------------------------
# trainer construction

def _build_dash_config(cfg: Dict, n_unlabeled: int, at: str = "") -> dash.DashConfig:
    """The trainer's config; its T is train.epochs passes over n_unlabeled draws."""
    train = dict(cfg["train"])
    epochs = _cast(train.pop("epochs"), int, f"{at}train.epochs")
    if epochs < 1:
        raise ConfigError(f"config key {at}train.epochs takes an int >= 1, got {epochs}")
    config = _build(dash.DashConfig, train, f"{at}train",
                    seed=_cast(cfg["seed"], int, f"{at}seed") + 2,
                    algorithm=_choice(cfg["algorithm"], dash.ALGORITHMS, f"{at}algorithm"),
                    schedule=_build(dash.ThresholdSchedule, cfg["schedule"], f"{at}schedule"),
                    augment=_build(AugmentPolicy, cfg["augment"], f"{at}augment"))
    return dataclasses.replace(
        config, T=epochs * dash.steps_per_epoch(n_unlabeled, config.m))


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _load_config("gen-data", args.config, args.set or [])
    seed = _seed(cfg["seed"], "seed")
    bundle = _build(_make_bundle, cfg["data"], "data", seed=seed, at="")
    out = _prepare_out_dir(args.out, args.overwrite)
    _write_json(out, "resolved-config.json", cfg)
    data.save_bundle(bundle, out)
    print(f"wrote {len(bundle.labeled)} labeled / {len(bundle.unlabeled)} "
          f"unlabeled / {len(bundle.test)} test examples to {out}")
    return 0


def _train_inputs(cfg: Dict, at: str = ""
                  ) -> Tuple[data.DatasetBundle, dash.DashConfig, models.Model]:
    """(bundle, trainer config, initial model); errors name keys prefixed by at."""
    seed = _seed(cfg["seed"], f"{at}seed")
    bundle = _build(_make_bundle, cfg["data"], f"{at}data", seed=seed, at=at)
    config = _build_dash_config(cfg, len(bundle.unlabeled), at)
    model = _build(models.init_model, cfg["model"], f"{at}model",
                   input_dim=bundle.input_dim, num_classes=bundle.num_classes,
                   seed=seed + 1)
    n_l = len(bundle.labeled)
    # every step draws m examples, so one check covers the run
    if (dash.ALGORITHMS[config.algorithm][1] and config.m <= n_l
            and config.gradient_form == dash.GRAD_WITH_LABELED):
        raise ConfigError(f"{at}train: with-labeled gradient needs n_t > N_l "
                          f"(got n_t={config.m}, N_l={n_l})")
    return bundle, config, model


def _run_train(cfg: Dict, out: str, overwrite: bool) -> Dict[str, np.ndarray]:
    """Train one configuration into out; returns its metrics table.

    Every configuration error is raised before out is made.  On
    divergence the directory keeps resolved-config.json, the metrics of
    the finished steps and error.json.
    """
    bundle, config, model = _train_inputs(cfg)
    out = _prepare_out_dir(out, overwrite)
    _write_json(out, "resolved-config.json", _recorded(cfg))
    try:
        trained, metrics, _ = dash.dash_train(bundle, config, model)
    except DivergenceError as exc:
        dash.write_metrics_csv(exc.metrics, os.path.join(out, "metrics.csv"))
        _write_json(out, "error.json", {"step": exc.step, "detail": exc.detail})
        raise
    dash.write_metrics_csv(metrics, os.path.join(out, "metrics.csv"))
    dash.save_checkpoint(trained.params, os.path.join(out, "checkpoint.bin"))
    return metrics


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config("train", args.config, args.set or [])
    metrics = _run_train(cfg, args.out, args.overwrite)
    print(f"final test error {metrics['test_error'][-1]:.4f}, labeled loss "
          f"{metrics['labeled_loss'][-1]:.4f} ({len(metrics['step'])} steps)")
    return 0


def _grid_points(grid) -> Tuple[List[str], List[tuple]]:
    """compare's grid as its keys and its points, one value per key, the first
    key varying slowest."""
    if not isinstance(grid, list) or not all(
            isinstance(axis, list) and len(axis) == 2 and isinstance(axis[0], str)
            and isinstance(axis[1], list) and axis[1] for axis in grid):
        raise ConfigError("config key grid takes a list of [dotted key, [values]] "
                          f"pairs, got {grid!r}")
    keys = [key for key, _ in grid]
    for key, values in grid:
        if keys.count(key) > 1:
            raise ConfigError(f"config key grid.{key} is listed twice")
        # by ==, so 4 and 4.0, one value once cast, repeat; list values compare too
        if any(values.count(value) > 1 for value in values):
            raise ConfigError(f"config key grid.{key} takes distinct values, "
                              f"got {values!r}")
    return keys, list(itertools.product(*(values for _, values in grid)))


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config("compare", args.config, args.set or [])
    keys, points = _grid_points(cfg["grid"])
    seeds = [_seed(seed, "seeds") for seed in _distinct(cfg["seeds"], List[int], "seeds")]

    # every run's inputs are checked as the run reads them, before anything is
    # written; a grid value must show in the resolved-config.json of its runs
    runs = []
    for i, values in enumerate(points):
        point = copy.deepcopy(cfg["base"])
        for key, value in zip(keys, values):
            _set_key(point, key, value, "grid.")
        for key in keys:
            if _section(_recorded(point), key) is None:
                raise ConfigError(f"config key grid.{key}: runs that read "
                                  "data.load_dir do not read it")
        for seed in seeds:
            runs.append((i, seed, dict(point, seed=seed)))
            _train_inputs(runs[-1][2], "base.")
    out = _prepare_out_dir(args.out, args.overwrite)
    _write_json(out, "resolved-config.json", dict(cfg, base=_recorded(cfg["base"])))

    errors = [[] for _ in points]
    for i, seed, run in runs:
        metrics = _run_train(run, os.path.join(out, "runs", f"{i}-s{seed}"), overwrite=True)
        errors[i].append(metrics["test_error"][-1])
        print(f"point {i} seed {seed}: test error {errors[i][-1]:.4f}")

    # one row per point: its index, its value of each grid key, its test error
    cells = [[str(i)] + [v if isinstance(v, str) else json.dumps(v) for v in values]
             for i, values in enumerate(points)]
    stats = [(float(np.mean(errs)), float(np.std(errs))) for errs in errors]
    with open(os.path.join(out, "table.csv"), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["point", *keys, "mean_test_error", "std_test_error", "n_seeds"]]
            + [row + [mean, std, len(seeds)] for row, (mean, std) in zip(cells, stats)])
    rows = [["point", *keys, f"test error (mean +/- std, {len(seeds)} seeds)"]] + [
        row + [f"{mean:.4f} +/- {std:.4f}"] for row, (mean, std) in zip(cells, stats)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    table = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                    for row in rows)
    _write_text(os.path.join(out, "table.txt"), table)
    print(table, end="")
    return 0


def _build_constants(cfg: Dict, problem: theory.PLProblem) -> theory.TheoryConstants:
    c_cfg = dict(cfg["constants"])
    mode, manual = c_cfg.pop("mode"), c_cfg.pop("manual")
    if manual is not None:
        try:
            constants = _build(theory.TheoryConstants, manual, "constants.manual")
        except TypeError as exc:  # a field left out
            raise ConfigError(f"constants.manual: {exc}") from exc
        # the runs build their threshold schedule from these
        _build(dash.ThresholdSchedule, {}, "constants.manual", C=constants.C,
               gamma=constants.gamma_theory, rho_hat=constants.rho_hat)
        return constants
    if mode != "derive":
        raise ConfigError("constants.mode must be 'derive' or constants.manual set")
    return _build(theory.derive_constants, c_cfg, "constants", G=problem.grad_bound,
                  L=problem.smoothness, mu=problem.mu)


def _cmd_theory_verify(args: argparse.Namespace) -> int:
    cfg = _load_config("theory-verify", args.config, args.set or [])
    problem = _build(theory.make_pl_problem, cfg["problem"], "problem")
    qdist = None
    if cfg["q_dist"]["kind"] != "none":
        qdist = _build(theory.make_q_distribution, cfg["q_dist"], "q_dist",
                       problem=problem)
    constants = _build_constants(cfg, problem)
    seeds = [_seed(seed, "seeds")
             for seed in _distinct(cfg["seeds"], Union[int, List[int]], "seeds")]
    T = _cast(cfg["T"], int, "T")
    if T < 1:
        raise ConfigError(f"config key T takes an int >= 1, got {T}")
    try:
        theory.check_sample_cap(constants, T)
    except ValueError as exc:
        raise ConfigError(f"config key T: {exc}") from exc
    report = theory.verify_run(problem, qdist, constants, T, seeds,
                               _cast(cfg["thresholded"], bool, "thresholded"))
    out = _prepare_out_dir(args.out, args.overwrite)
    _write_json(out, "resolved-config.json", cfg)
    _write_json(out, "report.json", report.schema_dict())
    print(f"envelope {report.pass_envelope:.2f}, set-size lower "
          f"{report.pass_A:.2f}, upper {report.pass_B:.2f} "
          f"over {len(seeds)} seeds")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    parsed = []
    for run_dir in args.run_dirs:
        try:
            cols = dash.read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read metrics.csv in {run_dir}: {exc}") from exc
        if cols["step"].size == 0:
            raise ConfigError(f"metrics.csv in {run_dir} has no rows")
        parsed.append((run_dir, dash.epoch_table(cols)))
    for run_dir, epochs in parsed:
        series_dir = os.path.join(run_dir, "series")
        os.makedirs(series_dir, exist_ok=True)
        for name, column in (("selected-correct", "n_sel_correct"),
                             ("selected-wrong", "n_sel_wrong"),
                             ("rho", "rho_t"), ("test-error", "test_error")):
            _write_series(os.path.join(series_dir, f"{name}.dat"), epochs["epoch"],
                          epochs[column])
        print(f"wrote 4 series for {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config value (dotted path, JSON value)")
    sub.add_argument("--out", required=True,
                     help=f"output directory (relative paths resolve "
                          f"against ${OUT_ENV_VAR} when set)")
    sub.add_argument("--overwrite", action="store_true",
                     help="replace an existing non-empty output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dashssl",
        description="semi-supervised training with a decaying selection threshold")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("gen-data", help="generate and save a dataset"))
    _add_common(subs.add_parser("train", help="run one training configuration"))
    _add_common(subs.add_parser("compare", help="train runs over a grid of config values"))
    _add_common(subs.add_parser("theory-verify",
                                help="check convergence bounds empirically"))
    plot = subs.add_parser("plot-data",
                           help="extract per-epoch .dat series from run dirs")
    plot.add_argument("run_dirs", nargs="+", metavar="RUNDIR",
                      help="training output directories containing metrics.csv")
    return parser


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "theory-verify": _cmd_theory_verify,
    "plot-data": _cmd_plot_data,
}

_EXIT_CODES = {ConfigError: 2, DivergenceError: 3, InfeasibleConstantsError: 4}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
