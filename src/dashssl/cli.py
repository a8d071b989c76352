"""Command-line interface.

Subcommands
-----------
gen-data       generate a labeled/unlabeled/test split and save it as CSV
train          run one training configuration and record per-step metrics
compare        grid of algorithm x label-budget x seed runs with a summary table
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
a ``data.load_dir`` that cannot be read, a ``compare`` label budget
other than the labels per class in ``load_dir``, a ``with-labeled``
batch no larger than the labeled set and a ``theory-verify`` T with a
draw over the sample cap ``theory.DEFAULT_N_CAP``), 3 divergence
during training (the run directory keeps the partial metrics.csv and an
error.json), 4 infeasible theory constants.  Any other exception raised during a run is a bug and
surfaces as a traceback.
"""

import argparse
import copy
import dataclasses
import inspect
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
    "algorithms": ["dash", "fixmatch", "pl", "dash-pl"],
    "label_budgets": [4],
    "seeds": [0, 1, 2, 3, 4],
    "base": copy.deepcopy(_TRAIN_DEFAULTS),
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
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key: {dotted}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown config key: {dotted}")
    node[parts[-1]] = _merge_value(node[parts[-1]], value, dotted)


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


def _resolve_out(out: str) -> str:
    root = os.environ.get(OUT_ENV_VAR)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    return os.path.abspath(out)


def _prepare_out_dir(out: str, overwrite: bool) -> str:
    out = _resolve_out(out)
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


def _write_json(path: str, obj: Dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_resolved_config(out: str, cfg: Dict) -> None:
    _write_json(os.path.join(out, "resolved-config.json"), cfg)


def _data_read(data_cfg: Dict) -> Dict:
    """The data keys a run reads: load_dir alone when it is set."""
    if data_cfg["load_dir"]:
        return {"load_dir": data_cfg["load_dir"]}
    return data_cfg


def _write_series(path: str, xs: Sequence, ys: Sequence) -> None:
    lines = [f"{x} {float(y)!r}" for x, y in zip(xs, ys)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    _write_resolved_config(out, cfg)
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
    cfg = dict(cfg, data=_data_read(cfg["data"]))
    try:
        trained, metrics, _ = dash.dash_train(bundle, config, model)
    except DivergenceError as exc:
        _write_resolved_config(out, cfg)
        dash.write_metrics_csv(exc.metrics, os.path.join(out, "metrics.csv"))
        _write_json(os.path.join(out, "error.json"),
                    {"step": exc.step, "detail": exc.detail})
        raise
    _write_resolved_config(out, cfg)
    dash.write_metrics_csv(metrics, os.path.join(out, "metrics.csv"))
    dash.save_checkpoint(trained.params, os.path.join(out, "checkpoint.bin"))
    return metrics


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config("train", args.config, args.set or [])
    metrics = _run_train(cfg, args.out, args.overwrite)
    print(f"final test error {metrics['test_error'][-1]:.4f}, labeled loss "
          f"{metrics['labeled_loss'][-1]:.4f} ({len(metrics['step'])} steps)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config("compare", args.config, args.set or [])
    algorithms = _distinct(cfg["algorithms"], List[str], "algorithms")
    budgets = _distinct(cfg["label_budgets"], List[int], "label_budgets")
    seeds = _distinct(cfg["seeds"], List[int], "seeds")
    grid = [(algo, budget, seed)
            for algo in algorithms for budget in budgets for seed in seeds]

    def run_cfg(algo: str, budget: int, seed: int) -> Dict:
        run = copy.deepcopy(cfg["base"])
        run.update(algorithm=algo, seed=seed)
        run["data"]["labels_per_class"] = budget
        return run

    # every run's inputs are checked as the run reads them, before anything is
    # written; with load_dir every run reads the same bundle
    for run in grid:
        bundle = _train_inputs(run_cfg(*run), "base.")[0]
    if cfg["base"]["data"]["load_dir"]:
        # the loaded labeled.csv fixes the labels per class
        if len(budgets) > 1:
            raise ConfigError("base.data.load_dir takes a single label budget, "
                              f"got label_budgets={budgets}")
        counts = np.bincount(bundle.labeled.y, minlength=bundle.num_classes)
        if np.any(counts != budgets[0]):
            raise ConfigError(f"base.data.load_dir has {counts.tolist()} labels per "
                              f"class, not label_budgets={budgets}")
    out = _prepare_out_dir(args.out, args.overwrite)
    _write_resolved_config(out, dict(cfg, base=dict(
        cfg["base"], data=_data_read(cfg["base"]["data"]))))

    results: Dict[tuple, List[float]] = {}
    for algo, budget, seed in grid:
        run_dir = os.path.join(out, "runs", f"{algo}-{budget}-s{seed}")
        metrics = _run_train(run_cfg(algo, budget, seed), run_dir, overwrite=True)
        error = metrics["test_error"][-1]
        results.setdefault((algo, budget), []).append(error)
        print(f"{algo} budget={budget} seed={seed}: test error {error:.4f}")

    csv_lines = ["algorithm,labels_per_class,mean_test_error,std_test_error,n_seeds"]
    txt_lines = [f"{'algorithm':<10} {'labels':>6}  test error (mean +/- std, "
                 f"{len(seeds)} seeds)"]
    for (algo, budget), errs in results.items():
        mean, std = float(np.mean(errs)), float(np.std(errs))
        csv_lines.append(f"{algo},{budget},{mean!r},{std!r},{len(seeds)}")
        txt_lines.append(f"{algo:<10} {budget:>6}  {mean:.4f} +/- {std:.4f}")
    with open(os.path.join(out, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(csv_lines) + "\n")
    table = "\n".join(txt_lines) + "\n"
    with open(os.path.join(out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
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
    _write_resolved_config(out, cfg)
    _write_json(os.path.join(out, "report.json"), report.schema_dict())
    first = report.runs[0]
    _write_series(os.path.join(out, "envelope.dat"), first.steps, first.envelope)
    for run in report.runs:
        for name, ys in (("F", run.F), ("A", run.A_rho), ("B", run.B_rho)):
            _write_series(os.path.join(out, f"{name}-s{run.seed}.dat"), run.steps, ys)
    print(f"envelope {report.pass_envelope:.2f}, set-size lower "
          f"{report.pass_A:.2f}, upper {report.pass_B:.2f} "
          f"over {len(seeds)} seeds")
    return 0


def _epoch_series(cols: Dict[str, np.ndarray]):
    epochs = sorted(set(int(e) for e in cols["epoch"]))
    correct, wrong, rho, test_err = [], [], [], []
    order = np.argsort(cols["step"], kind="stable")
    epoch_col = cols["epoch"][order]
    for e in epochs:
        idx = order[epoch_col == e]
        correct.append(float(cols["n_sel_correct"][idx].sum()))
        wrong.append(float(cols["n_sel_wrong"][idx].sum()))
        rho.append(float(cols["rho_t"][idx[0]]))
        test_err.append(float(cols["test_error"][idx[-1]]))
    return epochs, correct, wrong, rho, test_err


def _cmd_plot_data(args: argparse.Namespace) -> int:
    parsed = []
    for run_dir in args.run_dirs:
        try:
            cols = dash.read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read metrics.csv in {run_dir}: {exc}") from exc
        if cols["step"].size == 0:
            raise ConfigError(f"metrics.csv in {run_dir} has no rows")
        parsed.append((run_dir, _epoch_series(cols)))
    for run_dir, (epochs, correct, wrong, rho, test_err) in parsed:
        series_dir = os.path.join(run_dir, "series")
        os.makedirs(series_dir, exist_ok=True)
        for name, ys in (("selected-correct", correct), ("selected-wrong", wrong),
                         ("rho", rho), ("test-error", test_err)):
            _write_series(os.path.join(series_dir, f"{name}.dat"), epochs, ys)
        print(f"wrote 4 series for {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_common(sub: argparse.ArgumentParser, needs_out: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config value (dotted path, JSON value)")
    if needs_out:
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
    _add_common(subs.add_parser("compare", help="algorithm comparison grid"))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleConstantsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
