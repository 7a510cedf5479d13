"""Command-line scan of the eavesdropper-entropy estimators.

Evaluates the selected estimators on a transmittance grid for one or more
channel noise values and writes CSV with the fixed header
``tau,nbar,alpha,method,variant,entropy,log_base,status``.  The
``variant`` column names the Gram rule of ``bm-gme`` rows, ``pure-exact``,
and is ``-`` for the other methods.  Rows are sorted by (nbar, tau, method)
and floats printed with 12 significant digits, so a given configuration
always produces byte-identical output.

Each method runs over all grid cells at once.  `eb` takes X and Z4 once
per scan.  `bm-get` and `bm-gme` share one displaced-thermal ensemble
stacked over the cells: `bm-get` forms the cells' average covariances
together and takes their determinants with one stacked `det`, and `bm-gme`
checks the cells' Gram matrices as one stack and diagonalizes them with one
`eigvalsh`.  The closed-form tails of `eb` and `bm-get` then run on floats
per cell, and the oracle runs per cell.  Every value is the one the
library call returns for that cell alone.
"""

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .bounds import eb_qpsk_entropy, gaussian_extremality_entropy, gram_entropy, gram_matrix
from .cloner import ChannelParams, displaced_thermal_ensemble, qpsk
from .fock import FockConvergenceError, eve_exact_entropy
from .states import LOG_BASES

__all__ = ["ScanConfig", "run_scan", "main"]

CSV_HEADER = "tau,nbar,alpha,method,variant,entropy,log_base,status"
METHODS = ("eb", "bm-get", "bm-gme", "oracle")


@dataclass
class ScanConfig:
    tau_min: float = 0.02
    tau_max: float = 0.98
    tau_steps: int = 50
    nbars: list = field(default_factory=lambda: [0.01, 0.02])
    alpha: float = 1.0
    methods: list = field(default_factory=lambda: ["eb", "bm-get", "bm-gme"])
    log_base: str = "bits"
    cutoff: int = 18
    out: str = "-"
    check: bool = False

    def __post_init__(self):
        if not 0 <= self.tau_min <= 1 or not 0 <= self.tau_max <= 1:
            raise ValueError(f"--tau-min/--tau-max must lie in [0, 1], got {self.tau_min}, {self.tau_max}")
        if self.tau_max < self.tau_min:
            raise ValueError("--tau-max must be >= --tau-min")
        if self.tau_steps < 1:
            raise ValueError(f"--tau-steps must be >= 1, got {self.tau_steps}")
        # A repeated cell would print its rows again.
        if self.tau_min == self.tau_max and self.tau_steps > 1:
            raise ValueError(f"--tau-steps must be 1 when --tau-min equals --tau-max, got {self.tau_steps}")
        if not self.nbars:
            raise ValueError("at least one --nbar value is required")
        if not all(0 <= nb < np.inf for nb in self.nbars):
            raise ValueError(f"--nbar values must be finite and >= 0, got {self.nbars}")
        if len(set(self.nbars)) < len(self.nbars):
            raise ValueError(f"--nbar values must be distinct, got {self.nbars}")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"--alpha must be positive and finite, got {self.alpha}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad or not self.methods:
            raise ValueError(f"--methods must be a nonempty subset of {METHODS}, got {self.methods}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"--methods must not repeat a method, got {self.methods}")
        if self.log_base not in LOG_BASES:
            raise ValueError(f"--log-base must be {' or '.join(LOG_BASES)}, got {self.log_base!r}")
        if self.cutoff < 7:
            raise ValueError(f"--cutoff must be >= 7, got {self.cutoff}")
        # Taus or nbars a few ulps apart pass the checks above, but their
        # cells print alike and would repeat rows.  `run_scan` prints these
        # texts, made once here: a field set later is not printed anew.
        self.tau_texts = [_fmt(tau) for tau in self.tau_grid().tolist()]
        self.nbar_texts = [_fmt(float(nbar)) for nbar in sorted(self.nbars)]
        for what, printed in (("taus of --tau-min, --tau-max and --tau-steps", self.tau_texts),
                              ("--nbar values", self.nbar_texts)):
            if len(set(printed)) < len(printed):
                repeated = next(text for text in printed if printed.count(text) > 1)
                raise ValueError(f"{what} print alike at 12 digits: {repeated} repeats")

    def tau_grid(self):
        return np.linspace(self.tau_min, self.tau_max, self.tau_steps)


def _fmt(value):
    return f"{value:.12g}"


def _column(method, cfg, constellation, cells, ensemble):
    """(variant, entropy string, status) of `method` for each cell in
    `cells`.  `ensemble` is the cells' one stacked displaced-thermal
    ensemble, shared by bm-get and bm-gme."""
    if method == "eb":
        return [("-", _fmt(value), "ok")
                for value in eb_qpsk_entropy(cfg.alpha, cells, base=cfg.log_base)]
    if method == "bm-get":
        return [("-", _fmt(value), "ok")
                for value in gaussian_extremality_entropy(ensemble, base=cfg.log_base)]
    if method == "bm-gme":
        return [("pure-exact", _fmt(value), "ok")
                for value in gram_entropy(gram_matrix(ensemble), base=cfg.log_base).tolist()]
    if method == "oracle":
        return [_oracle_cell(cfg, constellation, params) for params in cells]
    raise ValueError(f"unknown method {method!r}")


def _oracle_cell(cfg, constellation, params):
    try:
        result = eve_exact_entropy(constellation, params, cutoff=cfg.cutoff, base=cfg.log_base)
    except FockConvergenceError:
        return "-", "", "not-converged"
    return "-", _fmt(result.value), "ok"


def run_scan(cfg):
    """All CSV rows (header excluded) for a configuration, sorted."""
    constellation = qpsk(cfg.alpha)
    cells = [ChannelParams(tau=float(tau), nbar=float(nbar))
             for nbar in sorted(cfg.nbars) for tau in cfg.tau_grid()]
    methods = sorted(cfg.methods)
    needs_ensemble = not {"bm-get", "bm-gme"}.isdisjoint(methods)
    ensemble = displaced_thermal_ensemble(constellation, cells) if needs_ensemble else None
    columns = [_column(method, cfg, constellation, cells, ensemble) for method in methods]
    alpha = _fmt(cfg.alpha)
    prefixes = [f"{tau},{nbar},{alpha}," for nbar in cfg.nbar_texts for tau in cfg.tau_texts]
    return [
        f"{prefix}{method},{variant},{entropy},{cfg.log_base},{status}"
        for prefix, results in zip(prefixes, zip(*columns))
        for method, (variant, entropy, status) in zip(methods, results)
    ]


def write_csv(rows, out):
    text = "\n".join([CSV_HEADER] + rows) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _parse_config_file(path):
    """Flat key=value file, '#' comments; keys use flag names."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValueError(f"config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _config_bool(key, value):
    word = value.lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(f"{key} must be one of {'/'.join(_TRUE + _FALSE)}, got {value!r}")
    return word in _TRUE


def _config_from_file(values, path):
    kwargs = {}
    try:
        for key, value in values.items():
            if key in ("tau_min", "tau_max", "alpha"):
                kwargs[key] = float(value)
            elif key in ("tau_steps", "cutoff"):
                kwargs[key] = int(value)
            elif key == "nbar":
                kwargs["nbars"] = [float(v) for v in value.split(",") if v.strip()]
            elif key == "methods":
                kwargs["methods"] = [m.strip() for m in value.split(",") if m.strip()]
            elif key in ("log_base", "out"):
                kwargs[key] = value
            elif key == "check":
                kwargs["check"] = _config_bool(key, value)
            else:
                raise ValueError(f"unknown key {key!r}")
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    return kwargs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evebounds",
        description="Scan eavesdropper-entropy estimators over a thermal-loss channel grid.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--tau-min", type=float, dest="tau_min")
    parser.add_argument("--tau-max", type=float, dest="tau_max")
    parser.add_argument("--tau-steps", type=int, dest="tau_steps")
    parser.add_argument("--nbar", type=float, action="append", dest="nbars",
                        help="channel thermal photon number; repeatable")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--methods", help="comma list from: " + ",".join(METHODS))
    parser.add_argument("--log-base", choices=LOG_BASES, dest="log_base")
    parser.add_argument("--cutoff", type=int, help="oracle Fock cutoff")
    parser.add_argument("--out", help="output CSV path, '-' for stdout")
    parser.add_argument("--check", action="store_true", default=None,
                        help="run the invariant check suites first; nonzero exit on failure")
    return parser


def parse_config(argv):
    args = build_parser().parse_args(argv)
    kwargs = {}
    if args.config:
        kwargs.update(_config_from_file(_parse_config_file(args.config), args.config))
    for key in ("tau_min", "tau_max", "tau_steps", "nbars", "alpha", "log_base", "cutoff",
                "out", "check"):
        value = getattr(args, key)
        if value is not None:
            kwargs[key] = value
    if args.methods is not None:
        kwargs["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    return ScanConfig(**kwargs)


def main(argv=None):
    try:
        cfg = parse_config(argv)
    except ValueError as exc:
        print(f"evebounds: {exc}", file=sys.stderr)
        return 2
    if cfg.check:
        results = checks.run_checks()
        for line in checks.format_report(results):
            print(line, file=sys.stderr)
        if not all(r.passed for r in results):
            return 1
    try:
        rows = run_scan(cfg)
    except ValueError as exc:
        print(f"evebounds: {exc}", file=sys.stderr)
        return 1
    try:
        write_csv(rows, cfg.out)
    except OSError as exc:
        print(f"evebounds: cannot write {cfg.out}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
