"""Command-line scan of the eavesdropper-entropy estimators.

Evaluates the selected estimators on a transmittance grid for one or more
channel noise values and writes CSV with the fixed header
``tau,nbar,alpha,method,variant,entropy,log_base,status``.  The
``variant`` column names the Gram rule of ``bm-gme`` rows, ``pure-exact``,
and is ``-`` for the other methods.  Rows are sorted by (nbar, tau, method)
and floats printed with 12 significant digits, so a given configuration
always produces byte-identical output.  Each method gives one number per
cell, None where the oracle does not converge, and `run_scan` alone turns
them into rows, labelled from the taus and nbars the cells are built from.

Each method runs over all grid cells at once.  `eb` takes X and Z4 once
per scan.  `bm-get` and `bm-gme` share one displaced-thermal ensemble
stacked over the cells: `bm-get` takes the cells' displacement moments
together, and `bm-gme` takes the spectra of QPSK's circulant Gram matrices
as the discrete Fourier transforms of their first rows, with no
eigensolve, from the constellation's part and two numbers per cell
(`bounds.gram_ensemble_entropy`).  The closed-form tails of `eb` and
`bm-get` then run on floats per cell.  The oracle runs per cell,
tau-major, so the cells that share a transmittance reuse its cached beam
splitter, one key per tau for both cutoffs of the sweep
(`fock._eve_bs_values`).  Every value is the one the library
call returns for that cell alone.
"""

import argparse
import sys
from contextlib import suppress
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from . import checks
from .bounds import eb_qpsk_entropy, gaussian_extremality_entropy, gram_ensemble_entropy
from .cloner import ChannelParams, displaced_thermal_ensemble, qpsk
from .fock import FockConvergenceError, eve_exact_entropy
from .states import LOG_BASES

__all__ = ["ScanConfig", "run_scan", "main"]

CSV_HEADER = "tau,nbar,alpha,method,variant,entropy,log_base,status"
METHODS = ("eb", "bm-get", "bm-gme", "oracle")
_VARIANTS = {"bm-gme": "pure-exact"}  # "-" for every other method


@dataclass
class ScanConfig:
    """The grid, methods and output of one scan.  Fields are validated when
    the config is built; a field changed later is scanned and labelled as
    changed but is not validated again."""

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
        for flag, value in (("--tau-steps", self.tau_steps), ("--cutoff", self.cutoff)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{flag} must be an integer, got {value!r}")
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
        # cells print alike and would repeat rows.
        for what, printed in (("taus of --tau-min, --tau-max and --tau-steps", _labels(self.tau_grid())),
                              ("--nbar values", _labels(sorted(self.nbars)))):
            if len(set(printed)) < len(printed):
                repeated = next(text for text in printed if printed.count(text) > 1)
                raise ValueError(f"{what} print alike at 12 digits: {repeated} repeats")

    def tau_grid(self):
        return np.linspace(self.tau_min, self.tau_max, self.tau_steps)


def _fmt(value):
    return f"{value:.12g}"


def _labels(values):
    return [_fmt(float(value)) for value in values]


def _column(method, cfg, constellation, cells, ensemble):
    """The entropy of `method` at each cell in `cells`, or None where the
    oracle does not converge.  `ensemble` is the cells' one stacked
    displaced-thermal ensemble, shared by bm-get and bm-gme."""
    if method == "eb":
        return eb_qpsk_entropy(cfg.alpha, cells, base=cfg.log_base)
    if method == "bm-get":
        return gaussian_extremality_entropy(ensemble, base=cfg.log_base)
    if method == "bm-gme":
        return gram_ensemble_entropy(ensemble, base=cfg.log_base).tolist()
    if method == "oracle":
        # tau-major, so each tau's beam splitter is built once for all nbars:
        # this relies on `fock._eve_bs_values` holding one key per tau
        values = [None] * len(cells)
        for i in sorted(range(len(cells)), key=lambda i: cells[i].tau):
            with suppress(FockConvergenceError):
                values[i] = eve_exact_entropy(constellation, cells[i], cutoff=cfg.cutoff,
                                              base=cfg.log_base).value
        return values
    raise ValueError(f"unknown method {method!r}")


def run_scan(cfg):
    """All CSV rows (header excluded) for a configuration, sorted."""
    constellation = qpsk(cfg.alpha)
    taus, nbars = cfg.tau_grid().tolist(), sorted(cfg.nbars)
    cells = [ChannelParams(tau=tau, nbar=float(nbar)) for nbar, tau in product(nbars, taus)]
    methods = sorted(cfg.methods)
    needs_ensemble = not {"bm-get", "bm-gme"}.isdisjoint(methods)
    ensemble = displaced_thermal_ensemble(constellation, cells) if needs_ensemble else None
    columns = [_column(method, cfg, constellation, cells, ensemble) for method in methods]
    alpha = _fmt(cfg.alpha)
    labels = [f"{tau},{nbar},{alpha}," for nbar, tau in product(_labels(nbars), _labels(taus))]
    heads = [f"{method},{_VARIANTS.get(method, '-')}," for method in methods]
    ok, failed = f",{cfg.log_base},ok", f",{cfg.log_base},not-converged"
    return [f"{label}{head}{failed}" if value is None else f"{label}{head}{_fmt(value)}{ok}"
            for label, values in zip(labels, zip(*columns, strict=True), strict=True)
            for head, value in zip(heads, values)]


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


def _names(text):
    return [name.strip() for name in text.split(",") if name.strip()]


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
                kwargs["methods"] = _names(value)
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
    parser.add_argument("--methods", type=_names, help="comma list from: " + ",".join(METHODS))
    parser.add_argument("--log-base", choices=LOG_BASES, dest="log_base")
    parser.add_argument("--cutoff", type=int, help="oracle Fock cutoff")
    parser.add_argument("--out", help="output CSV path, '-' for stdout")
    parser.add_argument("--check", action="store_true", default=None,
                        help="run the invariant check suites first; nonzero exit on failure")
    return parser


def parse_config(argv):
    args = build_parser().parse_args(argv)
    kwargs = _config_from_file(_parse_config_file(args.config), args.config) if args.config else {}
    for key in (f.name for f in fields(ScanConfig)):
        if getattr(args, key) is not None:
            kwargs[key] = getattr(args, key)
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
