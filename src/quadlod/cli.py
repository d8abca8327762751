"""Batch command line front end: quadlod <subcommand> [flags].

Every artifact starts with one `# config:` line, a RunConfig as JSON, so it
can be reproduced; numeric output is deterministic given that line, for any
worker count.  Each subcommand takes only the flags it reads.  Flags use
norm-scale parameters (N, not N^2); headers print both to avoid
off-by-square confusion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lab, regions
from .arith import convolve, load_csv, save_csv, tabulate
from .characters import Modulus
from .errors import QlodError, UsageError
from .regions import NormRegion, a0, count_region, density_ratio, enumerate_region
from .rings import AlgInt, make_ring
from .sieve import cache_inspect, cache_load, cache_save, factor, sieve_primes

CONFIG_VERSION = 2

# Not params: RunConfig's own fields, and the flags that never change the
# numbers (a --config file is resolved into params).  Runs that differ only
# in the output path, the worker count or the cache directory write
# identical bytes.
_NOT_PARAMS = {"command", "d", "out", "workers", "cache_dir", "config"}


@dataclass
class RunConfig:
    """Everything that fixes an artifact's numbers; round-trips through JSON."""

    command: str
    d: int | None = None
    params: dict = field(default_factory=dict)
    version: int = CONFIG_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def default_cache_dir(flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    env = os.environ.get("QLOD_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "quadlod")


def _config_line(cfg: RunConfig) -> str:
    return f"# config: {cfg.to_json()}\n"


def _emit(lines: list[str], cfg: RunConfig, out: str | None = None) -> None:
    text = _config_line(cfg) + "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(lines: list[str], cfg: RunConfig, out: str | None) -> None:
    """Print bare lines, or with --out write them as an artifact under its config line."""
    if out:
        _emit(lines, cfg, out)
    else:
        print("\n".join(lines))


def _grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"--Ngrid must be comma-separated integers, got {text!r}") from None


def _finite_float(text: str) -> float:
    """The type of every float flag: nan and inf are usage errors too."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _usage(fn, *args):
    """fn(*args), where fn's only ValueError is an argument out of its range."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_fn(spec: str, ring, bound: int, table):
    if spec.startswith("csv:"):
        f = load_csv(spec[4:])
        if f.ring.d != ring.d or f.norm_bound < bound:
            raise QlodError(f"csv function does not cover d={ring.d}, norm {bound}")
        return f
    return _usage(tabulate, spec, ring, bound, table)  # ValueError: an unknown name


def _add_common(p, out=True):
    p.add_argument("--d", type=int, required=True, help="ring selector (one of the nine)")
    if out:
        p.add_argument("--out", help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """Usage errors are one `error:` line and exit code 2; subparsers inherit this."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="quadlod")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-info", help="descriptor of one of the nine rings")
    _add_common(p)

    p = sub.add_parser("enumerate", help="elements of an annulus, sorted")
    _add_common(p)
    p.add_argument("--N", type=_finite_float, required=True)
    p.add_argument("--yprime", type=_finite_float, default=1.0)
    p.add_argument("--Y", type=_finite_float, default=0.0)
    p.add_argument("--b", type=_finite_float, default=1.0)

    for name, text in (
        ("count", "element count of A0(N)"),
        ("density", "count over the 2*pi*N^2/sqrt(|D|) model"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--N", type=_finite_float, required=True)

    p = sub.add_parser("sieve", help="prime elements up to a norm bound")
    _add_common(p)
    p.add_argument("--max-norm", dest="max_norm", type=int, required=True)

    p = sub.add_parser("factor", help="factor x + y*omega")
    _add_common(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=0)

    for name, text in (
        ("chars", "character group of a modulus"),
        ("conductors", "conductor of every character mod q"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--qx", type=int, required=True)
        p.add_argument("--qy", type=int, default=0)

    p = sub.add_parser("tabulate", help="tabulate a builtin arithmetic function")
    _add_common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--norm-bound", dest="norm_bound", type=int, required=True)

    p = sub.add_parser("convolve", help="Dirichlet convolution of two builtins")
    _add_common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--norm-bound", dest="norm_bound", type=int, required=True)

    for name, text in (
        ("lod-scan", "E(N, Q) sweep over a grid of N"),
        ("conv-experiment", "normalized errors of f, g, f*g"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--f", default=None)
        if name == "conv-experiment":
            p.add_argument("--g", default=None)
        p.add_argument("--theta", type=_finite_float, default=None)
        p.add_argument("--B", type=_finite_float, default=None)
        p.add_argument("--Ngrid", default=None)
        p.add_argument("--config", help="JSON config file or config line with these parameters")
        p.add_argument(
            "--workers", type=int, default=None,
            help="parallel sweep workers, at least 1 (default: all cores; output is identical)",
        )

    p = sub.add_parser("sw-check", help="character cancellation scan")
    _add_common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--N", type=_finite_float, required=True)
    p.add_argument("--D", type=_finite_float, required=True)
    p.add_argument("--bound-power", dest="bound_power", type=_finite_float, default=None)

    p = sub.add_parser("large-sieve", help="lhs/rhs ratios for random sign vectors")
    _add_common(p)
    p.add_argument("--N", type=_finite_float, required=True)
    p.add_argument("--Q1", type=_finite_float, required=True)
    p.add_argument("--Q2", type=_finite_float, required=True)
    p.add_argument("--vectors", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="seed of the random sign vectors")

    p = sub.add_parser("mertens", help="ideal and prime reciprocal-norm sums")
    _add_common(p)
    p.add_argument("--R", type=int, required=True)

    p = sub.add_parser("cache", help="prime table cache management")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name in ("save", "load"):
        pc = cache_sub.add_parser(name)
        _add_common(pc, out=False)
        pc.add_argument("--max-norm", dest="max_norm", type=int, required=True)
        pc.add_argument("--cache-dir", dest="cache_dir")
    pc = cache_sub.add_parser("inspect")
    pc.add_argument("--path", required=True)

    return ap


def _cache_path(cache_dir: str | None, d: int, max_norm: int) -> str:
    cdir = default_cache_dir(cache_dir)
    os.makedirs(cdir, exist_ok=True)
    return os.path.join(cdir, f"primes_d{d}_n{max_norm}.qlod")


def _scan_config(args, require_g=False) -> tuple[lab.LodScanConfig, str, str]:
    """Merge --config file values with explicit flags (flags win).

    The file is a scan artifact's config line, whose params are read, or a
    flat object of the same keys; another command's config line is refused.
    """
    file_vals = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                file_vals = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"--config {args.config}: not JSON ({exc})") from None
        if isinstance(file_vals, dict) and file_vals.get("command", "lod-scan") not in (
            "lod-scan", "conv-experiment"
        ):
            command = file_vals["command"]
            raise UsageError(f"--config {args.config}: a {command!r} config line, not a scan's")
        if isinstance(file_vals, dict) and "params" in file_vals:
            file_vals = file_vals["params"]
        if not isinstance(file_vals, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")

    def pick(flag, key, default, kind=str):
        value = flag if flag is not None else file_vals.get(key, default)
        if not isinstance(value, kind) or isinstance(value, bool):
            what = "a string" if kind is str else "a number"
            raise UsageError(f"scan config: {key} must be {what}, got {value!r}")
        return value

    f_spec = pick(args.f, "f_spec", "prime_indicator")
    g_spec = pick(getattr(args, "g", None), "g_spec", f_spec) if require_g else f_spec
    grid = _grid(args.Ngrid) if args.Ngrid is not None else file_vals.get("N_grid", (50, 100))
    if not isinstance(grid, (list, tuple)) or not all(type(n) is int for n in grid):
        raise UsageError(f"scan config: N_grid must be a list of integers, got {grid!r}")
    try:
        cfg = lab.LodScanConfig(
            d=args.d,
            theta=float(pick(args.theta, "theta", 0.4, (int, float))),
            B=float(pick(args.B, "B", 0.0, (int, float))),
            N_grid=tuple(grid),
        )
    except (OverflowError, ValueError) as exc:
        raise UsageError(f"scan config: {exc}") from None
    return cfg, f_spec, g_spec


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QlodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    cfg = RunConfig(cmd, getattr(args, "d", None), params)
    out = getattr(args, "out", None)
    ring = make_ring(args.d) if "d" in args else None
    for flag in ("max_norm", "norm_bound"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")

    if cmd == "ring-info":
        info = {
            "d": ring.d,
            "disc": ring.disc,
            "w_K": ring.w_K,
            "omega": "(1+sqrt(d))/2" if ring.d % 4 == 1 else "sqrt(d)",
            "zeta0": [ring.zeta0.x, ring.zeta0.y],
            "units": [[u.x, u.y] for u in ring.units],
        }
        _emit([json.dumps(info, sort_keys=True)], cfg, out)
        return 0

    if cmd == "enumerate":
        region = _usage(NormRegion.from_params, ring, args.yprime, args.Y, args.N, args.b)
        try:
            n_sq = repr(args.N**2)
        except OverflowError:  # N^b may be small while N^2 is beyond the float range
            n_sq = "inf"
        lines = [f"# norms in [{region.lo_sq}, {region.hi_sq}] (N={args.N}, N^2={n_sq})"]
        lines.append("x,y,norm")
        for xi in enumerate_region(region):
            lines.append(f"{xi.x},{xi.y},{xi.norm()}")
        _emit(lines, cfg, out)
        return 0

    if cmd == "count":
        _report([str(count_region(_usage(a0, ring, args.N)))], cfg, out)
        return 0

    if cmd == "density":
        _report([repr(_usage(density_ratio, ring, args.N))], cfg, out)
        return 0

    if cmd == "sieve":
        table = sieve_primes(ring, args.max_norm)
        lines = [f"# {len(table)} prime classes, norm <= {args.max_norm}", "x,y,norm,split"]
        rows = zip(table.xs.tolist(), table.ys.tolist(), table.norms.tolist(), table.split_types)
        lines += [f"{x},{y},{n},{st}" for x, y, n, st in rows]
        _emit(lines, cfg, out)
        return 0

    if cmd == "factor":
        fm = factor(AlgInt(ring, args.x, args.y))
        parts = [f"unit=({fm.unit.x},{fm.unit.y})"]
        parts += [f"({p.x},{p.y})^{e}" for p, e in fm.factors]
        _report([" * ".join(parts)], cfg, out)
        return 0

    if cmd in ("chars", "conductors"):
        m = Modulus(ring, AlgInt(ring, args.qx, args.qy))
        gens, orders = m.unit_group
        lines = [
            f"# q=({m.q.x},{m.q.y}) norm={m.norm} phi={m.phi} orders={list(orders)}"
        ]
        if cmd == "chars":
            lines.append("exponents,principal")
            for chi in m.characters:
                lines.append(f"\"{list(chi.exponents)}\",{int(chi.is_principal)}")
        else:
            lines.append("exponents,conductor_x,conductor_y,conductor_norm,primitive")
            for chi in m.characters:
                cond = chi.conductor
                lines.append(
                    f"\"{list(chi.exponents)}\",{cond.x},{cond.y},{cond.norm()},"
                    f"{int(chi.is_primitive)}"
                )
        _emit(lines, cfg, out)
        return 0

    if cmd == "tabulate":
        table = sieve_primes(ring, args.norm_bound)
        f = _build_fn(args.f, ring, args.norm_bound, table)
        save_csv(f, out, _config_line(cfg))
        return 0

    if cmd == "convolve":
        table = sieve_primes(ring, args.norm_bound)
        f = _build_fn(args.f, ring, args.norm_bound, table)
        g = f if args.g == args.f else _build_fn(args.g, ring, args.norm_bound, table)
        h = convolve(f, g)
        save_csv(h, out, _config_line(cfg))
        return 0

    if cmd in ("lod-scan", "conv-experiment"):
        if args.workers is not None and args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        conv = cmd == "conv-experiment"
        scan_cfg, f_spec, g_spec = _scan_config(args, require_g=conv)
        cfg.params = {k: v for k, v in asdict(scan_cfg).items() if k != "d"}
        cfg.params["f_spec"] = f_spec
        bound = max(scan_cfg.N_grid) ** 2
        table = sieve_primes(ring, bound)
        f = _build_fn(f_spec, ring, bound, table)
        workers = args.workers or os.cpu_count() or 1
        if not conv:
            tables = lab.lod_scan(scan_cfg, f, workers=workers)
            if out:
                lab.write_lod_csv(tables, out, _config_line(cfg))
            for t in tables:
                flag = " (degenerate Q)" if t.degenerate else ""
                print(
                    f"N={t.n} N^2={t.n**2} Q={repr(t.q_bound)} count={t.count} "
                    f"E={repr(t.aggregate)} E/count={repr(t.normalized)}{flag}"
                )
            return 0
        cfg.params["g_spec"] = g_spec
        g = f if g_spec == f_spec else _build_fn(g_spec, ring, bound, table)
        report = lab.convolution_experiment(f, g, scan_cfg, workers=workers)
        if out:
            lab.write_conv_csv(report, out, _config_line(cfg))
        for row in report.rows:
            print(
                f"N={row['N']} E_f={repr(row['E_f_norm'])} E_g={repr(row['E_g_norm'])} "
                f"E_conv={repr(row['E_conv_norm'])}"
            )
        print(f"decaying: {report.decaying}")
        return 0

    if cmd == "sw-check":
        bound = _usage(a0, ring, args.N).hi_sq
        table = sieve_primes(ring, bound)
        f = _build_fn(args.f, ring, bound, table)
        rep = _usage(lab.sw_check, f, args.N, args.D, args.bound_power)  # ValueError: N <= 1
        lines = [
            f"# N={rep.n} D={rep.d_power} bound_power={rep.bound_power} "
            f"modulus_cap={repr(rep.modulus_cap)}",
            "q_x,q_y,q_norm,exponents,abs_sum,scaled",
        ]
        for row in rep.rows:
            lines.append(
                f"{row['q_x']},{row['q_y']},{row['q_norm']},\"{list(row['exponents'])}\","
                f"{repr(row['abs_sum'])},{repr(row['scaled'])}"
            )
        lines.append(f"# max_scaled={repr(rep.max_scaled)}")
        _emit(lines, cfg, out)
        return 0

    if cmd == "large-sieve":
        if args.vectors < 1:
            raise UsageError(f"--vectors must be at least 1, got {args.vectors}")
        region = _usage(a0, ring, args.N)
        xs, ys, _ = regions.element_arrays(ring.d, region.lo_sq, region.hi_sq)
        rng = np.random.default_rng(args.seed)
        mat = rng.choice([-1.0, 1.0], size=(args.vectors, len(xs)))
        results = _usage(lab.large_sieve_ratios, mat, xs, ys, args.Q1, args.Q2, region)  # Q1 <= 0
        lines = [f"# {len(xs)} elements, moduli norm in ({args.Q1}, {args.Q2}]"]
        lines.append("vector,lhs,rhs,ratio")
        for i, (l, r, ratio) in enumerate(results):
            lines.append(f"{i},{repr(l)},{repr(r)},{repr(ratio)}")
        lines.append(f"# max_ratio={repr(max(r for _, _, r in results))}")
        _emit(lines, cfg, out)
        return 0

    if cmd == "mertens":
        rep = _usage(lab.mertens_sums, ring, args.R)  # ValueError: R < 2
        _report([
            f"R={rep.r} ideal_sum={repr(rep.ideal_sum)} prime_sum={repr(rep.prime_sum)} "
            f"ideal_ratio={repr(rep.ideal_ratio)} prime_ratio={repr(rep.prime_ratio)}"
        ], cfg, out)
        return 0

    if cmd == "cache":
        if args.cache_command == "inspect":
            info = cache_inspect(args.path)
            print(json.dumps(info, sort_keys=True))
            return 0
        path = _cache_path(args.cache_dir, args.d, args.max_norm)
        if args.cache_command == "save":
            table = sieve_primes(ring, args.max_norm)
            cache_save(table, path)
            print(f"saved {len(table)} prime classes to {path}")
        else:
            table = cache_load(ring, path)
            print(
                f"loaded {len(table)} prime classes (d={table.ring.d}, "
                f"max_norm={table.max_norm}) from {path}"
            )
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
