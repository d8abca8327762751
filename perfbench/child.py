"""One repetition in a fresh interpreter; started by run.py, never by hand.

argv[1] is a JSON spec: {"mode": "warmup" | "run" | "trace", "spawn":
monotonic time just before the parent started this process, "src": path of
the quadlod sources, "argv": CLI arguments, "workload", "pool", "result":
path of the JSON result this writes}.  set-up time runs from "spawn" until
`import quadlod.cli` returns; CLOCK_MONOTONIC is shared by all processes.
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time

SPEC = json.loads(sys.argv[1])
sys.path.insert(0, SPEC["src"])

import quadlod.cli as cli  # noqa: E402  (the import being timed)

READY = time.monotonic()


def blas_info() -> dict:
    """Name, configuration and thread count of the BLAS numpy loaded."""
    import numpy

    info = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = "unknown"
    return info


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **blas_info(),
        "env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run_cli(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


def traced() -> dict:
    from probes import COUNT, Tracer, installed, self_times
    from quadlod import lab, regions

    info = regions._element_arrays_cached.cache_info
    tr = Tracer(SPEC["workload"])
    before = info()
    with installed(tr):
        with tr.span("root"):
            rc = run_cli(SPEC["argv"])
    after = info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    own = self_times(tr.spans)
    root = next(s for s in tr.spans if s["name"] == "root")
    total = root["end"] - root["start"] - own[COUNT]
    out = {
        "rc": rc,
        "spans": tr.spans,
        "self_s": dict(own),
        "counts": dict(tr.counts),
        "total_s": total,
        "coverage": (total - own["root"]) / total,
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    if SPEC["pool"]:
        out.update(pool_probe(lab))
    return out


def pool_probe(lab) -> dict:
    """lod_scan of f at workers=1 and 2 on the workload's grid, untraced."""
    args = cli.build_parser().parse_args(SPEC["argv"])
    scan_cfg, f_spec, _ = cli._scan_config(args, require_g=True)
    ring = cli.make_ring(args.d)
    bound = max(scan_cfg.N_grid) ** 2
    f = cli._build_fn(f_spec, ring, bound, cli.sieve_primes(ring, bound))
    times, records = {}, {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        tables = lab.lod_scan(scan_cfg, f, workers=workers)
        times[workers] = time.perf_counter() - t0
        records[workers] = [t.records for t in tables]
    return {
        "lod_scan_w1_s": times[1],
        "lod_scan_w2_s": times[2],
        "pool_equal": records[1] == records[2],
    }


def main() -> None:
    out = {"setup_s": READY - SPEC["spawn"]}
    mode = SPEC["mode"]
    if mode == "warmup":
        out["machine"] = machine()
    elif mode == "run":
        t0 = time.perf_counter()
        out["rc"] = run_cli(SPEC["argv"])
        out["wall_s"] = time.perf_counter() - t0
    else:
        out.update(traced())
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    out["cpu_s"] = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    out["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0
    with open(SPEC["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
