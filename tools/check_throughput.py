#!/usr/bin/env python3
"""Throughput regression gate for the fused simulation fast paths.

Compares the headline scalars bench_throughput records in
BENCH_throughput.json against the committed baseline
(bench/baselines/throughput_baseline.json) and fails on a >15%
regression.

Seven ratios are gated; all are self-normalizing (measured against a
sibling leg of the same run on the same host), so they only drop when
the fast path itself gets slower relative to its twin — exactly the
regressions these gates exist to catch:

* ``fused_speedup`` — fused AoS simulateBatch records/sec over the
  reference predict()/update() loop, AT(AHRT) scheme.
* ``soa_speedup`` — predecoded SoA simulateBatch records/sec over the
  fused AoS path, AT(IHRT) scheme (the id lane replaces every
  hash-map probe with a direct vector index). Gated against
  ``max(1.15, baseline * (1 - tolerance))``: the hard 1.15x floor is
  the acceptance bar for shipping the SoA path at all.
* ``simd_speedup`` — the vectorized fused kernel (runtime-dispatched
  AVX2/NEON) over the same SoA run with the SIMD level pinned to
  Scalar (which routes through the pre-SIMD lane-prober path), AT
  (IHRT) scheme. On hosts where a vector level is active
  (``simd_active`` == 1) the gate is
  ``max(1.5, baseline * (1 - tolerance))`` — the 1.5x hard floor is
  the acceptance bar for shipping the vector kernels. On scalar-only
  hosts both legs run the same code, so the ratio is only required
  to stay near 1.0 (>= 0.85) and the baseline comparison is skipped.
* ``soa_ahrt_cold_speedup`` — the predecoded SoA simulateBatch on
  an AT(AHRT) predictor reset (untimed) before every pass, over the
  fused AoS path. A cold AHRT runs the lane pass over the trace's
  cached AHRT resolution, which is what every sweep cell runs; the
  warm ``soa_ahrt_speedup`` leg never sees it. Plain floor at
  baseline - tolerance.
* ``st_fused_speedup``, ``profile_fused_speedup`` and
  ``btfn_fused_speedup`` — the paper's section 5.3 comparison schemes
  (Static Training over an AHRT, Profile, BTFN): each scheme's fast
  path over its trained reference predict()/update() loop on the
  same trace. Plain floors at baseline - tolerance.

``comb_fused_speedup`` (the tournament scheme's fused path over its
reference loop — the chooser-replay design keeps this near the
component speedups) is required to be present and printed, but not
gated yet: the replay pass's share of runtime shifts with component
choice, so the ratio is noisier than the single-scheme twins.
``predecode_overhead`` (one artifact build, in fused-AoS-pass units)
and ``soa_ahrt_speedup`` are required to be present and are printed
for the log, but never gated: build cost amortizes across every cell
sharing the trace, and a warm AHRT behind the SoA overload runs the
AoS loop itself, so that ratio sits at parity. Absolute records/sec vary wildly across CI
hosts and are printed but never gated.

The serve-path record (BENCH_serve.json, ``"figure": "serve"``) is
gated separately against bench/baselines/serve_baseline.json:

* ``serve_vs_offline`` — served records/sec over one thread's
  offline simulateBatch records/sec on the same records, median of
  paired runs. Self-normalizing like the ratios above, so it is the
  gate that catches a slower serve data plane on any host of the
  baseline's class; may not fall below baseline - tolerance.
* ``tenants_per_sec`` may not fall below baseline - tolerance, and
  ``p99_latency_ns`` may not rise above baseline + tolerance. These
  absolute floors are set with about 3x headroom, so they only catch
  gross breakage.

records/sec, offline records/sec, p50 and peak RSS are required to
be present and are printed but not gated. The document's ``figure``
field selects the rule set and the default baseline file.

Usage:
    check_throughput.py BENCH_throughput.json [baseline.json]
    check_throughput.py BENCH_serve.json [baseline.json]

Exit codes: 0 ok, 1 regression or malformed input, 2 usage.
"""

import json
import os
import sys

DEFAULT_TOLERANCE = 0.15
SOA_SPEEDUP_HARD_FLOOR = 1.15
SIMD_SPEEDUP_HARD_FLOOR = 1.5
# Scalar-only hosts run the same code on both simd legs; the ratio
# must simply not fall materially below parity.
SIMD_INACTIVE_FLOOR = 0.85


def load_document(path):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    scalars = document.get("scalars")
    if not isinstance(scalars, dict):
        raise ValueError(f"{path}: no 'scalars' object")
    return document, scalars


def default_baseline(figure):
    name = ("serve_baseline.json" if figure == "serve"
            else "throughput_baseline.json")
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..",
        "bench",
        "baselines",
        name,
    )


# Serve gates: (scalar, True for a floor at baseline - tolerance,
# False for a ceiling at baseline + tolerance).
SERVE_GATES = (
    ("tenants_per_sec", True),
    ("serve_vs_offline", True),
    ("p99_latency_ns", False),
)


def check_serve(measured_path, measured, baseline, tolerance):
    """Serve-path gates: the two rates down-gated, p99 up-gated."""
    for name in (
        "tenants_per_sec",
        "records_per_sec",
        "offline_records_per_sec",
        "serve_vs_offline",
        "p50_latency_ns",
        "p99_latency_ns",
        "peak_rss_bytes",
    ):
        if name not in measured:
            print(f"error: {measured_path} lacks scalar '{name}'",
                  file=sys.stderr)
            return 1
        print(f"{name}: measured {measured[name]:.4g}"
              + (f", baseline {baseline[name]:.4g}"
                 if name in baseline else ""))

    failed = False
    for name, is_floor in SERVE_GATES:
        want = float(baseline[name])
        got = float(measured[name])
        if is_floor:
            bound = want * (1.0 - tolerance)
            ok = got >= bound
        else:
            bound = want * (1.0 + tolerance)
            ok = got <= bound
        if ok:
            print(f"ok: {name} {got:.4g} "
                  f"{'>=' if is_floor else '<='} {bound:.4g}")
        else:
            print(
                f"REGRESSION: {name} {got:.4g} is "
                f"{'below' if is_floor else 'above'} {bound:.4g} "
                f"(baseline {want:.4g}, tolerance {tolerance:.0%})",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    measured_path = argv[1]

    try:
        document, measured = load_document(measured_path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    figure = document.get("figure", "")
    baseline_path = (argv[2] if len(argv) == 3
                     else default_baseline(figure))
    try:
        _, baseline = load_document(baseline_path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    tolerance = float(
        os.environ.get("TLAT_THROUGHPUT_TOLERANCE",
                       DEFAULT_TOLERANCE))
    if figure == "serve":
        return check_serve(measured_path, measured, baseline,
                           tolerance)

    for name in (
        "reference_records_per_sec",
        "fused_records_per_sec",
        "fused_speedup",
        "soa_ahrt_records_per_sec",
        "soa_ahrt_speedup",
        "soa_ahrt_cold_records_per_sec",
        "soa_ahrt_cold_speedup",
        "fused_ihrt_records_per_sec",
        "soa_ihrt_records_per_sec",
        "soa_speedup",
        "comb_reference_records_per_sec",
        "comb_fused_records_per_sec",
        "comb_fused_speedup",
        "comb_soa_records_per_sec",
        "st_reference_records_per_sec",
        "st_fused_records_per_sec",
        "st_fused_speedup",
        "profile_reference_records_per_sec",
        "profile_fused_records_per_sec",
        "profile_fused_speedup",
        "btfn_reference_records_per_sec",
        "btfn_fused_records_per_sec",
        "btfn_fused_speedup",
        "predecode_overhead",
        "simd_records_per_sec",
        "simd_scalar_records_per_sec",
        "simd_speedup",
        "simd_active",
        "peak_rss_bytes",
    ):
        if name not in measured:
            print(f"error: {measured_path} lacks scalar '{name}'",
                  file=sys.stderr)
            return 1
        print(f"{name}: measured {measured[name]:.4g}"
              + (f", baseline {baseline[name]:.4g}"
                 if name in baseline else ""))

    failed = False
    simd_active = float(measured.get("simd_active", 0.0)) >= 0.5
    for name, hard_floor in (
        ("fused_speedup", None),
        ("soa_speedup", SOA_SPEEDUP_HARD_FLOOR),
        ("simd_speedup", SIMD_SPEEDUP_HARD_FLOOR),
        ("soa_ahrt_cold_speedup", None),
        ("st_fused_speedup", None),
        ("profile_fused_speedup", None),
        ("btfn_fused_speedup", None),
    ):
        if name == "simd_speedup" and not simd_active:
            got = float(measured[name])
            if got < SIMD_INACTIVE_FLOOR:
                print(
                    f"REGRESSION: simd_speedup {got:.3f} below "
                    f"parity floor {SIMD_INACTIVE_FLOOR:.2f} with "
                    "no vector level active",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(f"ok: simd_speedup {got:.3f} recorded "
                      "(no vector level active; baseline "
                      "comparison skipped)")
            continue
        want = float(baseline[name])
        got = float(measured[name])
        floor = want * (1.0 - tolerance)
        if hard_floor is not None:
            floor = max(floor, hard_floor)
        if got < floor:
            print(
                f"REGRESSION: {name} {got:.3f} is below "
                f"{floor:.3f} (baseline {want:.3f} - {tolerance:.0%}"
                + (f", hard floor {hard_floor:.2f}"
                   if hard_floor is not None else "")
                + ")",
                file=sys.stderr,
            )
            failed = True
            continue
        print(f"ok: {name} {got:.3f} >= floor {floor:.3f} "
              f"(baseline {want:.3f}, tolerance {tolerance:.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
